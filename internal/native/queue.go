package native

import (
	"sync"

	"dopencl/internal/cl"
	"dopencl/internal/vm"
)

// command is one unit of work in a queue: an optional body guarded by a
// wait list, completing an event.
type command struct {
	waits []cl.Event
	body  func() error
	ev    *Event
}

// Queue is a native in-order command queue. Commands execute serially on a
// dedicated goroutine; enqueues never block (the queue is unbounded, as
// OpenCL queues conceptually are).
type Queue struct {
	ctx *Context
	dev *Device

	mu       sync.Mutex
	pending  []*command
	wake     chan struct{}
	released bool
	idle     *sync.Cond
	inFlight int
	rec      []*graphCmd // active recording (nil when not recording)
}

var _ cl.Queue = (*Queue)(nil)

func newQueue(c *Context, d *Device) *Queue {
	q := &Queue{ctx: c, dev: d, wake: make(chan struct{}, 1)}
	q.idle = sync.NewCond(&q.mu)
	go q.loop()
	return q
}

// Device returns the queue's device.
func (q *Queue) Device() cl.Device { return q.dev }

// Context returns the owning context.
func (q *Queue) Context() cl.Context { return q.ctx }

// loop is the queue's executor goroutine.
func (q *Queue) loop() {
	for {
		q.mu.Lock()
		for len(q.pending) == 0 {
			if q.released {
				q.mu.Unlock()
				return
			}
			q.mu.Unlock()
			<-q.wake
			q.mu.Lock()
		}
		cmd := q.pending[0]
		q.pending = q.pending[1:]
		q.mu.Unlock()

		q.execute(cmd)

		q.mu.Lock()
		q.inFlight--
		if q.inFlight == 0 && len(q.pending) == 0 {
			q.idle.Broadcast()
		}
		q.mu.Unlock()
	}
}

func (q *Queue) execute(cmd *command) {
	for _, w := range cmd.waits {
		if w == nil {
			continue
		}
		if err := w.Wait(); err != nil {
			cmd.ev.Complete(cl.Errf(cl.InvalidEventWaitList, "wait event failed: %v", err))
			return
		}
	}
	cmd.ev.MarkRunning()
	var err error
	if cmd.body != nil {
		err = cmd.body()
	}
	cmd.ev.Complete(err)
}

// enqueue appends a command and returns its event.
func (q *Queue) enqueue(waits []cl.Event, body func() error) (*Event, error) {
	ev := NewEvent()
	cmd := &command{waits: waits, body: body, ev: ev}
	q.mu.Lock()
	if q.released {
		q.mu.Unlock()
		return nil, cl.Errf(cl.InvalidCommandQueue, "queue released")
	}
	q.pending = append(q.pending, cmd)
	q.inFlight++
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
	return ev, nil
}

func (q *Queue) bufferOf(b cl.Buffer) (*Buffer, error) {
	nb, ok := b.(*Buffer)
	if !ok || nb.ctx != q.ctx {
		return nil, cl.Errf(cl.InvalidMemObject, "buffer does not belong to this context")
	}
	return nb, nil
}

// EnqueueWriteBuffer uploads host data into the buffer.
func (q *Queue) EnqueueWriteBuffer(b cl.Buffer, blocking bool, offset int, data []byte, wait []cl.Event) (cl.Event, error) {
	nb, err := q.bufferOf(b)
	if err != nil {
		return nil, err
	}
	if offset < 0 || offset+len(data) > len(nb.data) {
		return nil, cl.Errf(cl.InvalidValue, "write of %d bytes at offset %d exceeds buffer size %d", len(data), offset, len(nb.data))
	}
	if ev, rec, err := q.maybeRecord(blocking, wait, func() *graphCmd {
		// Recording copies the payload: the application is free to reuse
		// its slice after a recorded (never-executing) write returns.
		return &graphCmd{op: opWrite, buf: nb, offset: offset, size: len(data),
			payload: append([]byte(nil), data...)}
	}); rec {
		return ev, err
	}
	// The data slice is captured by reference: OpenCL requires the host
	// pointer to stay valid for non-blocking writes; callers that reuse
	// the slice must pass blocking=true, as in C.
	ev, err := q.enqueue(wait, func() error {
		q.dev.sim.ChargeTransfer(len(data), false)
		copy(nb.data[offset:], data)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if blocking {
		if werr := ev.Wait(); werr != nil {
			return nil, werr
		}
	}
	return ev, nil
}

// EnqueueReadBuffer downloads buffer contents into dst.
func (q *Queue) EnqueueReadBuffer(b cl.Buffer, blocking bool, offset int, dst []byte, wait []cl.Event) (cl.Event, error) {
	nb, err := q.bufferOf(b)
	if err != nil {
		return nil, err
	}
	if offset < 0 || offset+len(dst) > len(nb.data) {
		return nil, cl.Errf(cl.InvalidValue, "read of %d bytes at offset %d exceeds buffer size %d", len(dst), offset, len(nb.data))
	}
	if ev, rec, err := q.maybeRecord(blocking, wait, func() *graphCmd {
		return &graphCmd{op: opRead, buf: nb, offset: offset, size: len(dst), rdst: dst}
	}); rec {
		return ev, err
	}
	ev, err := q.enqueue(wait, func() error {
		q.dev.sim.ChargeTransfer(len(dst), true)
		copy(dst, nb.data[offset:offset+len(dst)])
		return nil
	})
	if err != nil {
		return nil, err
	}
	if blocking {
		if werr := ev.Wait(); werr != nil {
			return nil, werr
		}
	}
	return ev, nil
}

// EnqueueCopyBuffer copies between two buffers of the context.
func (q *Queue) EnqueueCopyBuffer(src, dst cl.Buffer, srcOffset, dstOffset, size int, wait []cl.Event) (cl.Event, error) {
	nsrc, err := q.bufferOf(src)
	if err != nil {
		return nil, err
	}
	ndst, err := q.bufferOf(dst)
	if err != nil {
		return nil, err
	}
	if size < 0 || srcOffset < 0 || srcOffset > len(nsrc.data)-size || dstOffset < 0 || dstOffset > len(ndst.data)-size {
		return nil, cl.Errf(cl.InvalidValue, "copy range out of bounds")
	}
	if ev, rec, err := q.maybeRecord(false, wait, func() *graphCmd {
		return &graphCmd{op: opCopy, src: nsrc, dst: ndst, offset: srcOffset, dstOff: dstOffset, size: size}
	}); rec {
		return ev, err
	}
	return q.enqueue(wait, func() error {
		copy(ndst.data[dstOffset:dstOffset+size], nsrc.data[srcOffset:srcOffset+size])
		return nil
	})
}

// EnqueueNDRangeKernel launches a kernel over the ND-range.
func (q *Queue) EnqueueNDRangeKernel(k cl.Kernel, global, local []int, wait []cl.Event) (cl.Event, error) {
	return q.EnqueueNDRangeKernelWithOffset(k, nil, global, local, wait)
}

// EnqueueNDRangeKernelWithOffset launches a kernel over the ND-range with
// a global work offset: work-item IDs run over [offset, offset+global).
func (q *Queue) EnqueueNDRangeKernelWithOffset(k cl.Kernel, offset, global, local []int, wait []cl.Event) (cl.Event, error) {
	nk, ok := k.(*Kernel)
	if !ok {
		return nil, cl.Errf(cl.InvalidKernel, "kernel does not belong to this runtime")
	}
	if offset != nil && len(offset) != len(global) {
		return nil, cl.Errf(cl.InvalidGlobalOffset, "offset has %d dimensions, global %d", len(offset), len(global))
	}
	// Snapshot (and thereby validate) the arguments up front: recording
	// must reject unset arguments at record time, not on replay.
	args, err := nk.snapshotArgs()
	if err != nil {
		return nil, err
	}
	if ev, rec, err := q.maybeRecord(false, wait, func() *graphCmd {
		// The clone freezes the argument bindings at record time; later
		// SetArg calls on the application's kernel do not leak into the
		// recording (updates are the only way to change a replayed launch).
		return &graphCmd{op: opKernel, k: nk.Clone(),
			goffset: append([]int(nil), offset...),
			global:  append([]int(nil), global...), local: append([]int(nil), local...)}
	}); rec {
		return ev, err
	}
	offsetCopy := append([]int(nil), offset...)
	globalCopy := append([]int(nil), global...)
	localCopy := append([]int(nil), local...)
	if local == nil {
		localCopy = nil
	}
	prog := nk.prog.Compiled()
	return q.enqueue(wait, func() error {
		_, execErr := q.dev.sim.Execute(vm.Launch{
			Prog:         prog,
			Kernel:       nk.fn,
			Args:         args,
			GlobalSize:   globalCopy,
			GlobalOffset: offsetCopy,
			LocalSize:    localCopy,
		})
		return execErr
	})
}

// EnqueueMarker enqueues a marker whose event completes after all prior
// commands.
func (q *Queue) EnqueueMarker() (cl.Event, error) {
	if ev, rec, err := q.maybeRecord(false, nil, func() *graphCmd {
		return &graphCmd{op: opMarker}
	}); rec {
		return ev, err
	}
	return q.enqueue(nil, nil)
}

// EnqueueBarrier blocks later commands until prior ones complete. The
// queue is in-order, so a no-op command suffices.
func (q *Queue) EnqueueBarrier() error {
	if _, rec, err := q.maybeRecord(false, nil, func() *graphCmd {
		return &graphCmd{op: opBarrier}
	}); rec {
		return err
	}
	_, err := q.enqueue(nil, nil)
	return err
}

// Flush submits queued commands; the executor is always draining, so this
// is a no-op. Flushing is a synchronization hint and invalid while
// recording.
func (q *Queue) Flush() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.rec != nil {
		return cl.Errf(cl.InvalidOperation, "flush while recording")
	}
	return nil
}

// Finish blocks until all enqueued commands have completed.
func (q *Queue) Finish() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.rec != nil {
		return cl.Errf(cl.InvalidOperation, "finish while recording")
	}
	for q.inFlight > 0 || len(q.pending) > 0 {
		q.idle.Wait()
	}
	return nil
}

// Release stops the queue after draining pending commands.
func (q *Queue) Release() error {
	q.mu.Lock()
	q.released = true
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
	return nil
}
