package native

import (
	"slices"
	"sync"

	"dopencl/internal/cl"
	"dopencl/internal/vm"
)

// Op is the kind of a queue command.
type Op uint8

const (
	OpWrite  Op = iota + 1 // Host into Buf at Offset
	OpRead                 // Buf at Offset into Host
	OpCopy                 // Size bytes from Buf at Offset to Dst at DstOffset
	OpKernel               // Kernel over GOffset/Global/Local
	OpMarker               // no work: on an in-order queue a marker and a barrier are the same command
)

var opNames = [...]string{OpWrite: "write", OpRead: "read", OpCopy: "copy", OpKernel: "kernel launch", OpMarker: "marker"}

// Command is one resolved queue command: what an Enqueue* call, a
// command-buffer replay and a daemon's forwarded call all put on a queue,
// through EnqueueCommand. The queue reads Host and the work sizes until
// the command's event completes; whoever keeps a command to run again
// replaces those values, never mutates them.
type Command struct {
	Op Op

	Buf       *Buffer // write/read target, copy source
	Dst       *Buffer // copy destination
	Offset    int     // into Buf
	DstOffset int     // into Dst
	Size      int     // bytes moved
	Host      []byte  // write source or read destination, Size bytes

	Kernel  *Kernel
	GOffset []int // global work offset (nil: zero)
	Global  []int
	Local   []int // nil: the device picks
}

// work is a command on the queue: gated on its waits, completing its
// event. args is a launch's argument snapshot, taken at enqueue.
type work struct {
	cmd   Command
	args  []vm.Arg
	waits []cl.Event
	ev    *Event
}

// Queue is a native in-order command queue. Commands execute serially on a
// dedicated goroutine; enqueues never block (the queue is unbounded, as
// OpenCL queues conceptually are).
type Queue struct {
	ctx *Context
	dev *Device

	mu       sync.Mutex
	pending  []*work
	wake     chan struct{}
	released bool
	idle     *sync.Cond
	inFlight int
	rec      []Command // active recording (nil when not recording)
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
		w := q.pending[0]
		q.pending = q.pending[1:]
		q.mu.Unlock()

		q.execute(w)

		q.mu.Lock()
		q.inFlight--
		if q.inFlight == 0 && len(q.pending) == 0 {
			q.idle.Broadcast()
		}
		q.mu.Unlock()
	}
}

func (q *Queue) execute(w *work) {
	for _, e := range w.waits {
		if e == nil {
			continue
		}
		if err := e.Wait(); err != nil {
			w.ev.Complete(cl.Errf(cl.InvalidEventWaitList, "wait event failed: %v", err))
			return
		}
	}
	w.ev.MarkRunning()
	w.ev.Complete(q.run(w))
}

// run does a command's work: the one place an op becomes what the device
// does.
func (q *Queue) run(w *work) error {
	c := &w.cmd
	switch c.Op {
	case OpWrite:
		q.dev.sim.ChargeTransfer(c.Size, false)
		copy(c.Buf.data[c.Offset:], c.Host)
	case OpRead:
		q.dev.sim.ChargeTransfer(c.Size, true)
		copy(c.Host, c.Buf.data[c.Offset:c.Offset+c.Size])
	case OpCopy:
		copy(c.Dst.data[c.DstOffset:c.DstOffset+c.Size], c.Buf.data[c.Offset:c.Offset+c.Size])
	case OpKernel:
		_, err := q.dev.sim.Execute(vm.Launch{
			Prog:         c.Kernel.prog.Compiled(),
			Kernel:       c.Kernel.fn,
			Args:         w.args,
			GlobalSize:   c.Global,
			GlobalOffset: c.GOffset,
			LocalSize:    c.Local,
		})
		return err
	}
	return nil
}

// EnqueueCommand puts cmd on the queue behind waits and returns its
// event. It copies the command, so the caller may reuse it at once; a
// launch binds its kernel's arguments as they are now (OpenCL captures
// them at enqueue).
func (q *Queue) EnqueueCommand(cmd *Command, waits []cl.Event) (cl.Event, error) {
	args, err := q.check(cmd)
	if err != nil {
		return nil, err
	}
	w := &work{cmd: *cmd, args: args, waits: waits, ev: NewEvent()}
	q.mu.Lock()
	if q.released {
		q.mu.Unlock()
		return nil, cl.Errf(cl.InvalidCommandQueue, "queue released")
	}
	q.pending = append(q.pending, w)
	q.inFlight++
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
	return w.ev, nil
}

// check validates a command against the queue and returns a launch's
// arguments as bound now. Offsets and sizes may come off the wire: the
// range checks let neither a negative value nor an overflowing sum pass.
func (q *Queue) check(c *Command) ([]vm.Arg, error) {
	switch c.Op {
	case OpWrite, OpRead:
		if len(c.Host) != c.Size {
			return nil, cl.Errf(cl.InvalidValue, "%s of %d bytes from a %d-byte host slice", opNames[c.Op], c.Size, len(c.Host))
		}
		return nil, q.inside(c.Buf, c.Offset, c.Size)
	case OpCopy:
		if err := q.inside(c.Buf, c.Offset, c.Size); err != nil {
			return nil, err
		}
		return nil, q.inside(c.Dst, c.DstOffset, c.Size)
	case OpKernel:
		if c.Kernel == nil {
			return nil, cl.Errf(cl.InvalidKernel, "kernel does not belong to this runtime")
		}
		if c.GOffset != nil && len(c.GOffset) != len(c.Global) {
			return nil, cl.Errf(cl.InvalidGlobalOffset, "offset has %d dimensions, global %d", len(c.GOffset), len(c.Global))
		}
		return c.Kernel.snapshotArgs()
	case OpMarker:
		return nil, nil
	}
	return nil, cl.Errf(cl.InvalidValue, "unknown command op %d", c.Op)
}

// inside checks that b is a buffer of the queue's context and that
// [offset, offset+size) lies in it.
func (q *Queue) inside(b *Buffer, offset, size int) error {
	if b == nil || b.ctx != q.ctx {
		return cl.Errf(cl.InvalidMemObject, "buffer does not belong to this context")
	}
	if size < 0 || offset < 0 || offset > len(b.data)-size {
		return cl.Errf(cl.InvalidValue, "range (offset %d size %d) outside a buffer of %d bytes", offset, size, len(b.data))
	}
	return nil
}

// submit is the step every Enqueue* call ends in: a recording queue
// records the command, any other enqueues it, and a blocking call waits
// for it.
func (q *Queue) submit(cmd *Command, blocking bool, wait []cl.Event) (cl.Event, error) {
	if recording, err := q.record(cmd, blocking, wait); recording {
		if err != nil {
			return nil, err
		}
		return cl.RecordedEvent{}, nil
	}
	ev, err := q.EnqueueCommand(cmd, wait)
	if err != nil {
		return nil, err
	}
	if blocking {
		if err := ev.Wait(); err != nil {
			return nil, err
		}
	}
	return ev, nil
}

// EnqueueWriteBuffer uploads host data into the buffer. The data slice is
// captured by reference: OpenCL requires the host pointer to stay valid
// for non-blocking writes; callers that reuse the slice must pass
// blocking=true, as in C.
func (q *Queue) EnqueueWriteBuffer(b cl.Buffer, blocking bool, offset int, data []byte, wait []cl.Event) (cl.Event, error) {
	nb, _ := b.(*Buffer)
	return q.submit(&Command{Op: OpWrite, Buf: nb, Offset: offset, Size: len(data), Host: data}, blocking, wait)
}

// EnqueueReadBuffer downloads buffer contents into dst.
func (q *Queue) EnqueueReadBuffer(b cl.Buffer, blocking bool, offset int, dst []byte, wait []cl.Event) (cl.Event, error) {
	nb, _ := b.(*Buffer)
	return q.submit(&Command{Op: OpRead, Buf: nb, Offset: offset, Size: len(dst), Host: dst}, blocking, wait)
}

// EnqueueCopyBuffer copies between two buffers of the context.
func (q *Queue) EnqueueCopyBuffer(src, dst cl.Buffer, srcOffset, dstOffset, size int, wait []cl.Event) (cl.Event, error) {
	nsrc, _ := src.(*Buffer)
	ndst, _ := dst.(*Buffer)
	return q.submit(&Command{Op: OpCopy, Buf: nsrc, Dst: ndst, Offset: srcOffset, DstOffset: dstOffset, Size: size}, false, wait)
}

// EnqueueNDRangeKernel launches a kernel over the ND-range.
func (q *Queue) EnqueueNDRangeKernel(k cl.Kernel, global, local []int, wait []cl.Event) (cl.Event, error) {
	return q.EnqueueNDRangeKernelWithOffset(k, nil, global, local, wait)
}

// EnqueueNDRangeKernelWithOffset launches a kernel over the ND-range with
// a global work offset: work-item IDs run over [offset, offset+global).
// The work sizes are copied: the caller may reuse its slices. The
// offset's copy keeps an empty offset apart from none, which the
// dimension check refuses.
func (q *Queue) EnqueueNDRangeKernelWithOffset(k cl.Kernel, offset, global, local []int, wait []cl.Event) (cl.Event, error) {
	nk, _ := k.(*Kernel)
	return q.submit(&Command{Op: OpKernel, Kernel: nk,
		GOffset: slices.Clone(offset),
		Global:  append([]int(nil), global...),
		Local:   append([]int(nil), local...)}, false, wait)
}

// EnqueueMarker enqueues a marker whose event completes after all prior
// commands.
func (q *Queue) EnqueueMarker() (cl.Event, error) {
	return q.submit(&Command{Op: OpMarker}, false, nil)
}

// EnqueueBarrier blocks later commands until prior ones complete. The
// queue is in-order, so a marker suffices.
func (q *Queue) EnqueueBarrier() error {
	_, err := q.submit(&Command{Op: OpMarker}, false, nil)
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
