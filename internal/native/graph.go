package native

import (
	"sync"

	"dopencl/internal/cl"
)

// Command-graph recording for the native runtime: the single-node
// implementation of cl.Queue.BeginRecording / Finalize /
// EnqueueCommandBuffer, so recorded host code runs unchanged locally and
// distributed. The daemon does not replay through this recorder: it keeps
// its own resolved command list per registered graph and puts each
// command on a native queue with the ordinary Enqueue* calls (see
// internal/daemon/command.go), using only EnqueueMarkerAfter and
// Kernel.Clone from this file.

// graphOp enumerates recorded command kinds.
type graphOp uint8

const (
	opWrite graphOp = iota + 1
	opRead
	opCopy
	opKernel
	opMarker
	opBarrier
)

// graphCmd is one recorded command. Mutable slots (payload, rdst, the
// kernel clone's arguments) are replaced, never mutated in place, so a
// replay already enqueued keeps the values it was fired with.
type graphCmd struct {
	op graphOp

	buf      *Buffer // write/read target
	src, dst *Buffer // copy endpoints
	offset   int     // write/read offset, copy source offset
	dstOff   int
	size     int

	payload []byte // write payload (owned copy)
	rdst    []byte // read destination (application slice)

	k       *Kernel // private clone with the recorded argument snapshot
	goffset []int   // global work offset (nil = zero)
	global  []int
	local   []int
}

// CommandBuffer is the native finalized recording.
type CommandBuffer struct {
	q *Queue

	mu       sync.Mutex
	cmds     []*graphCmd
	released bool
}

var _ cl.CommandBuffer = (*CommandBuffer)(nil)

// NumCommands returns the number of recorded commands.
func (cb *CommandBuffer) NumCommands() int {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	return len(cb.cmds)
}

// Release drops the recording.
func (cb *CommandBuffer) Release() error {
	cb.mu.Lock()
	cb.released = true
	cb.cmds = nil
	cb.mu.Unlock()
	return nil
}

// BeginRecording switches the queue into recording mode.
func (q *Queue) BeginRecording() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.released {
		return cl.Errf(cl.InvalidCommandQueue, "queue released")
	}
	if q.rec != nil {
		return cl.Errf(cl.InvalidOperation, "queue is already recording")
	}
	q.rec = []*graphCmd{}
	return nil
}

// Finalize ends recording and returns the replayable command buffer.
func (q *Queue) Finalize() (cl.CommandBuffer, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.rec == nil {
		return nil, cl.Errf(cl.InvalidOperation, "queue is not recording")
	}
	cmds := q.rec
	q.rec = nil
	if len(cmds) == 0 {
		return nil, cl.Errf(cl.InvalidValue, "empty recording")
	}
	return &CommandBuffer{q: q, cmds: cmds}, nil
}

// maybeRecord captures a command when the queue is recording. The bool
// result reports whether recording mode was active (the caller must then
// return (ev, err) instead of executing eagerly). Blocking transfers are
// rejected: a recorded command does not run, so there is nothing to
// block on.
func (q *Queue) maybeRecord(blocking bool, wait []cl.Event, build func() *graphCmd) (cl.Event, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.rec == nil {
		return nil, false, nil
	}
	if blocking {
		return nil, true, cl.Errf(cl.InvalidOperation, "blocking transfer while recording")
	}
	if err := cl.CheckRecordedWaits(wait); err != nil {
		return nil, true, err
	}
	q.rec = append(q.rec, build())
	return cl.RecordedEvent{}, true, nil
}

// EnqueueCommandBuffer replays a finalized recording: every recorded
// command is enqueued in order (the in-order queue preserves intra-graph
// edges), after applying updates to the mutable slots. The returned
// event is a marker gated on every replayed command's event, so it
// completes — or fails — with the whole iteration.
func (q *Queue) EnqueueCommandBuffer(b cl.CommandBuffer, updates []cl.CommandUpdate, wait []cl.Event) (cl.Event, error) {
	cb, ok := b.(*CommandBuffer)
	if !ok {
		return nil, cl.Errf(cl.InvalidCommandBuffer, "foreign command buffer")
	}
	if cb.q != q {
		return nil, cl.Errf(cl.InvalidCommandBuffer, "command buffer was recorded on a different queue")
	}
	q.mu.Lock()
	recording := q.rec != nil
	q.mu.Unlock()
	if recording {
		return nil, cl.Errf(cl.InvalidOperation, "cannot replay a command buffer while recording")
	}
	cb.mu.Lock()
	defer cb.mu.Unlock()
	if cb.released {
		return nil, cl.Errf(cl.InvalidCommandBuffer, "command buffer released")
	}
	for _, u := range updates {
		if err := cb.applyUpdateLocked(u); err != nil {
			return nil, err
		}
	}
	evs := make([]cl.Event, 0, len(cb.cmds))
	for i, c := range cb.cmds {
		var waits []cl.Event
		if i == 0 {
			waits = wait
		}
		ev, err := q.replayCmd(c, waits)
		if err != nil {
			return nil, err
		}
		evs = append(evs, ev)
	}
	return q.enqueue(evs, nil)
}

// applyUpdateLocked patches one mutable slot, replacing (not mutating)
// the slot's backing value so in-flight replays keep what they captured.
func (cb *CommandBuffer) applyUpdateLocked(u cl.CommandUpdate) error {
	if u.Command < 0 || u.Command >= len(cb.cmds) {
		return cl.Errf(cl.InvalidCommandBuffer, "update targets command %d of %d", u.Command, len(cb.cmds))
	}
	c := cb.cmds[u.Command]
	switch u.Kind {
	case cl.UpdateKernelArg:
		if c.op != opKernel {
			return cl.Errf(cl.InvalidCommandBuffer, "command %d is not a kernel launch", u.Command)
		}
		nk := c.k.Clone()
		if err := nk.SetArg(u.ArgIndex, u.ArgValue); err != nil {
			return err
		}
		c.k = nk
	case cl.UpdateWriteData:
		if c.op != opWrite {
			return cl.Errf(cl.InvalidCommandBuffer, "command %d is not a write", u.Command)
		}
		if len(u.Data) != c.size {
			return cl.Errf(cl.InvalidValue, "write update of %d bytes, recorded size %d", len(u.Data), c.size)
		}
		c.payload = append([]byte(nil), u.Data...)
	case cl.UpdateReadDst:
		if c.op != opRead {
			return cl.Errf(cl.InvalidCommandBuffer, "command %d is not a read", u.Command)
		}
		if len(u.Data) != c.size {
			return cl.Errf(cl.InvalidValue, "read update of %d bytes, recorded size %d", len(u.Data), c.size)
		}
		c.rdst = u.Data
	default:
		return cl.Errf(cl.InvalidValue, "unknown update kind %d", u.Kind)
	}
	return nil
}

// replayCmd enqueues one recorded command.
func (q *Queue) replayCmd(c *graphCmd, waits []cl.Event) (cl.Event, error) {
	switch c.op {
	case opWrite:
		return q.EnqueueWriteBuffer(c.buf, false, c.offset, c.payload, waits)
	case opRead:
		return q.EnqueueReadBuffer(c.buf, false, c.offset, c.rdst, waits)
	case opCopy:
		return q.EnqueueCopyBuffer(c.src, c.dst, c.offset, c.dstOff, c.size, waits)
	case opKernel:
		return q.EnqueueNDRangeKernelWithOffset(c.k, c.goffset, c.global, c.local, waits)
	case opMarker, opBarrier:
		return q.enqueue(waits, nil)
	}
	return nil, cl.Errf(cl.InvalidCommandBuffer, "unknown recorded op %d", c.op)
}

// EnqueueMarkerAfter enqueues a marker gated on the given events: it
// completes once all of them have completed and fails if any failed.
// The daemon uses it as the completion event of a replayed iteration.
func (q *Queue) EnqueueMarkerAfter(waits []cl.Event) (cl.Event, error) {
	return q.enqueue(waits, nil)
}

// Clone returns an independent kernel sharing the compiled function but
// with a private copy of the argument bindings: recording snapshots
// arguments at record time without pinning the original kernel object.
func (k *Kernel) Clone() *Kernel {
	k.mu.Lock()
	defer k.mu.Unlock()
	args := make([]kernelArg, len(k.args))
	copy(args, k.args)
	return &Kernel{prog: k.prog, fn: k.fn, args: args}
}
