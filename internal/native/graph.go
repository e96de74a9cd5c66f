package native

import (
	"sync"

	"dopencl/internal/cl"
)

// Command-graph recording for the native runtime: the single-node
// implementation of cl.Queue.BeginRecording / Finalize /
// EnqueueCommandBuffer, so recorded host code runs unchanged locally and
// distributed. A recording is a list of Command values, the same
// resolved command every Enqueue* call submits, and a replay puts each on
// the queue through EnqueueCommand — as the daemon does for the graphs it
// caches, which obey the same update rule (UpdateSlot, UpdateArg).

// CommandBuffer is the native finalized recording. Its mutable slots (a
// write's or read's Host, a launch's kernel clone) are replaced, never
// mutated in place, so a replay already enqueued keeps the values it was
// fired with.
type CommandBuffer struct {
	q *Queue

	mu       sync.Mutex
	cmds     []Command
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
	q.rec = []Command{}
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

// record appends cmd to the queue's recording and reports whether the
// queue was recording. A blocking call is refused: a recorded command
// does not run, so there is nothing to block on. The recording owns what
// it keeps: a write's source is copied, since the application may reuse
// its slice once the call returns, and a launch keeps a clone of its
// kernel, so later SetArg calls on the application's kernel do not leak
// into it (updates are the only way to change a replayed launch).
func (q *Queue) record(cmd *Command, blocking bool, wait []cl.Event) (bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.rec == nil {
		return false, nil
	}
	// Unset kernel arguments are refused at record time, not on replay.
	if _, err := q.check(cmd); err != nil {
		return true, err
	}
	if blocking {
		return true, cl.Errf(cl.InvalidOperation, "blocking transfer while recording")
	}
	if err := cl.CheckRecordedWaits(wait); err != nil {
		return true, err
	}
	c := *cmd
	if c.Op == OpWrite {
		c.Host = append([]byte(nil), c.Host...)
	}
	if c.Kernel != nil {
		c.Kernel = c.Kernel.Clone()
	}
	q.rec = append(q.rec, c)
	return true, nil
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
		if err := cb.applyLocked(u); err != nil {
			return nil, err
		}
	}
	evs := make([]cl.Event, 0, len(cb.cmds))
	for i := range cb.cmds {
		var waits []cl.Event
		if i == 0 {
			waits = wait
		}
		ev, err := q.EnqueueCommand(&cb.cmds[i], waits)
		if err != nil {
			return nil, err
		}
		evs = append(evs, ev)
	}
	return q.EnqueueCommand(&Command{Op: OpMarker}, evs)
}

// applyLocked patches one mutable slot.
func (cb *CommandBuffer) applyLocked(u cl.CommandUpdate) error {
	op := OpWrite
	switch u.Kind {
	case cl.UpdateKernelArg:
		return UpdateArg(cb.cmds, u.Command, func(k *Kernel) error { return k.SetArg(u.ArgIndex, u.ArgValue) })
	case cl.UpdateWriteData:
	case cl.UpdateReadDst:
		op = OpRead
	default:
		return cl.Errf(cl.InvalidValue, "unknown update kind %d", u.Kind)
	}
	c, err := UpdateSlot(cb.cmds, u.Command, op)
	if err != nil {
		return err
	}
	if len(u.Data) != c.Size {
		return cl.Errf(cl.InvalidValue, "%s update of %d bytes, recorded size %d", opNames[op], len(u.Data), c.Size)
	}
	if op == OpWrite {
		c.Host = append([]byte(nil), u.Data...)
	} else {
		c.Host = u.Data
	}
	return nil
}

// UpdateSlot is the rule every command-buffer update obeys, recorded here
// or cached on a daemon: it names one of the recorded commands, and that
// command is of the op the update patches. It returns the command.
func UpdateSlot(cmds []Command, i int, op Op) (*Command, error) {
	if i < 0 || i >= len(cmds) {
		return nil, cl.Errf(cl.InvalidCommandBuffer, "update targets command %d of %d", i, len(cmds))
	}
	if c := &cmds[i]; c.Op == op {
		return c, nil
	}
	return nil, cl.Errf(cl.InvalidCommandBuffer, "command %d is not a %s", i, opNames[op])
}

// UpdateArg applies a kernel-argument update to launch i of cmds: bind
// changes a clone of the launch's kernel, which replaces it, so a bind
// that fails leaves the launch as it was and no kernel a command was
// recorded or replayed with changes under it.
func UpdateArg(cmds []Command, i int, bind func(*Kernel) error) error {
	c, err := UpdateSlot(cmds, i, OpKernel)
	if err != nil {
		return err
	}
	k := c.Kernel.Clone()
	if err := bind(k); err != nil {
		return err
	}
	c.Kernel = k
	return nil
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
