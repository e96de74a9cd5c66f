package daemon

import (
	"dopencl/internal/cl"
	"dopencl/internal/gcf"
	"dopencl/internal/native"
	"dopencl/internal/protocol"
	"dopencl/internal/rpc"
)

// Daemon-side command-graph cache and replay (MsgRegisterGraph /
// MsgExecGraph / MsgReleaseGraph): a client registers a finalized
// recording once per session; each MsgExecGraph frame then replays the
// whole iteration against the native runtime, so the client's link
// carries one small message per iteration instead of one per command.
// Graphs are session-scoped: the cache is torn down with the session,
// and replaying an unknown or released graph fails the iteration's
// event through the deferred MsgCommandFailed path instead of wedging
// the queue.

// sessGraph is one cached graph.
type sessGraph struct {
	queueID   uint64
	q         *native.Queue
	cmds      []command
	readCount int
}

// handleRegisterGraph validates and caches a client graph registration.
// One-way: failures are deferred to the queue's next Finish; later
// replays of the unregistered graph fail their own events.
func (s *session) handleRegisterGraph(c rpc.Call) {
	g := protocol.GetRegisterGraph(c.Body)
	if c.Malformed() {
		return
	}
	// Streams not yet claimed by a staged payload must be drained on
	// failure: the client pipelines the payloads behind the registration
	// frame regardless of its outcome.
	claimed := 0
	failReg := func(err error) {
		for _, unclaimed := range g.Commands[claimed:] {
			if unclaimed.Op == protocol.GraphOpWrite {
				s.drainStream(unclaimed.StreamID)
			}
		}
		s.fail(c, g.QueueID, 0, err)
	}
	s.mu.Lock()
	q, ok := s.queues[g.QueueID].(*native.Queue)
	dup := s.graphs[g.GraphID] != nil
	s.mu.Unlock()
	if !ok {
		failReg(cl.Errf(cl.InvalidCommandQueue, "unknown queue %d", g.QueueID))
		return
	}
	if dup {
		failReg(cl.Errf(cl.InvalidValue, "graph %d already registered", g.GraphID))
		return
	}
	if len(g.Commands) == 0 {
		failReg(cl.Errf(cl.InvalidValue, "empty graph"))
		return
	}
	sg := &sessGraph{queueID: g.QueueID, q: q, cmds: make([]command, 0, len(g.Commands))}
	seenStreams := map[uint32]bool{}
	for i, c := range g.Commands {
		cmd, err := s.resolve(c, true)
		switch {
		case err != nil:
		case c.Op == protocol.GraphOpRead:
			sg.readCount++
		case c.Op == protocol.GraphOpWrite && seenStreams[c.StreamID]:
			// A duplicated payload stream would park the second staging
			// read forever and wedge every replay behind its gate.
			err = cl.Errf(cl.InvalidValue, "graph write %d reuses payload stream %d", i, c.StreamID)
		case c.Op == protocol.GraphOpWrite:
			seenStreams[c.StreamID] = true
			if err = s.stageCached(&cmd, c.StreamID, -1); err == nil {
				claimed = i + 1
			}
		}
		if err != nil {
			failReg(err)
			return
		}
		sg.cmds = append(sg.cmds, cmd)
	}
	s.mu.Lock()
	s.graphs[g.GraphID] = sg
	s.mu.Unlock()
	s.d.graphCount.Add(1)
}

// handleExecGraph replays a cached graph: apply the frame's updates
// (persistently), then enqueue every command in order on the native
// queue. The iteration's completion event is a marker gated on all
// command events — it fails if any command failed — and read-back data
// ships on the frame's per-read streams.
func (s *session) handleExecGraph(c rpc.Call) {
	e := protocol.GetExecGraph(c.Body)
	if c.Malformed() {
		return
	}
	// Streams the client announced must never be left dangling: read
	// streams are closed empty so blocked receivers unblock, update
	// payload streams are drained. handed tracks read streams already
	// owned by an enqueued command's callback.
	handed := 0
	updsTaken := 0
	failExec := func(err error) {
		for _, id := range e.ReadStreamIDs[handed:] {
			s.closeStream(id)
		}
		for _, u := range e.Updates[updsTaken:] {
			if u.Kind == protocol.GraphUpdateWriteData {
				s.drainStream(u.StreamID)
			}
		}
		s.fail(c, e.QueueID, e.EventID, err)
	}
	s.mu.Lock()
	g := s.graphs[e.GraphID]
	s.mu.Unlock()
	if g == nil {
		failExec(cl.Errf(cl.InvalidCommandBuffer, "unknown or released graph %d", e.GraphID))
		return
	}
	if len(e.ReadStreamIDs) != g.readCount {
		failExec(cl.Errf(cl.InvalidValue, "graph %d has %d reads, %d streams announced", e.GraphID, g.readCount, len(e.ReadStreamIDs)))
		return
	}
	// Apply updates before anything is enqueued: a failed update must
	// not leave half an iteration running. applyGraphUpdate consumes the
	// update's payload stream on every path, so from here each processed
	// update is accounted for.
	for i, u := range e.Updates {
		updsTaken = i + 1
		if err := s.applyGraphUpdate(g, u); err != nil {
			failExec(err)
			return
		}
	}
	waits, err := s.resolveWaits(e.WaitIDs)
	if err != nil {
		failExec(err)
		return
	}
	evs := make([]cl.Event, 0, len(g.cmds)+1)
	for i := range g.cmds {
		cmd := &g.cmds[i]
		var w []cl.Event
		if i == 0 {
			w = waits
		}
		var readStream uint32
		if cmd.op == protocol.GraphOpRead {
			readStream = e.ReadStreamIDs[handed]
		}
		// A replayed write reads the payload current now, for as long as
		// it takes to run: updates behind it replace the block.
		payload := cmd.cached
		if payload != nil {
			payload.Hold()
		}
		ev, cerr := s.enqueue(g.q, cmd, w, readStream)
		if cerr != nil {
			if payload != nil {
				payload.Drop()
			}
			failExec(cerr)
			return
		}
		if payload != nil {
			if cbErr := ev.SetCallback(cl.Complete, func(cl.Event, cl.CommandStatus) { payload.Drop() }); cbErr != nil {
				s.d.logf("daemon %s: graph write callback: %v", s.d.cfg.Name, cbErr)
			}
		}
		if cmd.op == protocol.GraphOpRead {
			handed++
		}
		evs = append(evs, ev)
	}
	marker, err := g.q.EnqueueMarkerAfter(evs)
	if err != nil {
		failExec(err)
		return
	}
	s.registerEvent(e.EventID, marker)
	// A failed iteration must also surface at the queue's next Finish
	// (the event notification above only reaches waiters of this event).
	queueID := e.QueueID
	if cbErr := marker.SetCallback(cl.Complete, func(_ cl.Event, st cl.CommandStatus) {
		if st == cl.Complete {
			return
		}
		s.fail(c, queueID, 0, cl.Errf(cl.ErrorCode(st), "graph %d replay failed", e.GraphID))
	}); cbErr != nil {
		s.d.logf("daemon %s: graph marker callback: %v", s.d.cfg.Name, cbErr)
	}
}

// applyGraphUpdate patches one mutable slot of a cached graph. Updates
// are persistent (the cache mutates), mirroring the client's plan.
func (s *session) applyGraphUpdate(g *sessGraph, u protocol.GraphUpdate) error {
	if int(u.Cmd) >= len(g.cmds) {
		if u.Kind == protocol.GraphUpdateWriteData {
			s.drainStream(u.StreamID)
		}
		return cl.Errf(cl.InvalidCommandBuffer, "update targets command %d of %d", u.Cmd, len(g.cmds))
	}
	cmd := &g.cmds[u.Cmd]
	switch u.Kind {
	case protocol.GraphUpdateKernelArg:
		if cmd.op != protocol.GraphOpKernel {
			return cl.Errf(cl.InvalidCommandBuffer, "command %d is not a kernel launch", u.Cmd)
		}
		// Clone-on-update: an earlier replay this session already
		// snapshotted its arguments at enqueue time, so mutating a fresh
		// clone is safe and keeps the old clone's bindings intact for
		// any not-yet-enqueued use.
		nk := cmd.k.Clone()
		if err := s.bindArg(nk, int(u.ArgIndex), u.Arg); err != nil {
			return err
		}
		cmd.k = nk
	case protocol.GraphUpdateWriteData:
		// The announced payload stream must be consumed on every path.
		fail := func(err error) error {
			s.drainStream(u.StreamID)
			return err
		}
		if cmd.op != protocol.GraphOpWrite {
			return fail(cl.Errf(cl.InvalidCommandBuffer, "command %d is not a write", u.Cmd))
		}
		switch u.Encoding {
		case protocol.GraphPayloadFull:
			if u.PayloadLen != 0 && int(u.PayloadLen) != cmd.size {
				return fail(cl.Errf(cl.InvalidValue, "write update for command %d announces %d bytes, recorded size %d", u.Cmd, u.PayloadLen, cmd.size))
			}
			return s.stageCached(cmd, u.StreamID, -1)
		case protocol.GraphPayloadDelta:
			// A delta is never longer than the payload it encodes (the
			// client ships the full payload instead), which also bounds
			// the staging allocation by something the session owns.
			if int(u.PayloadLen) > cmd.size {
				return fail(cl.Errf(cl.InvalidValue, "delta update for command %d announces %d bytes, recorded size %d", u.Cmd, u.PayloadLen, cmd.size))
			}
			return s.stageCached(cmd, u.StreamID, int(u.PayloadLen))
		default:
			return fail(cl.Errf(cl.InvalidValue, "write update for command %d has unknown payload encoding %d", u.Cmd, u.Encoding))
		}
	default:
		return cl.Errf(cl.InvalidValue, "unknown graph update kind %d", u.Kind)
	}
	return nil
}

// stageCached gives a cached write command a new payload block and
// starts filling it from the stream: with the payload itself, or with a
// delta of deltaLen bytes (when that is not negative) against the block
// it replaces. Either way the bytes land on a block of their own — an
// earlier replay's write may still be reading the old one — and every
// block goes back to the pool when its last holder lets go: the graph
// once the block is replaced, the staging that fills it, the replayed
// writes that read it (handleExecGraph) and the decoding of the delta
// that replaces it.
func (s *session) stageCached(cmd *command, streamID uint32, deltaLen int) error {
	next := gcf.NewSharedPayload(cmd.size)
	next.Hold() // the staging goroutine's
	dst, landed := next.Data, func(err error) error {
		next.Drop()
		return err
	}
	if deltaLen >= 0 {
		// Reconstruct against the current cached payload — the baseline
		// the client encoded against; both sides retain the previous
		// iteration's bytes. The baseline's own gate may still be pending
		// (pipelined updates, or an update chasing the registration
		// upload): decoding waits for it on the staging goroutine, and a
		// failed baseline fails this gate too, and with it every replay of
		// the slot.
		delta, prev, prevGate := gcf.GetPayload(deltaLen), cmd.cached, cmd.payloadGate
		prev.Hold()
		dst, landed = delta, func(err error) error {
			if err == nil {
				err = prevGate.Wait()
			}
			if err == nil {
				err = protocol.ApplyDelta(next.Data, prev.Data, delta)
			}
			gcf.PutPayload(delta)
			prev.Drop()
			next.Drop()
			return err
		}
	}
	gate, err := s.stage(streamID, dst, landed)
	if err != nil {
		// Nothing was started: release what landed would have, and the
		// graph's hold on a block it never got.
		_ = landed(err)
		next.Drop()
		return err
	}
	if cmd.cached != nil {
		cmd.cached.Drop()
	}
	cmd.cached, cmd.payload, cmd.payloadGate = next, next.Data, gate
	return nil
}

// handleReleaseGraph drops a cached graph.
func (s *session) handleReleaseGraph(c rpc.Call) {
	graphID := c.Body.U64()
	if c.Malformed() {
		return
	}
	s.mu.Lock()
	_, ok := s.graphs[graphID]
	delete(s.graphs, graphID)
	s.mu.Unlock()
	if ok {
		s.d.graphCount.Add(-1)
	}
}

// releaseGraphs drops every cached graph of the session (teardown).
func (s *session) releaseGraphs() {
	s.mu.Lock()
	n := len(s.graphs)
	s.graphs = map[uint64]*sessGraph{}
	s.mu.Unlock()
	if n > 0 {
		s.d.graphCount.Add(-int64(n))
	}
}
