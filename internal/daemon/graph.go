package daemon

import (
	"fmt"

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
// event in a deferred MsgCompleted instead of wedging the queue. So does
// a replay that fails while running, and the one notice also reports it
// at the queue's next Finish.

// sessGraph is one cached graph: its resolved commands and, by the same
// index, each write's payload, whose block it holds until the payload is
// replaced or the graph dropped.
type sessGraph struct {
	queueID   uint64
	q         *native.Queue
	cmds      []native.Command
	payloads  []payload
	readCount int
	failed    string // what a failed replay reports at the queue's Finish
}

// drop lets go of the graph's hold on each cached payload block. A replay
// still running holds the blocks it reads.
func (g *sessGraph) drop() {
	for _, p := range g.payloads {
		if p.block != nil {
			p.block.Drop()
		}
	}
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
	sg := &sessGraph{queueID: g.QueueID, payloads: make([]payload, len(g.Commands))}
	failReg := func(err error) {
		for _, unclaimed := range g.Commands[claimed:] {
			if unclaimed.Op == protocol.GraphOpWrite {
				s.drainStream(unclaimed.StreamID)
			}
		}
		sg.drop()
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
	sg.q, sg.cmds = q, make([]native.Command, 0, len(g.Commands))
	sg.failed = fmt.Sprintf("graph %d replay failed", g.GraphID)
	seenStreams := map[uint32]bool{}
	for i, c := range g.Commands {
		cmd, err := s.resolve(c, true)
		switch {
		case err != nil:
		case cmd.Op == native.OpRead:
			sg.readCount++
		case cmd.Op == native.OpWrite && seenStreams[c.StreamID]:
			// A duplicated payload stream would park the second staging
			// read forever and wedge every replay behind its gate.
			err = cl.Errf(cl.InvalidValue, "graph write %d reuses payload stream %d", i, c.StreamID)
		case cmd.Op == native.OpWrite:
			seenStreams[c.StreamID] = true
			if err = s.stageCached(&sg.payloads[i], cmd.Size, c.StreamID, -1); err == nil {
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
	for i, cmd := range g.cmds {
		var w []cl.Event
		if i == 0 {
			w = waits
		}
		read := cmd.Op == native.OpRead
		var readStream uint32
		if read {
			readStream = e.ReadStreamIDs[handed]
		}
		// A replayed write reads the payload current now, for as long as
		// it takes to run: updates behind it replace the block.
		ev, cerr := s.enqueue(g.q, cmd, g.payloads[i], w, readStream)
		if cerr != nil {
			failExec(cerr)
			return
		}
		if read {
			handed++
		}
		evs = append(evs, ev)
	}
	marker, err := g.q.EnqueueCommand(&native.Command{Op: native.OpMarker}, evs)
	if err != nil {
		failExec(err)
		return
	}
	// A failed iteration fails its event and surfaces at the queue's next
	// Finish too: one notice says both.
	s.registerEvent(e.EventID, marker, protocol.Completion{QueueID: e.QueueID, Op: c.Type, Msg: g.failed})
}

// applyGraphUpdate patches one mutable slot of a cached graph. Updates
// are persistent (the cache mutates), mirroring the client's plan.
func (s *session) applyGraphUpdate(g *sessGraph, u protocol.GraphUpdate) error {
	i := int(u.Cmd)
	switch u.Kind {
	case protocol.GraphUpdateKernelArg:
		return native.UpdateArg(g.cmds, i, func(k *native.Kernel) error { return s.bindArg(k, int(u.ArgIndex), u.Arg) })
	case protocol.GraphUpdateWriteData:
		cmd, err := native.UpdateSlot(g.cmds, i, native.OpWrite)
		deltaLen := -1
		switch {
		case err != nil:
		case u.Encoding == protocol.GraphPayloadFull:
			if u.PayloadLen != 0 && int(u.PayloadLen) != cmd.Size {
				err = cl.Errf(cl.InvalidValue, "write update for command %d announces %d bytes, recorded size %d", u.Cmd, u.PayloadLen, cmd.Size)
			}
		case u.Encoding == protocol.GraphPayloadDelta:
			// A delta is never longer than the payload it encodes (the
			// client ships the full payload instead), which also bounds
			// the staging allocation by something the session owns.
			if deltaLen = int(u.PayloadLen); deltaLen > cmd.Size {
				err = cl.Errf(cl.InvalidValue, "delta update for command %d announces %d bytes, recorded size %d", u.Cmd, u.PayloadLen, cmd.Size)
			}
		default:
			err = cl.Errf(cl.InvalidValue, "write update for command %d has unknown payload encoding %d", u.Cmd, u.Encoding)
		}
		if err != nil {
			// The announced payload stream must be consumed on every path.
			s.drainStream(u.StreamID)
			return err
		}
		return s.stageCached(&g.payloads[i], cmd.Size, u.StreamID, deltaLen)
	}
	return cl.Errf(cl.InvalidValue, "unknown graph update kind %d", u.Kind)
}

// stageCached gives a cached write's payload p a new block of size bytes
// and starts filling it from the stream: with the payload itself, or with
// a delta of deltaLen bytes (when that is not negative) against the block
// it replaces. Either way the bytes land on a block of their own — an
// earlier replay's write may still be reading the old one — and every
// block goes back to the pool when its last holder lets go: the graph
// once the block is replaced, the staging that fills it, the replayed
// writes that read it (session.enqueue) and the decoding of the delta
// that replaces it.
func (s *session) stageCached(p *payload, size int, streamID uint32, deltaLen int) error {
	next := gcf.NewSharedPayload(size)
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
		delta, prev, prevGate := gcf.GetPayload(deltaLen), p.block, p.gate
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
	if p.block != nil {
		p.block.Drop()
	}
	*p = payload{block: next, gate: gate}
	return nil
}

// handleReleaseGraph drops a cached graph.
func (s *session) handleReleaseGraph(c rpc.Call) {
	graphID := c.Body.U64()
	if c.Malformed() {
		return
	}
	s.mu.Lock()
	g := s.graphs[graphID]
	delete(s.graphs, graphID)
	s.mu.Unlock()
	if g != nil {
		g.drop()
		s.d.graphCount.Add(-1)
	}
}

// releaseGraphs drops every cached graph of the session (teardown).
func (s *session) releaseGraphs() {
	s.mu.Lock()
	graphs := s.graphs
	s.graphs = map[uint64]*sessGraph{}
	s.mu.Unlock()
	for _, g := range graphs {
		g.drop()
	}
	s.d.graphCount.Add(-int64(len(graphs)))
}
