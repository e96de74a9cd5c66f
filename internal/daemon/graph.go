package daemon

import (
	"io"

	"dopencl/internal/cl"
	"dopencl/internal/gcf"
	"dopencl/internal/native"
	"dopencl/internal/protocol"
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

// dGraphCmd is one cached command of a registered graph. Mutable slots
// are replaced, never mutated in place, so an already-enqueued replay
// keeps the values it was fired with.
type dGraphCmd struct {
	op uint8

	buf      cl.Buffer // write/read target
	src, dst cl.Buffer // copy endpoints
	offset   int
	dstOff   int
	size     int

	payload     []byte   // write payload (staged from the registration/update stream)
	payloadGate cl.Event // completes when the staged payload has fully landed

	k       *native.Kernel // private clone with the registered argument snapshot
	goffset []int          // global work offset (nil = zero)
	global  []int
	local   []int
}

// sessGraph is one cached graph.
type sessGraph struct {
	queueID   uint64
	q         *native.Queue
	cmds      []*dGraphCmd
	readCount int
	// delta: the registration negotiated delta-capable replay updates
	// (GraphPayloadDelta streams decoded against the cached payloads).
	delta bool
}

// stagePayload reads size bytes from the stream into a fresh slice off
// the dispatcher goroutine, returning the slice and a gate event that
// completes when the payload has fully landed (or fails if the transfer
// broke). Replayed writes of the slice wait on the gate.
func (s *session) stagePayload(streamID uint32, size int) ([]byte, cl.Event) {
	stream := s.ep.Stream(streamID)
	staged := make([]byte, size)
	gate := native.NewUserEvent()
	go func() {
		defer stream.Release()
		if _, err := io.ReadFull(stream, staged); err != nil {
			if serr := gate.SetStatus(cl.CommandStatus(cl.InvalidValue)); serr != nil {
				s.d.logf("daemon %s: graph payload gate: %v", s.d.cfg.Name, serr)
			}
			return
		}
		stream.WaitEOF()
		if serr := gate.SetStatus(cl.Complete); serr != nil {
			s.d.logf("daemon %s: graph payload gate: %v", s.d.cfg.Name, serr)
		}
	}()
	return staged, gate
}

// stageDeltaPayload reads a delta-encoded payload update from the stream
// and reconstructs the full payload against the command's current cached
// payload (the baseline the client encoded against — both sides retain
// the previous iteration's bytes on delta-negotiated graphs). The
// decoded result lands on a fresh slice: an earlier replay's enqueue may
// still be reading the baseline, and the baseline itself must stay
// intact until decoding finishes. When the baseline's own gate is still
// pending (pipelined updates, or an update chasing the registration
// upload), decoding waits for it off the dispatcher goroutine; a failed
// baseline fails this gate too, and with it every replay of the slot.
func (s *session) stageDeltaPayload(streamID uint32, encLen int, prev []byte, prevGate cl.Event, size int) ([]byte, cl.Event) {
	stream := s.ep.Stream(streamID)
	staged := make([]byte, size)
	gate := native.NewUserEvent()
	failGate := func(why string, err error) {
		s.d.logf("daemon %s: graph delta payload: %s: %v", s.d.cfg.Name, why, err)
		if serr := gate.SetStatus(cl.CommandStatus(cl.InvalidValue)); serr != nil {
			s.d.logf("daemon %s: graph payload gate: %v", s.d.cfg.Name, serr)
		}
	}
	go func() {
		defer stream.Release()
		enc := gcf.GetPayload(encLen)
		defer gcf.PutPayload(enc)
		if _, err := io.ReadFull(stream, enc); err != nil {
			failGate("stream", err)
			return
		}
		stream.WaitEOF()
		if prevGate != nil {
			if err := prevGate.Wait(); err != nil {
				failGate("baseline never landed", err)
				return
			}
		}
		if err := protocol.ApplyDelta(staged, prev, enc); err != nil {
			failGate("decode", err)
			return
		}
		if serr := gate.SetStatus(cl.Complete); serr != nil {
			s.d.logf("daemon %s: graph payload gate: %v", s.d.cfg.Name, serr)
		}
	}()
	return staged, gate
}

// applyGraphArgs binds a registered argument snapshot to a kernel clone.
func (s *session) applyGraphArgs(k *native.Kernel, args []protocol.GraphKernelArg) error {
	if len(args) != k.NumArgs() {
		return cl.Errf(cl.InvalidKernelArgs, "graph kernel has %d arguments, snapshot has %d", k.NumArgs(), len(args))
	}
	for i, a := range args {
		if err := s.applyGraphArg(k, i, a); err != nil {
			return err
		}
	}
	return nil
}

// applyGraphArg binds one snapshot argument.
func (s *session) applyGraphArg(k *native.Kernel, i int, a protocol.GraphKernelArg) error {
	switch a.Kind {
	case protocol.ArgValScalar:
		return k.SetRawArg(i, a.Raw)
	case protocol.ArgValBuffer:
		s.mu.Lock()
		buf := s.buffers[a.Raw]
		s.mu.Unlock()
		if buf == nil {
			return cl.Errf(cl.InvalidMemObject, "graph kernel argument %d: unknown buffer %d", i, a.Raw)
		}
		return k.SetArg(i, buf)
	case protocol.ArgValSubBuffer:
		s.mu.Lock()
		buf := s.buffers[a.Raw]
		s.mu.Unlock()
		if buf == nil {
			return cl.Errf(cl.InvalidMemObject, "graph kernel argument %d: unknown buffer %d", i, a.Raw)
		}
		sub, err := subBufferView(buf, int(a.SubOrg), int(a.SubLen))
		if err != nil {
			return err
		}
		return k.SetArg(i, sub)
	case protocol.ArgValLocal:
		return k.SetArg(i, cl.LocalSpace{Size: int(a.Local)})
	}
	return cl.Errf(cl.InvalidValue, "graph kernel argument %d: bad kind %d", i, a.Kind)
}

// graphBuffer resolves and bounds-checks a buffer reference of a graph
// command (overflow-safe, as everywhere wire-supplied sizes are used).
func (s *session) graphBuffer(bufID uint64, offset, size int) (cl.Buffer, error) {
	s.mu.Lock()
	buf := s.buffers[bufID]
	s.mu.Unlock()
	if buf == nil {
		return nil, cl.Errf(cl.InvalidMemObject, "unknown buffer %d", bufID)
	}
	if size < 0 || offset < 0 || size > buf.Size() || offset > buf.Size()-size {
		return nil, cl.Errf(cl.InvalidValue, "malformed graph command (offset %d size %d)", offset, size)
	}
	return buf, nil
}

// handleRegisterGraph validates and caches a client graph registration.
// One-way: failures are deferred to the queue's next Finish; later
// replays of the unregistered graph fail their own events.
func (s *session) handleRegisterGraph(r *protocol.Reader) {
	g := protocol.GetRegisterGraph(r)
	if r.Err() != nil {
		s.badFrame(protocol.MsgRegisterGraph)
		return
	}
	// Streams not yet claimed by a staged payload must be drained on
	// failure: the client pipelines the payloads behind the registration
	// frame regardless of its outcome.
	claimed := 0
	failReg := func(err error) {
		for _, c := range g.Commands[claimed:] {
			if c.Op == protocol.GraphOpWrite {
				s.drainStream(c.StreamID)
			}
		}
		s.notifyCommandFailed(g.QueueID, 0, protocol.MsgRegisterGraph, err)
	}
	s.mu.Lock()
	q := s.queues[g.QueueID]
	dup := s.graphs[g.GraphID] != nil
	s.mu.Unlock()
	if q == nil {
		failReg(cl.Errf(cl.InvalidCommandQueue, "unknown queue %d", g.QueueID))
		return
	}
	if dup {
		failReg(cl.Errf(cl.InvalidValue, "graph %d already registered", g.GraphID))
		return
	}
	nq, ok := q.(*native.Queue)
	if !ok {
		failReg(cl.Errf(cl.InvalidOperation, "graph replay requires the native runtime"))
		return
	}
	if len(g.Commands) == 0 {
		failReg(cl.Errf(cl.InvalidValue, "empty graph"))
		return
	}
	sg := &sessGraph{queueID: g.QueueID, q: nq, cmds: make([]*dGraphCmd, 0, len(g.Commands)), delta: g.DeltaReplay}
	seenStreams := map[uint32]bool{}
	for i, c := range g.Commands {
		cmd := &dGraphCmd{op: c.Op}
		switch c.Op {
		case protocol.GraphOpWrite:
			buf, err := s.graphBuffer(c.BufID, int(c.Offset), int(c.Size))
			if err != nil {
				failReg(err)
				return
			}
			// A zero or duplicated payload stream would park the staging
			// read forever and wedge every replay behind its gate —
			// reject the registration instead.
			if c.StreamID == 0 || seenStreams[c.StreamID] {
				failReg(cl.Errf(cl.InvalidValue, "graph write %d has invalid payload stream %d", i, c.StreamID))
				return
			}
			seenStreams[c.StreamID] = true
			cmd.buf, cmd.offset, cmd.size = buf, int(c.Offset), int(c.Size)
			cmd.payload, cmd.payloadGate = s.stagePayload(c.StreamID, cmd.size)
			claimed = i + 1
		case protocol.GraphOpRead:
			buf, err := s.graphBuffer(c.BufID, int(c.Offset), int(c.Size))
			if err != nil {
				failReg(err)
				return
			}
			cmd.buf, cmd.offset, cmd.size = buf, int(c.Offset), int(c.Size)
			sg.readCount++
		case protocol.GraphOpCopy:
			src, err := s.graphBuffer(c.SrcID, int(c.Offset), int(c.Size))
			if err != nil {
				failReg(err)
				return
			}
			dst, err := s.graphBuffer(c.DstID, int(c.DstOff), int(c.Size))
			if err != nil {
				failReg(err)
				return
			}
			cmd.src, cmd.dst = src, dst
			cmd.offset, cmd.dstOff, cmd.size = int(c.Offset), int(c.DstOff), int(c.Size)
		case protocol.GraphOpKernel:
			s.mu.Lock()
			k := s.kernels[c.KernelID]
			s.mu.Unlock()
			if k == nil {
				failReg(cl.Errf(cl.InvalidKernel, "unknown kernel %d", c.KernelID))
				return
			}
			nk, ok := k.(*native.Kernel)
			if !ok {
				failReg(cl.Errf(cl.InvalidOperation, "graph replay requires the native runtime"))
				return
			}
			// The clone freezes the registered snapshot without pinning
			// the session kernel: eager SetKernelArg calls and graph
			// replays cannot clobber each other's bindings.
			cmd.k = nk.Clone()
			if err := s.applyGraphArgs(cmd.k, c.Args); err != nil {
				failReg(err)
				return
			}
			cmd.global = c.Global
			cmd.local = c.Local
			cmd.goffset = c.GOffset
			if len(cmd.local) == 0 {
				cmd.local = nil
			}
			if len(cmd.goffset) == 0 {
				cmd.goffset = nil
			}
		case protocol.GraphOpMarker, protocol.GraphOpBarrier:
		default:
			failReg(cl.Errf(cl.InvalidValue, "unknown graph op %d", c.Op))
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
func (s *session) handleExecGraph(r *protocol.Reader) {
	e := protocol.GetExecGraph(r)
	if r.Err() != nil {
		s.badFrame(protocol.MsgExecGraph)
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
			st := s.ep.Stream(id)
			if cerr := st.CloseWrite(); cerr != nil {
				s.d.logf("daemon %s: graph read stream close: %v", s.d.cfg.Name, cerr)
			}
			st.Release()
		}
		for _, u := range e.Updates[updsTaken:] {
			if u.Kind == protocol.GraphUpdateWriteData {
				s.drainStream(u.StreamID)
			}
		}
		s.notifyCommandFailed(e.QueueID, e.EventID, protocol.MsgExecGraph, err)
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
		ev, cerr := s.replayGraphCmd(g, cmd, w, e.ReadStreamIDs, &handed)
		if cerr != nil {
			failExec(cerr)
			return
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
		s.notifyCommandFailed(queueID, 0, protocol.MsgExecGraph,
			cl.Errf(cl.ErrorCode(st), "graph %d replay failed", e.GraphID))
	}); cbErr != nil {
		s.d.logf("daemon %s: graph marker callback: %v", s.d.cfg.Name, cbErr)
	}
}

// replayGraphCmd enqueues one cached command on the graph's queue.
func (s *session) replayGraphCmd(g *sessGraph, cmd *dGraphCmd, w []cl.Event, readStreams []uint32, handed *int) (cl.Event, error) {
	switch cmd.op {
	case protocol.GraphOpWrite:
		// Every replay gates on the payload having landed: the first on
		// the registration stream, later ones on the newest update.
		if cmd.payloadGate != nil {
			w = append(append([]cl.Event(nil), w...), cmd.payloadGate)
		}
		return g.q.EnqueueWriteBuffer(cmd.buf, false, cmd.offset, cmd.payload, w)
	case protocol.GraphOpRead:
		// Pooled staging + zero-copy ship-out, as on the eager read path:
		// replayed reads are the per-iteration hot path, so the staging
		// block cycles through the payload pool instead of the allocator.
		staged := gcf.GetPayload(cmd.size)
		ev, err := g.q.EnqueueReadBuffer(cmd.buf, false, cmd.offset, staged, w)
		if err != nil {
			gcf.PutPayload(staged)
			return nil, err
		}
		stream := s.ep.Stream(readStreams[*handed])
		*handed++
		if cbErr := ev.SetCallback(cl.Complete, func(_ cl.Event, st cl.CommandStatus) {
			if st == cl.Complete {
				if werr := stream.WriteOwned(staged, func() { gcf.PutPayload(staged) }); werr != nil {
					s.d.logf("daemon %s: graph read-back write: %v", s.d.cfg.Name, werr)
				}
			} else {
				gcf.PutPayload(staged)
			}
			if cerr := stream.CloseWrite(); cerr != nil {
				s.d.logf("daemon %s: graph read-back close: %v", s.d.cfg.Name, cerr)
			}
			stream.Release()
		}); cbErr != nil {
			return nil, cbErr
		}
		return ev, nil
	case protocol.GraphOpCopy:
		return g.q.EnqueueCopyBuffer(cmd.src, cmd.dst, cmd.offset, cmd.dstOff, cmd.size, w)
	case protocol.GraphOpKernel:
		return g.q.EnqueueNDRangeKernelWithOffset(cmd.k, cmd.goffset, cmd.global, cmd.local, w)
	case protocol.GraphOpMarker, protocol.GraphOpBarrier:
		return g.q.EnqueueMarkerAfter(w)
	}
	return nil, cl.Errf(cl.InvalidValue, "unknown graph op %d", cmd.op)
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
	cmd := g.cmds[u.Cmd]
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
		if err := s.applyGraphArg(nk, int(u.ArgIndex), u.Arg); err != nil {
			return err
		}
		cmd.k = nk
	case protocol.GraphUpdateWriteData:
		if cmd.op != protocol.GraphOpWrite {
			// The announced payload stream must still be consumed.
			s.drainStream(u.StreamID)
			return cl.Errf(cl.InvalidCommandBuffer, "command %d is not a write", u.Cmd)
		}
		if u.StreamID == 0 {
			// Staging a phantom stream would wedge every later replay
			// behind a gate that never completes.
			return cl.Errf(cl.InvalidValue, "write update for command %d has no payload stream", u.Cmd)
		}
		switch u.Encoding {
		case protocol.GraphPayloadFull:
			if u.PayloadLen != 0 && int(u.PayloadLen) != cmd.size {
				s.drainStream(u.StreamID)
				return cl.Errf(cl.InvalidValue, "write update for command %d announces %d bytes, recorded size %d", u.Cmd, u.PayloadLen, cmd.size)
			}
			cmd.payload, cmd.payloadGate = s.stagePayload(u.StreamID, cmd.size)
		case protocol.GraphPayloadDelta:
			if !g.delta {
				s.drainStream(u.StreamID)
				return cl.Errf(cl.InvalidValue, "delta update for command %d on a graph registered without delta replay", u.Cmd)
			}
			cmd.payload, cmd.payloadGate = s.stageDeltaPayload(u.StreamID, int(u.PayloadLen), cmd.payload, cmd.payloadGate, cmd.size)
		default:
			s.drainStream(u.StreamID)
			return cl.Errf(cl.InvalidValue, "write update for command %d has unknown payload encoding %d", u.Cmd, u.Encoding)
		}
	default:
		return cl.Errf(cl.InvalidValue, "unknown graph update kind %d", u.Kind)
	}
	return nil
}

// handleReleaseGraph drops a cached graph.
func (s *session) handleReleaseGraph(r *protocol.Reader) {
	graphID := r.U64()
	if r.Err() != nil {
		s.badFrame(protocol.MsgReleaseGraph)
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
