package client

import (
	"io"
	"sync"

	"dopencl/internal/cl"
	"dopencl/internal/gcf"
	"dopencl/internal/protocol"
)

// Recorded command graphs (cl.CommandBuffer): the client captures a
// queue's steady-state iteration once, compiles it into a per-server
// execution plan and registers it with the daemon owning the queue
// (MsgRegisterGraph). Each replay is then a single MsgExecGraph frame —
// one small message per involved daemon per iteration instead of one
// message per command — with the replay's completion and any failure in
// one deferred MsgCompleted (the daemon reports a failed replay at the
// queue's next Finish too) and input coherence (including cross-daemon
// transfers) on the forward path.

// record captures c when the queue is recording; the bool result reports
// whether it was (the caller then returns (ev, err) instead of sending
// the command). A recorded command never executes, so a blocking
// transfer is an error and wait lists may only name recorded events.
func (q *Queue) record(c *recCmd, blocking bool, wait []cl.Event) (cl.Event, bool, error) {
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
	// The recording outlives the call: the application may reuse its
	// payload and dimension slices afterwards (a read's destination is
	// the application's by contract), and updates patch the argument
	// snapshot in place.
	rec := *c
	if c.op == protocol.GraphOpWrite {
		rec.payload, rec.data = clonePayload(c.data), nil
	}
	rec.args = append([]protocol.GraphKernelArg(nil), c.args...)
	rec.argBufs = append([]*Buffer(nil), c.argBufs...)
	rec.goffset = append([]int(nil), c.goffset...)
	rec.global = append([]int(nil), c.global...)
	rec.local = append([]int(nil), c.local...)
	q.rec = append(q.rec, &rec)
	return cl.RecordedEvent{}, true, nil
}

// BeginRecording switches the queue into recording mode.
func (q *Queue) BeginRecording() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.rec != nil {
		return cl.Errf(cl.InvalidOperation, "queue is already recording")
	}
	q.rec = []*recCmd{}
	return nil
}

// CommandBuffer is the client-side finalized recording: the recorded
// command list plus the compiled coherence footprint, mirrored by a
// cached graph in the owning daemon's session.
//
// Registration is per-daemon and lazy: the graph registers with the
// daemon owning the queue it replays on, re-registering when the target
// moves to a different queue, when the daemon lost its cached copy (a
// re-attach without session retention bumps the server's epoch) or when
// replays on another daemon updated the plan since. That is
// what lets a replay loop survive a daemon failure — the next
// EnqueueCommandBuffer on a surviving (or re-attached) queue rebuilds
// the daemon-side cache from the recording and carries on.
type CommandBuffer struct {
	id uint64 // graph ID, shared with the daemon's cache

	mu       sync.Mutex
	q        *Queue // current replay target
	cmds     []*recCmd
	inputs   []span               // ranges that must be valid on the server at entry
	outputs  []span               // ranges the graph writes (Modified after a replay)
	readIdx  []int                // indices of read commands, stream order
	reg      map[*Server]graphReg // where (and against which daemon state) the graph is registered
	version  uint64               // replays that carried updates so far: what a registration must match
	released bool
}

// graphReg records one daemon-side registration of the graph.
type graphReg struct {
	epoch uint64 // server epoch at registration: whether the daemon may still cache it
	// conn is the connection generation the registration was sent on.
	// MsgRegisterGraph is a one-way frame: it can die with the connection
	// even when the daemon retains the session, so a registration is only
	// trusted on the connection that carried it.
	conn    uint64
	queueID uint64 // daemon queue the graph was registered against
	// version is the plan version the daemon's copy reflects. Updates are
	// persistent in the plan but travel only to the daemon their replay
	// runs on; every other registration falls behind and is rebuilt from
	// the plan before it is replayed again.
	version uint64
}

var _ cl.CommandBuffer = (*CommandBuffer)(nil)

// NumCommands returns the number of recorded commands.
func (cb *CommandBuffer) NumCommands() int {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	return len(cb.cmds)
}

// Release drops the recording and every daemon-side cached copy still
// current (a daemon that lost its session state already dropped its
// copy; a dead one cannot be told).
func (cb *CommandBuffer) Release() error {
	cb.mu.Lock()
	if cb.released {
		cb.mu.Unlock()
		return nil
	}
	cb.released = true
	cb.cmds = nil
	regs := cb.reg
	cb.reg = map[*Server]graphReg{}
	cb.mu.Unlock()
	var first error
	for srv, reg := range regs {
		if !srv.Connected() || reg.epoch != srv.Epoch() {
			continue
		}
		if err := srv.send(protocol.MsgReleaseGraph, func(w *protocol.Writer) {
			w.U64(cb.id)
		}); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// compileLocked folds the commands' footprints (recCmd.footprint) into
// the graph's: inputs are the spans whose first access reads existing
// contents; outputs are the spans any command writes — so the
// per-iteration revalidation and the post-iteration invalidation are
// both region-granular, and a graph that writes only its own chunk of a
// shared buffer does not invalidate the other daemons' chunks. A span
// already produced by earlier commands of the same graph is not an input
// (later reads see graph-produced data). Resolved once at finalize and
// recomputed only when an update rebinds a kernel buffer argument.
func (cb *CommandBuffer) compileLocked() {
	cb.inputs = nil
	cb.outputs = nil
	cb.readIdx = nil
	written := map[*Buffer][]span{} // root → spans produced so far, in order
	// covered reports whether s is fully covered by the union of spans
	// the graph has already written to its root.
	covered := func(s span) bool {
		pos := s.off
		for pos < s.end {
			advanced := false
			for _, w := range written[s.root] {
				if w.off <= pos && pos < w.end {
					pos = w.end
					advanced = true
					break
				}
			}
			if !advanced {
				return false
			}
		}
		return true
	}
	addUnique := func(list []span, s span) []span {
		for _, e := range list {
			if e == s {
				return list
			}
		}
		return append(list, s)
	}
	addInput := func(s span) {
		if !covered(s) {
			cb.inputs = addUnique(cb.inputs, s)
		}
	}
	addOutput := func(s span) {
		written[s.root] = append(written[s.root], s)
		cb.outputs = addUnique(cb.outputs, s)
	}
	for i, c := range cb.cmds {
		c.footprint(addInput, addOutput)
		if c.op == protocol.GraphOpRead {
			cb.readIdx = append(cb.readIdx, i)
		}
	}
}

// clonePayload copies data into a pooled payload held once, by the plan.
func clonePayload(data []byte) *gcf.SharedPayload {
	p := gcf.NewSharedPayload(len(data))
	copy(p.Data, data)
	return p
}

// shipPayload sends data on st behind a frame that announced it and
// closes the stream; release runs once the transport is done with the
// bytes, on every path (gcf.Stream.WriteOwned) — the ownership rule of an
// eager write's upload (enqueueWriteInternal).
func shipPayload(st *gcf.Stream, data []byte, release func()) {
	defer st.Release()
	if err := st.WriteOwned(data, release); err != nil {
		return
	}
	_ = st.CloseWrite() // a dead connection fails the command on its own
}

// wireCommandsLocked builds the registration command list, opening one
// payload stream per write; payloads[i] is what the caller ships on
// streams[i] once the registration frame is on the wire.
func (cb *CommandBuffer) wireCommandsLocked(srv *Server) (wire []protocol.GraphCommand, streams []*gcf.Stream, payloads []*gcf.SharedPayload) {
	wire = make([]protocol.GraphCommand, len(cb.cmds))
	for i, c := range cb.cmds {
		if c.op != protocol.GraphOpWrite {
			wire[i] = c.wire(0)
			continue
		}
		stream := srv.openStream()
		wire[i] = c.wire(stream.ID())
		streams = append(streams, stream)
		payloads = append(payloads, c.payload)
	}
	return wire, streams, payloads
}

// Finalize ends recording, compiles the captured commands into a
// per-server execution plan and registers the graph with the daemon
// owning this queue. Registration is a one-way command: a daemon-side
// failure surfaces at the queue's next Finish, and every replay of the
// unregistered graph fails its completion event.
func (q *Queue) Finalize() (cl.CommandBuffer, error) {
	q.mu.Lock()
	cmds := q.rec
	q.rec = nil
	q.mu.Unlock()
	if cmds == nil {
		return nil, cl.Errf(cl.InvalidOperation, "queue is not recording")
	}
	if len(cmds) == 0 {
		return nil, cl.Errf(cl.InvalidValue, "empty recording")
	}
	cb := &CommandBuffer{q: q, id: q.ctx.plat.newID(), cmds: cmds, reg: map[*Server]graphReg{}}
	cb.mu.Lock()
	defer cb.mu.Unlock()
	cb.compileLocked()
	if err := cb.registerLocked(q); err != nil {
		return nil, err
	}
	return cb, nil
}

// registerLocked registers (or re-registers) the graph with the daemon
// owning q, shipping the recorded write payloads behind the registration
// frame; the daemon gates each replayed write on its payload having
// fully landed. When the daemon still caches an older registration of
// this graph against a different queue, that copy is released first so
// the two cannot diverge.
func (cb *CommandBuffer) registerLocked(q *Queue) error {
	srv := q.srv
	if old, ok := cb.reg[srv]; ok && old.epoch == srv.Epoch() {
		// The daemon may still cache the previous registration (same
		// epoch: its session state survived); drop it first — the daemon
		// rejects duplicate graph IDs, and both frames ride the same
		// ordered connection. Releasing a registration the daemon never
		// received (it died with its connection) is a logged no-op there.
		if err := srv.send(protocol.MsgReleaseGraph, func(w *protocol.Writer) {
			w.U64(cb.id)
		}); err != nil {
			return err
		}
	}
	wire, streams, payloads := cb.wireCommandsLocked(srv)
	if err := srv.send(protocol.MsgRegisterGraph, func(w *protocol.Writer) {
		protocol.PutRegisterGraph(w, protocol.RegisterGraph{GraphID: cb.id, QueueID: q.id, Commands: wire})
	}); err != nil {
		// The registration never left the client; the payload streams
		// will not be consumed by anyone.
		for _, st := range streams {
			st.Release()
		}
		return err
	}
	for i, st := range streams {
		// The plan may replace the payload while the upload is still
		// reading it.
		payloads[i].Hold()
		go shipPayload(st, payloads[i].Data, payloads[i].Drop)
	}
	cb.reg[srv] = graphReg{epoch: srv.Epoch(), conn: srv.generation(), queueID: q.id, version: cb.version}
	return nil
}

// EnqueueCommandBuffer replays a finalized recording: one MsgExecGraph
// frame fires the whole iteration on the daemon, after the mutable-slot
// updates are applied (persistently) to both the client plan and the
// daemon's cached graph. The returned event completes when every command
// of the iteration has completed and all read-back data has arrived.
func (q *Queue) EnqueueCommandBuffer(b cl.CommandBuffer, updates []cl.CommandUpdate, wait []cl.Event) (cl.Event, error) {
	cb, ok := b.(*CommandBuffer)
	if !ok {
		return nil, cl.Errf(cl.InvalidCommandBuffer, "foreign command buffer")
	}
	q.mu.Lock()
	recording := q.rec != nil
	q.mu.Unlock()
	if recording {
		return nil, cl.Errf(cl.InvalidOperation, "cannot replay a command buffer while recording")
	}

	cb.mu.Lock()
	if cb.released {
		cb.mu.Unlock()
		return nil, cl.Errf(cl.InvalidCommandBuffer, "command buffer released")
	}
	if q != cb.q {
		// Replay on a different queue of the same context: the recorded
		// commands reference context-wide stub IDs, so the graph is
		// portable — it just needs a registration with the new daemon.
		// This is the failover path after the recording daemon died.
		if q.ctx != cb.q.ctx {
			cb.mu.Unlock()
			return nil, cl.Errf(cl.InvalidCommandBuffer, "command buffer belongs to a different context")
		}
		cb.q = q
	}
	if reg, ok := cb.reg[q.srv]; !ok || reg.conn != q.srv.generation() || reg.queueID != q.id || reg.version != cb.version {
		// Not registered with this daemon yet, registered against another
		// queue, registered on an earlier connection — the one-way
		// registration frame may have died with it (and a daemon that
		// lost its session state certainly dropped the cache; every
		// epoch bump is also a generation bump) — or behind the plan,
		// whose updates went to the daemons the replays in between ran
		// on: rebuild the daemon-side cache from the recording.
		if err := cb.registerLocked(q); err != nil {
			cb.mu.Unlock()
			return nil, err
		}
	}
	// Updates are persistent, but only once the exec frame carrying them
	// is on the wire — the daemon applies its copy when that frame
	// arrives. Until then every mutation is undoable, so a failure on
	// any later step (bad update, coherence error, dead connection)
	// cannot leave the client plan diverged from the daemon's cache.
	var undos []func()
	footprintDirty := false
	rollback := func() {
		for i := len(undos) - 1; i >= 0; i-- {
			undos[i]()
		}
		if footprintDirty {
			cb.compileLocked()
		}
	}
	var wireUpdates []protocol.GraphUpdate
	var ships []updShip // parallel to GraphUpdateWriteData entries
	for _, u := range updates {
		wu, ship, undo, dirty, err := cb.applyUpdateLocked(u)
		if err != nil {
			rollback()
			cb.mu.Unlock()
			return nil, err
		}
		undos = append(undos, undo)
		footprintDirty = footprintDirty || dirty
		if wu != nil {
			wireUpdates = append(wireUpdates, *wu)
			if wu.Kind == protocol.GraphUpdateWriteData {
				ships = append(ships, ship)
			}
		}
	}
	if len(wireUpdates) > 0 {
		// This daemon's copy moves with the plan; every other
		// registration is now behind it.
		behind := cb.reg[q.srv]
		cb.version++
		current := behind
		current.version = cb.version
		cb.reg[q.srv] = current
		undos = append(undos, func() {
			cb.version--
			cb.reg[q.srv] = behind
		})
	}
	if footprintDirty {
		cb.compileLocked()
	}
	inputs := append([]span(nil), cb.inputs...)
	outputs := append([]span(nil), cb.outputs...)
	readDsts := make([][]byte, len(cb.readIdx))
	for i, idx := range cb.readIdx {
		readDsts[i] = cb.cmds[idx].rdst
	}
	graphID := cb.id
	cb.mu.Unlock()
	// Re-locks cb.mu: the mutations must be withdrawn atomically with
	// respect to other replays.
	rollbackLocked := func() {
		cb.mu.Lock()
		rollback()
		cb.mu.Unlock()
	}

	// Per-iteration coherence revalidation: in steady state every input
	// range was produced by the previous replay on this server and the
	// directory check is a no-op; after an outside write the transfer
	// runs here — daemon-to-daemon over the PR 2 forward path when
	// available, range-granular either way — and its gates join the
	// replay's wait list.
	gates, err := q.acquire(inputs, outputs, false)
	if err != nil {
		rollbackLocked()
		return nil, err
	}
	waitIDs, err := translateWaitList(q.srv, withGates(wait, gates...))
	if err != nil {
		rollbackLocked()
		return nil, err
	}

	// Open the per-iteration streams: one per recorded read (the daemon
	// ships this iteration's read-back data on them) and one per updated
	// write payload.
	readStreams := make([]*gcf.Stream, len(readDsts))
	readIDs := make([]uint32, len(readDsts))
	for i := range readDsts {
		readStreams[i] = q.srv.openStream()
		readIDs[i] = readStreams[i].ID()
	}
	updStreams := make([]*gcf.Stream, 0, len(ships))
	for i := range wireUpdates {
		if wireUpdates[i].Kind == protocol.GraphUpdateWriteData {
			st := q.srv.openStream()
			wireUpdates[i].StreamID = st.ID()
			updStreams = append(updStreams, st)
		}
	}
	releaseStreams := func() {
		for _, st := range readStreams {
			st.Release()
		}
		for _, st := range updStreams {
			st.Release()
		}
	}

	// Completion event: the daemon completes execID when the iteration's
	// final marker fires; the wrapped event the application sees also
	// waits for the read-back data to land in the destinations.
	execID := q.ctx.plat.newID()
	wrapped := newRemoteEvent(q.ctx, q.srv, execID)
	var wg sync.WaitGroup
	var recvMu sync.Mutex
	var recvErr error
	// The receivers are counted before the hook is registered (a fast
	// daemon could complete the iteration before they spawn) but only
	// started once the exec frame is on the wire.
	wg.Add(len(readDsts))
	q.srv.registerHook(execID, wrapped, func(st cl.CommandStatus) {
		// The daemon closes every announced read stream on both success
		// and failure paths, so this wait always terminates.
		wg.Wait()
		recvMu.Lock()
		rerr := recvErr
		recvMu.Unlock()
		if st == cl.Complete && rerr != nil {
			wrapped.complete(cl.CommandStatus(cl.CodeOf(rerr)))
			return
		}
		wrapped.complete(st)
	})

	if err := q.srv.send(protocol.MsgExecGraph, func(w *protocol.Writer) {
		protocol.PutExecGraph(w, protocol.ExecGraph{
			GraphID:       graphID,
			QueueID:       q.id,
			EventID:       execID,
			WaitIDs:       waitIDs,
			ReadStreamIDs: readIDs,
			Updates:       wireUpdates,
		})
	}); err != nil {
		q.srv.dropHook(execID)
		// The receivers never start: a close notice that took the hook
		// before it was dropped must not wait for them.
		wg.Add(-len(readDsts))
		releaseStreams()
		rollbackLocked()
		return nil, err
	}
	// Pull this iteration's read-back data into the destinations.
	for i := range readDsts {
		st, dst := readStreams[i], readDsts[i]
		go func() {
			defer wg.Done()
			defer st.Release()
			if _, rerr := io.ReadFull(st, dst); rerr != nil {
				recvMu.Lock()
				if recvErr == nil {
					recvErr = cl.Errf(cl.InvalidServer, "graph read-back failed: %v", rerr)
				}
				recvMu.Unlock()
				return
			}
			st.WaitEOF()
		}()
	}
	// Ship updated write payloads behind the exec frame. The frame is on
	// the wire, so the updates stand: the baselines they replaced are not
	// coming back.
	for i, sh := range ships {
		sh.prev.Drop()
		go shipPayload(updStreams[i], sh.data, sh.release)
	}
	q.track(wrapped)
	// Directory effects of the whole iteration: every written buffer is
	// Modified on this server, rolled back by markRangeWrittenBy's failure
	// hook if the replay fails.
	q.claim(outputs, wrapped)
	return wrapped, nil
}

// updShip is what one write-data update sends behind its exec frame —
// the new payload, or its delta against the baseline both sides hold —
// with the transport's way of handing those bytes back, and the baseline
// the update replaced, which the plan keeps until the frame is sent: up
// to there the update can still be undone.
type updShip struct {
	data    []byte
	release func()
	prev    *gcf.SharedPayload
}

// applyUpdateLocked patches one mutable slot of the client-side plan and
// returns the wire update for the daemon's cached copy (nil for
// client-only slots such as read destinations), what to ship for a
// write-data update, an undo closure withdrawing the mutation (run if the
// exec frame never makes it onto the wire), and whether the coherence
// footprint changed.
func (cb *CommandBuffer) applyUpdateLocked(u cl.CommandUpdate) (*protocol.GraphUpdate, updShip, func(), bool, error) {
	if u.Command < 0 || u.Command >= len(cb.cmds) {
		return nil, updShip{}, nil, false, cl.Errf(cl.InvalidCommandBuffer, "update targets command %d of %d", u.Command, len(cb.cmds))
	}
	c := cb.cmds[u.Command]
	switch u.Kind {
	case cl.UpdateKernelArg:
		if c.op != protocol.GraphOpKernel {
			return nil, updShip{}, nil, false, cl.Errf(cl.InvalidCommandBuffer, "command %d is not a kernel launch", u.Command)
		}
		i := u.ArgIndex
		val, buf, err := c.k.encodeArg(i, u.ArgValue)
		if err != nil {
			return nil, updShip{}, nil, false, err
		}
		prevVal, prevBuf := c.args[i], c.argBufs[i]
		c.args[i], c.argBufs[i] = val, buf
		return &protocol.GraphUpdate{
			Cmd:      uint32(u.Command),
			Kind:     protocol.GraphUpdateKernelArg,
			ArgIndex: uint32(i),
			Arg:      val,
		}, updShip{}, func() { c.args[i], c.argBufs[i] = prevVal, prevBuf }, buf != prevBuf, nil
	case cl.UpdateWriteData:
		if c.op != protocol.GraphOpWrite {
			return nil, updShip{}, nil, false, cl.Errf(cl.InvalidCommandBuffer, "command %d is not a write", u.Command)
		}
		if len(u.Data) != c.size {
			return nil, updShip{}, nil, false, cl.Errf(cl.InvalidValue, "write update of %d bytes, recorded size %d", len(u.Data), c.size)
		}
		// The plan's copy: the application has its slice back on return.
		prev, cur := c.payload, clonePayload(u.Data)
		c.payload = cur
		wu := &protocol.GraphUpdate{Cmd: uint32(u.Command), Kind: protocol.GraphUpdateWriteData}
		ship := updShip{prev: prev}
		// Both sides hold the baseline — the daemon as its cached command,
		// the client as the plan before this update — so the stream can
		// carry just the changed byte runs when that is smaller. Updates
		// ride the same ordered connection as the baselines they were
		// encoded against; like the update mechanism itself, delta
		// encoding assumes replays of one command buffer are not raced
		// from multiple goroutines. A delta is shorter than its payload: a
		// block of the payload's class takes any that is worth sending.
		block := gcf.GetPayload(c.size)
		if enc, ok := protocol.AppendDelta(block[:0], prev.Data, cur.Data); ok {
			wu.Encoding = protocol.GraphPayloadDelta
			ship.data, ship.release = enc, func() { gcf.PutPayload(block) }
		} else {
			gcf.PutPayload(block)
			cur.Hold() // the ship's, next to the plan's
			ship.data, ship.release = cur.Data, cur.Drop
		}
		wu.PayloadLen = uint32(len(ship.data))
		return wu, ship, func() {
			c.payload = prev
			cur.Drop()
			ship.release()
		}, false, nil
	case cl.UpdateReadDst:
		if c.op != protocol.GraphOpRead {
			return nil, updShip{}, nil, false, cl.Errf(cl.InvalidCommandBuffer, "command %d is not a read", u.Command)
		}
		if len(u.Data) != c.size {
			return nil, updShip{}, nil, false, cl.Errf(cl.InvalidValue, "read update of %d bytes, recorded size %d", len(u.Data), c.size)
		}
		prev := c.rdst
		c.rdst = u.Data
		return nil, updShip{}, func() { c.rdst = prev }, false, nil
	}
	return nil, updShip{}, nil, false, cl.Errf(cl.InvalidValue, "unknown update kind %d", u.Kind)
}
