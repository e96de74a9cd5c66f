package daemon

import (
	"slices"
	"sync"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/gcf"
	"dopencl/internal/native"
	"dopencl/internal/protocol"
	"dopencl/internal/rpc"
	"dopencl/internal/serve"
)

// session is one client connection: the daemon-side object tables mapping
// client stub IDs to native OpenCL objects, plus the request dispatcher.
// A session survives its connection: when the endpoint dies the session
// detaches (tables intact) for the daemon's retention window, and a Hello
// on a fresh connection that resumes it adopts the tables — the client
// finds its buffers, queues, programs, kernels and cached graphs exactly
// where it left them.
type session struct {
	d    *Daemon
	ep   *gcf.Endpoint // bulk-data streams
	conn *rpc.Conn     // every message, over ep

	// Registry state, guarded by d.sessMu. gone is closed when the
	// connection's close notice detaches the session.
	id          uint64
	detached    bool
	gone        chan struct{}
	retireTimer *time.Timer

	rv rendezvous // the peer transfers this connection's accepts announce

	mu sync.Mutex
	// authID is the lease the session is bound to ("" before its Hello and
	// after its Goodbye): on a managed daemon its units are the only ones the
	// session may use (Daemon.device).
	authID   string
	noRetain bool // lease ended by a goodbye: nothing to retain on close
	contexts map[uint64]cl.Context
	queues   map[uint64]cl.Queue
	buffers  map[uint64]cl.Buffer
	programs map[uint64]cl.Program
	kernels  map[uint64]cl.Kernel
	events   map[uint64]cl.Event
	// unsettled holds every user event of the session until it completes,
	// whether or not the event table still names it (a client may release
	// or overwrite an ID with commands parked on the event).
	unsettled map[cl.UserEvent]struct{}
	graphs    map[uint64]*sessGraph // cached command graphs (session-scoped)
	serves    map[uint64]*serveLane // serve lanes (connection-scoped)
	// serveProg memoizes each kernel's (source, name) fingerprint so the
	// per-job serve path never re-hashes program source.
	serveProg map[uint64]serve.Key
}

func newSession(d *Daemon, ep *gcf.Endpoint) *session {
	s := &session{
		d: d, ep: ep, conn: rpc.New(ep),
		gone:      make(chan struct{}),
		rv:        rendezvous{entries: map[uint64]*transfer{}},
		contexts:  map[uint64]cl.Context{},
		queues:    map[uint64]cl.Queue{},
		buffers:   map[uint64]cl.Buffer{},
		programs:  map[uint64]cl.Program{},
		kernels:   map[uint64]cl.Kernel{},
		events:    map[uint64]cl.Event{},
		unsettled: map[cl.UserEvent]struct{}{},
		graphs:    map[uint64]*sessGraph{},
		serves:    map[uint64]*serveLane{},
	}
	d.registerSession(s)
	return s
}

func (s *session) start() {
	s.conn.Start(s.routes(), s.onClose)
}

// onClose ends the connection's peer transfers and detaches the session:
// the connection is gone, but the object tables survive for the daemon's
// retention window (a zero window retires immediately, the
// pre-resilience behaviour). It runs after the last frame's handler, so
// nothing lands in the tables once it has taken them.
func (s *session) onClose(error) {
	s.d.logUnserved("session", s.conn)
	s.endForwards()
	s.d.detachSession(s)
}

// failPendingEvents completes every still-pending user event (wait-list
// replacements, forward gates) with ServerLost and clears the event
// table: with the connection dead nobody can ever complete them, and a
// native queue command parked on one would wedge the queue — and every
// later Finish — forever.
func (s *session) failPendingEvents() {
	s.mu.Lock()
	unsettled := s.unsettled
	s.unsettled = map[cl.UserEvent]struct{}{}
	s.events = map[uint64]cl.Event{}
	s.mu.Unlock()
	for ue := range unsettled {
		// One that completes just now rejects the status; that is fine.
		_ = ue.SetStatus(cl.CommandStatus(cl.ServerLost))
	}
}

// track remembers a user event until it completes, for failPendingEvents.
func (s *session) track(ue cl.UserEvent) {
	s.mu.Lock()
	s.unsettled[ue] = struct{}{}
	s.mu.Unlock()
	if err := ue.SetCallback(cl.Complete, func(cl.Event, cl.CommandStatus) {
		s.mu.Lock()
		delete(s.unsettled, ue)
		s.mu.Unlock()
	}); err != nil {
		s.d.logf("daemon %s: user event callback: %v", s.d.cfg.Name, err)
	}
}

// quiesce stops what nobody can settle once the client or its lease is
// gone: in-flight forwards are cancelled, pending user events fail (a
// native queue must not stay wedged on a gate nobody can complete any
// more) and serve lanes close.
func (s *session) quiesce() {
	s.failForwards()
	s.failPendingEvents()
	s.closeServeLanes()
}

// retire ends the session's lease. It is the one end-of-lease path: a
// Goodbye runs it with the connection up, which then carries the client's
// next lease, and the connection's close runs it for a session that is not
// retained. Every object the session holds is released — native queues
// stop — and a lease the client did not release is reported to the device
// manager (abnormal client termination, Section IV-C). The tables are
// taken whole, so a second call finds nothing to do.
func (s *session) retire() {
	s.quiesce()
	s.releaseGraphs()
	s.mu.Lock()
	authID := s.authID
	s.authID = ""
	queues, kernels, programs := s.queues, s.kernels, s.programs
	buffers, contexts := s.buffers, s.contexts
	s.queues, s.kernels, s.programs = map[uint64]cl.Queue{}, map[uint64]cl.Kernel{}, map[uint64]cl.Program{}
	s.buffers, s.contexts = map[uint64]cl.Buffer{}, map[uint64]cl.Context{}
	s.serveProg = nil
	s.mu.Unlock()
	releaseAll(s, queues)
	releaseAll(s, kernels)
	releaseAll(s, programs)
	releaseAll(s, buffers)
	releaseAll(s, contexts)
	if authID != "" && s.d.cfg.Managed && s.d.HasLease(authID) {
		s.d.Revoke(authID)
		s.d.reportInvalidatedLease(authID, nil)
	}
}

// releaseAll releases every object of a table retire took from the session.
func releaseAll[T interface{ Release() error }](s *session, table map[uint64]T) {
	for id, obj := range table {
		if err := obj.Release(); err != nil {
			s.d.logf("daemon %s: release of object %d: %v", s.d.cfg.Name, id, err)
		}
	}
}

// fail reports a failed command to whoever sent it. A request (a new
// link's Hello, a ServeOpen) gets an error response. A one-way command
// never gets a response, so its completion notice is the only traffic its
// failure produces: the client records it against the queue (surfaced at
// the next Finish) and fails the command's event stub, if it named one
// (zero: none).
func (s *session) fail(c rpc.Call, queueID, eventID uint64, err error) {
	if c.Class == protocol.ClassRequest {
		c.Reply(cl.CodeOf(err), nil)
		return
	}
	s.complete(protocol.Completion{EventID: eventID, Status: int32(cl.CodeOf(err)), QueueID: queueID, Op: c.Type, Msg: err.Error()})
}

// complete writes the one completion notice, MsgCompleted: a registered
// event has completed, or a one-way message has failed.
func (s *session) complete(done protocol.Completion) {
	if err := s.conn.Notify(protocol.MsgCompleted, func(w *protocol.Writer) { protocol.PutCompletion(w, done) }); err != nil {
		s.d.logf("daemon %s: completion notice failed: %v", s.d.cfg.Name, err)
	}
}

// drainStream discards and releases an inbound bulk-data stream whose
// command failed, so pipelined payload bytes already in flight do not
// accumulate in the session.
func (s *session) drainStream(streamID uint32) {
	if streamID == 0 {
		return
	}
	s.d.drainStream(s.ep, streamID)
}

// registerEvent stores a native event under the client's ID (0: none)
// and arranges its completion notice, the daemon-side half of the paper's
// clSetEventCallback mechanism. failure is what the notice says of a
// failed ev beside its event and status (zero: nothing): the queue whose
// next Finish reports it, the operation and the text. An event without an
// ID is noticed only if it fails at a queue.
func (s *session) registerEvent(eventID uint64, ev cl.Event, failure protocol.Completion) {
	if eventID != 0 {
		s.mu.Lock()
		s.events[eventID] = ev
		s.mu.Unlock()
		if ue, ok := ev.(cl.UserEvent); ok {
			s.track(ue)
		}
	} else if failure.QueueID == 0 {
		return
	}
	if err := ev.SetCallback(cl.Complete, func(_ cl.Event, st cl.CommandStatus) {
		if eventID != 0 || st != cl.Complete {
			done := failure
			done.EventID, done.Status = eventID, int32(st)
			s.complete(done)
		}
	}); err != nil {
		s.d.logf("daemon %s: event callback: %v", s.d.cfg.Name, err)
	}
}

// resolveWaits maps client event IDs to native events.
func (s *session) resolveWaits(ids []uint64) ([]cl.Event, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]cl.Event, len(ids))
	for i, id := range ids {
		ev, ok := s.events[id]
		if !ok {
			return nil, cl.Errf(cl.InvalidEventWaitList, "unknown event %d", id)
		}
		out[i] = ev
	}
	return out, nil
}

// routes is what a client session serves, and in which class. Handlers
// run on the endpoint's dispatch goroutine, in arrival order, onClose after
// the last; blocking operations (Finish) spawn goroutines so the
// dispatcher stays responsive.
//
// A message is a request only where the client uses the answer or needs
// the fence: a new connection's Hello (session ID, devices and whether
// the session it resumes was retained), GetServerInfo, Finish, ServeOpen
// and CreateUserEvent (whose round trip stamps a replacement event with
// the connection it was created on). Everything else is one-way — no
// response is synthesized, success is silent but for an event's
// completion, failures are pushed back in MsgCompleted notices — and its
// dispatch order relative to a later request is what makes that request
// a synchronization point for the whole pipeline. That covers the object
// plane too: the client assigns the IDs, checks what it can itself,
// compiles programs locally (MiniCL is deterministic: its verdict on a
// build is the daemon's) and has a lease's device records from its
// grant, so a create, build, binding, release or kept link's Hello rides
// the ordered stream ahead of every command that names the object, and
// re-attach recovery confirms its re-creates with one GetServerInfo
// behind them. Hello serves both classes; so does EnqueueWrite, whose
// request form is refused after its payload is drained.
func (s *session) routes() rpc.Routes {
	return rpc.Routes{
		protocol.MsgHello:              {Request: s.handleHello, OneWay: s.handleHello},
		protocol.MsgGetServerInfo:      {Request: s.handleGetServerInfo},
		protocol.MsgCreateContext:      {OneWay: s.handleCreateContext},
		protocol.MsgReleaseContext:     releaser(s, &s.contexts),
		protocol.MsgCreateQueue:        {OneWay: s.handleCreateQueue},
		protocol.MsgReleaseQueue:       releaser(s, &s.queues),
		protocol.MsgCreateBuffer:       {OneWay: s.handleCreateBuffer},
		protocol.MsgReleaseBuffer:      releaser(s, &s.buffers),
		protocol.MsgCreateProgram:      {OneWay: s.handleCreateProgram},
		protocol.MsgBuildProgram:       {OneWay: s.handleBuildProgram},
		protocol.MsgReleaseProgram:     releaser(s, &s.programs),
		protocol.MsgCreateKernel:       {OneWay: s.handleCreateKernel},
		protocol.MsgSetKernelArg:       {OneWay: s.handleSetKernelArg},
		protocol.MsgReleaseKernel:      {OneWay: s.handleReleaseKernel},
		protocol.MsgEnqueueWrite:       {Request: s.refuseEnqueueWrite, OneWay: s.handleEnqueue},
		protocol.MsgEnqueueRead:        {OneWay: s.handleEnqueue},
		protocol.MsgEnqueueCopy:        {OneWay: s.handleEnqueue},
		protocol.MsgEnqueueKernel:      {OneWay: s.handleEnqueue},
		protocol.MsgEnqueueMarker:      {OneWay: s.handleEnqueue},
		protocol.MsgEnqueueBarrier:     {OneWay: s.handleEnqueue},
		protocol.MsgFinish:             {Request: s.handleFinish},
		protocol.MsgFlush:              {OneWay: s.handleFlush},
		protocol.MsgCreateUserEvent:    {Request: s.handleCreateUserEvent},
		protocol.MsgSetUserEventStatus: {OneWay: s.handleSetUserEventStatus},
		protocol.MsgReleaseEvent:       {OneWay: s.handleReleaseEvent},
		protocol.MsgForwardBuffer:      {OneWay: s.handleForwardBuffer},
		protocol.MsgAcceptForward:      {OneWay: s.handleAcceptForward},
		protocol.MsgRegisterGraph:      {OneWay: s.handleRegisterGraph},
		protocol.MsgExecGraph:          {OneWay: s.handleExecGraph},
		protocol.MsgReleaseGraph:       {OneWay: s.handleReleaseGraph},
		protocol.MsgGoodbye:            {OneWay: s.handleGoodbye},
		protocol.MsgServeOpen:          {Request: s.handleServeOpen},
		protocol.MsgServeClose:         {OneWay: s.handleServeClose},
		protocol.MsgServeSubmit:        {OneWay: s.handleServeSubmit},
	}
}

// refuseEnqueueWrite answers a request-class write like any other command
// sent in the wrong class, but its payload may already be in flight behind
// the frame: drain it first.
func (s *session) refuseEnqueueWrite(c rpc.Call) {
	e := protocol.GetEnqueue(c.Body)
	if c.Malformed() {
		return
	}
	s.drainStream(e.Cmd.StreamID)
	c.Refuse(cl.InvalidOperation)
}

func (s *session) handleGetServerInfo(c rpc.Call) {
	c.Reply(cl.Success, func(w *protocol.Writer) {
		w.String(s.d.cfg.Name)
		w.Bool(s.d.cfg.Managed)
		w.U32(uint32(len(s.d.devices)))
	})
}

// handleReleaseEvent forgets an event; it rides the ordered one-way
// stream behind the commands that wait on it.
func (s *session) handleReleaseEvent(c rpc.Call) {
	eventID := c.Body.U64()
	if c.Malformed() {
		return
	}
	s.mu.Lock()
	delete(s.events, eventID)
	s.mu.Unlock()
}

// handleGoodbye ends the session's lease (retire) and leaves the
// connection up: the client keeps it for its next lease on this daemon,
// which binds to it with a Hello. Until then a close has nothing to retain.
// The session is still attached: the close notice, which detaches it, runs
// after the last frame's handler.
func (s *session) handleGoodbye(rpc.Call) {
	s.mu.Lock()
	s.noRetain = true
	s.mu.Unlock()
	s.retire()
}

// handleHello binds the session to a lease: the client's first message on
// a new connection, asked, and — one-way, behind the previous lease's
// Goodbye — the first of each later lease on a kept connection, whose
// client has the device records from its grant already. A refusal is then
// reported at the client's next wait, like a refused create's. A Hello
// that resumes a session after a lost connection adopts that session's
// object tables if the daemon still parks it for the same lease, and
// retained tells the client that every remote object — and the data in
// its buffers — survived; if it is gone (restart, expiry) this is a new
// session and the client re-creates its objects. A session that holds
// objects, or is the one named, resumes nothing: it is refused at once.
func (s *session) handleHello(c rpc.Call) {
	h := protocol.GetHello(c.Body)
	if c.Malformed() {
		return
	}
	recs, err := s.d.visibleRecords(h.AuthID)
	if err != nil {
		s.fail(c, 0, 0, err)
		return
	}
	retained := false
	if h.Resume != 0 {
		if h.Resume == s.id || s.objects() > 0 {
			s.fail(c, 0, 0, cl.Errf(cl.InvalidOperation, "session %d holds objects or is session %d: it resumes nothing", s.id, h.Resume))
			return
		}
		old, err := s.d.takeDetachedSession(h.Resume, h.AuthID)
		if err != nil {
			s.fail(c, 0, 0, err)
			return
		}
		if old != nil {
			// The old session is parked only by its close notice, which ran
			// after its last handler, and its event table was cleared at
			// detach, so nothing still routes through it. This session's
			// tables are empty: the old one is left holding nothing.
			old.mu.Lock()
			s.mu.Lock()
			s.contexts, old.contexts = old.contexts, s.contexts
			s.queues, old.queues = old.queues, s.queues
			s.buffers, old.buffers = old.buffers, s.buffers
			s.programs, old.programs = old.programs, s.programs
			s.kernels, old.kernels = old.kernels, s.kernels
			s.graphs, old.graphs = old.graphs, s.graphs
			s.mu.Unlock()
			old.mu.Unlock()
			retained = true
		}
		s.d.logf("daemon %s: session %d of %q resumes %d (retained=%v)", s.d.cfg.Name, s.id, h.Client, h.Resume, retained)
	}
	s.mu.Lock()
	s.authID = h.AuthID
	s.noRetain = false
	s.mu.Unlock()
	c.Reply(cl.Success, func(w *protocol.Writer) {
		protocol.PutHelloAnswer(w, protocol.HelloAnswer{Name: s.d.cfg.Name, Retained: retained, Devices: recs,
			PeerAddr: s.d.cfg.PeerAddr, CanForward: s.d.CanForward(), SessionID: s.id, PeerKey: s.rv.key})
	})
}

// handleForwardBuffer executes the source half of a peer transfer: read
// the buffer region on the command's queue (so the read sequences after
// the waits like any other command), then stream the bytes directly to
// the peer daemon. The read's event is the command's event: a later write
// to the region waits only until the bytes are copied out. Why the
// payload will not be sent goes to the client's hook under FailID, which
// asks the target to fail its gate; the target decides. One-way only —
// failures come back in deferred MsgCompleted notices.
func (s *session) handleForwardBuffer(c rpc.Call) {
	f := protocol.GetForwardBuffer(c.Body)
	if c.Malformed() {
		return
	}
	unsent := func(err error) { s.fail(c, f.QueueID, f.FailID, err) }
	refuse := func(err error) {
		s.fail(c, f.QueueID, f.EventID, err)
		if f.FailID != 0 {
			s.fail(c, 0, f.FailID, err)
		}
	}
	if s.d.peers == nil {
		refuse(cl.Errf(cl.InvalidOperation, "daemon %s has no peer data plane", s.d.cfg.Name))
		return
	}
	s.mu.Lock()
	q, _ := s.queues[f.QueueID].(*native.Queue)
	s.mu.Unlock()
	if q == nil {
		refuse(cl.Errf(cl.InvalidCommandQueue, "unknown queue %d", f.QueueID))
		return
	}
	offset, size := int(f.SrcOffset), int(f.Size)
	buf, err := s.bufferRange(f.SrcBufID, offset, size)
	if err != nil {
		refuse(err)
		return
	}
	waits, err := s.resolveWaits(f.WaitIDs)
	if err != nil {
		refuse(err)
		return
	}
	hdr := protocol.PeerTransfer{Key: f.PeerKey, Token: f.Token, BufID: f.DstBufID, Offset: f.DstOffset, Size: f.Size}
	// The source side stages the full region, like the enqueue-read path
	// (the device read is one queue command); the receive side streams
	// without staging. The send path references the pooled block
	// zero-copy — forwardPayload returns it to the pool once the
	// transport is done with it. Windowed source staging for multi-GB
	// forwards is future work.
	read := native.Command{Op: native.OpRead, Buf: buf, Offset: offset, Size: size}
	ev, err := readStaged(q, read, waits, func(staged []byte, st cl.CommandStatus) {
		if staged == nil {
			unsent(cl.Errf(cl.ErrorCode(st), "forward source read failed"))
			return
		}
		// Stream off the event-callback goroutine: a slow peer link must
		// not stall the native queue's completion path.
		go s.d.forwardPayload(f.PeerAddr, hdr, staged, unsent)
	})
	if err != nil {
		refuse(err)
		return
	}
	s.registerEvent(f.EventID, ev, protocol.Completion{})
}

// handleAcceptForward executes the target half of a peer transfer:
// validate the client's announcement, create the gating user event that
// dependent commands wait on, and register the transfer on this
// connection for rendezvous with the peer's payload.
func (s *session) handleAcceptForward(c rpc.Call) {
	a := protocol.GetAcceptForward(c.Body)
	if c.Malformed() {
		return
	}
	offset, size := int(a.Offset), int(a.Size)
	buf, err := s.bufferRange(a.BufID, offset, size)
	if err != nil {
		s.fail(c, a.QueueID, a.EventID, err)
		return
	}
	acc := &accept{
		UserEvent: native.NewUserEvent(), s: s,
		buf: buf, bufID: a.BufID, offset: offset, size: size, token: a.Token,
	}
	s.registerEvent(a.EventID, acc, protocol.Completion{})
	s.acceptForward(acc)
}

func (s *session) handleCreateContext(c rpc.Call) {
	ctxID := c.Body.U64()
	unitIDs := c.Body.U64s()
	if c.Malformed() {
		return
	}
	s.mu.Lock()
	authID := s.authID
	_, held := s.contexts[ctxID]
	s.mu.Unlock()
	devs := make([]cl.Device, 0, len(unitIDs))
	for _, u := range unitIDs {
		dev := s.d.device(authID, u)
		if dev == nil {
			s.fail(c, 0, 0, cl.Errf(cl.InvalidDevice, "device unit %d is not this session's", u))
			return
		}
		devs = append(devs, dev)
	}
	if held {
		// Idempotent, as for buffers below: re-attach cannot know whether a
		// one-way create reached a retained session. Kept, contents and all.
		return
	}
	ctx, err := s.d.cfg.Platform.CreateContext(devs)
	if err != nil {
		s.fail(c, 0, 0, err)
		return
	}
	s.mu.Lock()
	s.contexts[ctxID] = ctx
	s.mu.Unlock()
}

func (s *session) handleCreateQueue(c rpc.Call) {
	queueID := c.Body.U64()
	ctxID := c.Body.U64()
	unitID := c.Body.U64()
	if c.Malformed() {
		return
	}
	s.mu.Lock()
	ctx := s.contexts[ctxID]
	authID := s.authID
	_, held := s.queues[queueID]
	s.mu.Unlock()
	dev := s.d.device(authID, unitID)
	if ctx == nil || dev == nil {
		s.fail(c, 0, 0, cl.Errf(cl.InvalidContext, "unknown context %d or device unit %d", ctxID, unitID))
		return
	}
	if held {
		// Kept, and the commands behind it with it (see handleCreateContext).
		return
	}
	q, err := ctx.CreateQueue(dev)
	if err != nil {
		s.fail(c, 0, 0, err)
		return
	}
	put(s, s.queues, queueID, q)
}

func (s *session) handleCreateBuffer(c rpc.Call) {
	bufID := c.Body.U64()
	ctxID := c.Body.U64()
	flags := cl.MemFlags(c.Body.U32())
	size := int(c.Body.I64())
	streamID := c.Body.U32()
	if c.Malformed() {
		return
	}
	if streamID != 0 {
		// Contents are uploaded by coherence, on first use: a create never
		// carries them, and the dispatcher never waits on a tenant's stream.
		s.drainStream(streamID)
		s.fail(c, 0, 0, cl.Errf(cl.InvalidValue, "buffer %d created with an init stream", bufID))
		return
	}
	s.mu.Lock()
	ctx := s.contexts[ctxID]
	s.mu.Unlock()
	if ctx == nil {
		s.fail(c, 0, 0, cl.Errf(cl.InvalidContext, "unknown context %d", ctxID))
		return
	}
	// The size comes off the wire: one no device of the context could hold
	// is refused before anything that large is allocated for it.
	fits := func(dev cl.Device) bool { return int64(size) <= dev.Info().MaxAllocSize }
	if size <= 0 || !slices.ContainsFunc(ctx.Devices(), fits) {
		s.fail(c, 0, 0, cl.Errf(cl.InvalidBufferSize, "buffer %d of %d bytes fits no device of context %d", bufID, size, ctxID))
		return
	}
	// Idempotent re-creation: the re-attach recovery replicates every
	// live buffer without knowing which ones this (possibly retained)
	// session already holds. An existing buffer of the same size keeps
	// its contents — recreating it would destroy exactly the data the
	// retention machinery preserved.
	s.mu.Lock()
	existing := s.buffers[bufID]
	s.mu.Unlock()
	if existing != nil && existing.Size() == size {
		return
	}
	buf, err := ctx.CreateBuffer(flags&^cl.MemCopyHostPtr, size, nil)
	if err != nil {
		s.fail(c, 0, 0, err)
		return
	}
	s.mu.Lock()
	s.buffers[bufID] = buf
	s.mu.Unlock()
}

func (s *session) handleCreateProgram(c rpc.Call) {
	progID := c.Body.U64()
	ctxID := c.Body.U64()
	src := c.Body.String()
	if c.Malformed() {
		return
	}
	s.mu.Lock()
	ctx := s.contexts[ctxID]
	s.mu.Unlock()
	if ctx == nil {
		s.fail(c, 0, 0, cl.Errf(cl.InvalidContext, "unknown context %d", ctxID))
		return
	}
	prog, err := ctx.CreateProgramWithSource(src)
	if err != nil {
		s.fail(c, 0, 0, err)
		return
	}
	put(s, s.programs, progID, prog)
}

func (s *session) handleBuildProgram(c rpc.Call) {
	progID := c.Body.U64()
	options := c.Body.String()
	if c.Malformed() {
		return
	}
	s.mu.Lock()
	prog := s.programs[progID]
	s.mu.Unlock()
	if prog == nil {
		s.fail(c, 0, 0, cl.Errf(cl.InvalidProgram, "unknown program %d", progID))
		return
	}
	if err := prog.Build(nil, options); err != nil {
		s.fail(c, 0, 0, err)
	}
}

func (s *session) handleCreateKernel(c rpc.Call) {
	kernelID := c.Body.U64()
	progID := c.Body.U64()
	name := c.Body.String()
	if c.Malformed() {
		return
	}
	s.mu.Lock()
	prog := s.programs[progID]
	s.mu.Unlock()
	if prog == nil {
		s.fail(c, 0, 0, cl.Errf(cl.InvalidProgram, "unknown program %d", progID))
		return
	}
	k, err := prog.CreateKernel(name)
	if err != nil {
		s.fail(c, 0, 0, err)
		return
	}
	put(s, s.kernels, kernelID, k)
}

func (s *session) handleSetKernelArg(c rpc.Call) {
	a := protocol.GetSetKernelArg(c.Body)
	if c.Malformed() {
		return
	}
	s.mu.Lock()
	k, ok := s.kernels[a.KernelID].(*native.Kernel)
	s.mu.Unlock()
	err := cl.Errf(cl.InvalidKernel, "unknown kernel %d", a.KernelID)
	if ok {
		err = s.bindArg(k, int(a.Index), a.Arg)
	}
	if err != nil {
		s.fail(c, 0, 0, err)
	}
}

func (s *session) handleFinish(c rpc.Call) {
	queueID := c.Body.U64()
	if c.Malformed() {
		return
	}
	s.mu.Lock()
	q := s.queues[queueID]
	s.mu.Unlock()
	if q == nil {
		c.Reply(cl.InvalidCommandQueue, nil)
		return
	}
	// Finish blocks; run it off the dispatcher so other requests (e.g.
	// user-event completions that unblock the queue) keep flowing.
	go func() { c.Reply(cl.CodeOf(q.Finish()), nil) }()
}

func (s *session) handleFlush(c rpc.Call) {
	queueID := c.Body.U64()
	if c.Malformed() {
		return
	}
	s.mu.Lock()
	q := s.queues[queueID]
	s.mu.Unlock()
	if q == nil {
		s.fail(c, queueID, 0, cl.Errf(cl.InvalidCommandQueue, "unknown queue %d", queueID))
		return
	}
	if err := q.Flush(); err != nil {
		s.fail(c, queueID, 0, err)
	}
}

func (s *session) handleCreateUserEvent(c rpc.Call) {
	eventID := c.Body.U64()
	ctxID := c.Body.U64()
	if c.Malformed() {
		return
	}
	s.mu.Lock()
	ctx := s.contexts[ctxID]
	s.mu.Unlock()
	if ctx == nil {
		c.Reply(cl.InvalidContext, nil)
		return
	}
	ue, err := ctx.CreateUserEvent()
	if err != nil {
		c.Reply(cl.CodeOf(err), nil)
		return
	}
	s.mu.Lock()
	s.events[eventID] = ue
	s.mu.Unlock()
	s.track(ue)
	c.Reply(cl.Success, nil)
}

// handleSetUserEventStatus completes a user event: a replacement learning
// its original's status, or a forward's gate failed or cancelled by the
// client, ordered ahead of the commands that follow it on this connection
// (a round trip would either block the enqueue path or lose that
// ordering). An event it no longer finds is none of its concern, and a
// status it cannot set is logged.
func (s *session) handleSetUserEventStatus(c rpc.Call) {
	eventID := c.Body.U64()
	status := cl.CommandStatus(c.Body.I32())
	if c.Malformed() {
		return
	}
	s.mu.Lock()
	ev := s.events[eventID]
	s.mu.Unlock()
	ue, ok := ev.(cl.UserEvent)
	if !ok {
		return
	}
	if err := ue.SetStatus(status); err != nil {
		s.d.logf("daemon %s: event %d status: %v", s.d.cfg.Name, eventID, err)
	}
}

// put stores obj under id and releases the object it displaces, if any:
// re-attach recovery re-creates every live program and kernel under its
// ID, and nothing else would ever release the replaced native object.
func put[T interface{ Release() error }](s *session, table map[uint64]T, id uint64, obj T) {
	s.mu.Lock()
	old, replaced := table[id]
	table[id] = obj
	s.mu.Unlock()
	if replaced {
		if err := old.Release(); err != nil {
			s.d.logf("daemon %s: release of replaced object %d: %v", s.d.cfg.Name, id, err)
		}
	}
}

// releaser serves the Release of one of the session's object tables (named
// by address: re-attach swaps the maps themselves), one-way like the
// creates: it rides the ordered stream behind the commands that use the
// object. Releasing an ID the table does not hold is not an error.
func releaser[T interface{ Release() error }](s *session, table *map[uint64]T) rpc.Route {
	h := func(c rpc.Call) {
		objID := c.Body.U64()
		if c.Malformed() {
			return
		}
		var err error
		s.mu.Lock()
		if obj, ok := (*table)[objID]; ok {
			err = obj.Release()
			delete(*table, objID)
		}
		s.mu.Unlock()
		if err != nil {
			s.fail(c, 0, 0, err)
		}
	}
	return rpc.Route{OneWay: h}
}

// handleReleaseKernel releases a kernel; it rides the ordered one-way
// stream behind the launches that use it.
func (s *session) handleReleaseKernel(c rpc.Call) {
	kernelID := c.Body.U64()
	if c.Malformed() {
		return
	}
	s.mu.Lock()
	k := s.kernels[kernelID]
	delete(s.kernels, kernelID)
	delete(s.serveProg, kernelID)
	s.mu.Unlock()
	if k == nil {
		return
	}
	if err := k.Release(); err != nil {
		s.fail(c, 0, 0, err)
	}
}
