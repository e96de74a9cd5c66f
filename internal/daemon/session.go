package daemon

import (
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
// detaches (tables intact) for the daemon's retention window, and a
// MsgAttachSession on a fresh connection adopts the tables — the client
// finds its buffers, queues, programs, kernels and cached graphs exactly
// where it left them.
type session struct {
	d    *Daemon
	ep   *gcf.Endpoint // bulk-data streams
	conn *rpc.Conn     // every message, over ep

	// Registry state, guarded by d.sessMu.
	id          uint64
	detached    bool
	retireTimer *time.Timer

	mu       sync.Mutex
	authID   string
	clientNm string
	noRetain bool // client said goodbye: retire immediately on close
	contexts map[uint64]cl.Context
	queues   map[uint64]cl.Queue
	buffers  map[uint64]cl.Buffer
	programs map[uint64]cl.Program
	kernels  map[uint64]cl.Kernel
	events   map[uint64]cl.Event
	graphs   map[uint64]*sessGraph // cached command graphs (session-scoped)
	unitDevs map[uint32]cl.Device  // unit ID → device, fixed per daemon
	serves   map[uint64]*serveLane // serve lanes (connection-scoped)
	// serveProg memoizes each kernel's (source, name) fingerprint so the
	// per-job serve path never re-hashes program source.
	serveProg map[uint64]serve.Key
}

func newSession(d *Daemon, ep *gcf.Endpoint) *session {
	s := &session{
		d: d, ep: ep, conn: rpc.New(ep),
		contexts: map[uint64]cl.Context{},
		queues:   map[uint64]cl.Queue{},
		buffers:  map[uint64]cl.Buffer{},
		programs: map[uint64]cl.Program{},
		kernels:  map[uint64]cl.Kernel{},
		events:   map[uint64]cl.Event{},
		graphs:   map[uint64]*sessGraph{},
		unitDevs: map[uint32]cl.Device{},
		serves:   map[uint64]*serveLane{},
	}
	for i, dev := range d.devices {
		s.unitDevs[uint32(i)] = dev
	}
	d.registerSession(s)
	return s
}

func (s *session) start() {
	s.conn.Start(s.handle, s.onClose)
}

// onClose detaches the session: the connection is gone, but the object
// tables survive for the daemon's retention window (a zero window
// retires immediately, the pre-resilience behaviour).
func (s *session) onClose(error) {
	s.d.detachSession(s)
}

// failPendingEvents completes every still-pending user event (wait-list
// replacements, forward gates) with ServerLost and clears the event
// table: with the connection dead nobody can ever complete them, and a
// native queue command parked on one would wedge the queue — and every
// later Finish — forever.
func (s *session) failPendingEvents() {
	s.mu.Lock()
	events := s.events
	s.events = map[uint64]cl.Event{}
	s.mu.Unlock()
	for _, ev := range events {
		if ue, ok := ev.(cl.UserEvent); ok {
			// Already-completed events reject the status; that is fine.
			_ = ue.SetStatus(cl.CommandStatus(cl.ServerLost))
		}
	}
}

// retire releases session resources and reports an unreleased lease to
// the device manager (abnormal client termination, Section IV-C).
func (s *session) retire() {
	s.mu.Lock()
	authID := s.authID
	queues := make([]cl.Queue, 0, len(s.queues))
	for _, q := range s.queues {
		queues = append(queues, q)
	}
	s.mu.Unlock()
	for _, q := range queues {
		if err := q.Release(); err != nil {
			s.d.logf("daemon %s: queue release: %v", s.d.cfg.Name, err)
		}
	}
	s.releaseGraphs()
	if authID != "" && s.d.cfg.Managed && s.d.HasLease(authID) {
		s.d.Revoke(authID)
		s.d.reportInvalidatedLease(authID)
	}
}

// respond sends a response with the given status and optional body fields.
func (s *session) respond(id uint32, typ protocol.MsgType, status cl.ErrorCode, fill func(*protocol.Writer)) {
	if err := s.conn.Reply(id, typ, status, fill); err != nil {
		s.d.logf("daemon %s: response send failed: %v", s.d.cfg.Name, err)
	}
}

// fail sends an error response derived from err.
func (s *session) fail(id uint32, typ protocol.MsgType, err error) {
	s.respond(id, typ, cl.CodeOf(err), nil)
}

// notifyCommandFailed pushes the deferred error report for a failed
// one-way command: the client records it against the queue (surfaced at
// the next Finish) and fails the command's event stub, if any. One-way
// commands never get success responses, so this notification is the only
// traffic a failure produces.
func (s *session) notifyCommandFailed(queueID, eventID uint64, typ protocol.MsgType, err error) {
	serr := s.conn.Notify(protocol.MsgCommandFailed, func(w *protocol.Writer) {
		protocol.PutCommandFailure(w, protocol.CommandFailure{
			QueueID: queueID,
			EventID: eventID,
			Op:      typ,
			Status:  int32(cl.CodeOf(err)),
			Msg:     err.Error(),
		})
	})
	if serr != nil {
		s.d.logf("daemon %s: failure notification failed: %v", s.d.cfg.Name, serr)
	}
}

// replyErr reports a failed command: an error response for requests, a
// deferred MsgCommandFailed notification for one-way commands.
func (s *session) replyErr(id uint32, oneway bool, typ protocol.MsgType, queueID, eventID uint64, err error) {
	if oneway {
		s.notifyCommandFailed(queueID, eventID, typ, err)
		return
	}
	s.fail(id, typ, err)
}

// badFrame handles a one-way message whose body failed to decode: the
// parsed IDs are garbage, so a failure report would be misdirected (or
// collide with a live event) — log and drop instead.
func (s *session) badFrame(typ protocol.MsgType) {
	s.d.logf("daemon %s: malformed one-way %s frame dropped", s.d.cfg.Name, typ)
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

// notifyEvent pushes an event-completion notification (the daemon-side
// half of the paper's clSetEventCallback mechanism).
func (s *session) notifyEvent(eventID uint64, status cl.CommandStatus) {
	err := s.conn.Notify(protocol.MsgEventComplete, func(w *protocol.Writer) {
		w.U64(eventID)
		w.I32(int32(status))
	})
	if err != nil {
		s.d.logf("daemon %s: event notification failed: %v", s.d.cfg.Name, err)
	}
}

// registerEvent stores a native event under the client's ID and arranges a
// completion notification.
func (s *session) registerEvent(eventID uint64, ev cl.Event) {
	if eventID == 0 {
		return
	}
	s.mu.Lock()
	s.events[eventID] = ev
	s.mu.Unlock()
	if err := ev.SetCallback(cl.Complete, func(e cl.Event, st cl.CommandStatus) {
		s.notifyEvent(eventID, st)
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

// handle dispatches one request message. It runs on the endpoint's
// dispatch goroutine; blocking operations (Finish) spawn goroutines so the
// dispatcher stays responsive.
//
// One-way commands (ClassOneWay) are processed in arrival order exactly
// like requests, but no response is synthesized: success is silent and
// failures are pushed back as MsgCommandFailed notifications. The
// command-path operations are served in this class only; the dispatch
// order relative to a later Finish request is what makes Finish a
// correct synchronization point for the whole pipeline.
func (s *session) handle(env protocol.Envelope) {
	if env.Class == protocol.ClassOneWay {
		s.handleOneWay(env)
		return
	}
	if env.Class != protocol.ClassRequest {
		return
	}
	r := env.Body
	switch env.Type {
	case protocol.MsgHello:
		s.handleHello(env.ID, r)
	case protocol.MsgAttachSession:
		s.handleAttachSession(env.ID, r)
	case protocol.MsgGetServerInfo:
		s.respond(env.ID, env.Type, cl.Success, func(w *protocol.Writer) {
			w.String(s.d.cfg.Name)
			w.Bool(s.d.cfg.Managed)
			w.U32(uint32(len(s.d.devices)))
		})
	case protocol.MsgCreateContext:
		s.handleCreateContext(env.ID, r)
	case protocol.MsgReleaseContext:
		s.handleRelease(env.ID, env.Type, r.U64())
	case protocol.MsgCreateQueue:
		s.handleCreateQueue(env.ID, r)
	case protocol.MsgReleaseQueue:
		s.handleRelease(env.ID, env.Type, r.U64())
	case protocol.MsgCreateBuffer:
		s.handleCreateBuffer(env.ID, r)
	case protocol.MsgReleaseBuffer:
		s.handleRelease(env.ID, env.Type, r.U64())
	case protocol.MsgCreateProgram:
		s.handleCreateProgram(env.ID, r)
	case protocol.MsgBuildProgram:
		s.handleBuildProgram(env.ID, r)
	case protocol.MsgReleaseProgram:
		s.handleRelease(env.ID, env.Type, r.U64())
	case protocol.MsgCreateKernel:
		s.handleCreateKernel(env.ID, false, r)
	case protocol.MsgSetKernelArg:
		s.handleSetKernelArg(env.ID, false, r)
	case protocol.MsgFinish:
		s.handleFinish(env.ID, r)
	case protocol.MsgCreateUserEvent:
		s.handleCreateUserEvent(env.ID, r)
	case protocol.MsgSetUserEventStatus:
		s.handleSetUserEventStatus(env.ID, r)
	case protocol.MsgServeOpen:
		s.handleServeOpen(env.ID, r)
	default:
		// Everything else — the enqueue, flush and kernel/event release
		// commands included — is not served in request class: rejected,
		// never executed.
		if env.Type == protocol.MsgEnqueueWrite {
			// Its payload may already be in flight behind the frame.
			if e := protocol.GetEnqueue(r); r.Err() == nil {
				s.drainStream(e.Cmd.StreamID)
			}
		}
		s.respond(env.ID, env.Type, cl.InvalidOperation, nil)
	}
}

// handleOneWay dispatches a fire-and-forget command. Only the command
// path supports this class; anything else is logged and dropped (there is
// no requester to answer).
func (s *session) handleOneWay(env protocol.Envelope) {
	r := env.Body
	switch env.Type {
	case protocol.MsgCreateKernel:
		// Pipelined kernel plumbing: the client compiles the program
		// locally (MiniCL is deterministic) and already has the argument
		// metadata the response would carry, so creation, argument
		// binding and release ride the ordered one-way stream and cost
		// no round trips on the launch hot path.
		s.handleCreateKernel(0, true, r)
	case protocol.MsgSetKernelArg:
		s.handleSetKernelArg(0, true, r)
	case protocol.MsgReleaseKernel:
		s.handleReleaseKernel(r)
	case protocol.MsgEnqueueWrite, protocol.MsgEnqueueRead, protocol.MsgEnqueueCopy,
		protocol.MsgEnqueueKernel, protocol.MsgEnqueueMarker, protocol.MsgEnqueueBarrier:
		s.handleEnqueue(env.Type, r)
	case protocol.MsgFlush:
		s.handleFlush(r)
	case protocol.MsgForwardBuffer:
		s.handleForwardBuffer(r)
	case protocol.MsgAcceptForward:
		s.handleAcceptForward(r)
	case protocol.MsgRegisterGraph:
		s.handleRegisterGraph(r)
	case protocol.MsgExecGraph:
		s.handleExecGraph(r)
	case protocol.MsgReleaseGraph:
		s.handleReleaseGraph(r)
	case protocol.MsgServeSubmit:
		s.handleServeSubmit(r)
	case protocol.MsgServeClose:
		s.handleServeClose(r)
	case protocol.MsgSetUserEventStatus:
		// One-way status set: used by the coherence layer to cancel a
		// superseded forward's gate ordered ahead of the commands that
		// follow it on this connection (a request/response round trip
		// would either block the enqueue path or lose that ordering).
		eventID := r.U64()
		status := cl.CommandStatus(r.I32())
		if r.Err() != nil {
			s.badFrame(protocol.MsgSetUserEventStatus)
			return
		}
		s.mu.Lock()
		ev := s.events[eventID]
		s.mu.Unlock()
		if ue, ok := ev.(cl.UserEvent); ok {
			if err := ue.SetStatus(status); err != nil {
				s.d.logf("daemon %s: one-way event status: %v", s.d.cfg.Name, err)
			}
		}
	case protocol.MsgReleaseEvent:
		eventID := r.U64()
		if r.Err() != nil {
			s.badFrame(protocol.MsgReleaseEvent)
			return
		}
		s.mu.Lock()
		delete(s.events, eventID)
		s.mu.Unlock()
	case protocol.MsgGoodbye:
		// Deliberate disconnect: no point retaining the session for a
		// re-attach that will never come. The goodbye can be dispatched
		// AFTER the connection's close already detached the session (the
		// close notice runs on the read goroutine, dispatch on its own),
		// so a session already parked is retired here.
		s.mu.Lock()
		s.noRetain = true
		s.mu.Unlock()
		s.d.retireIfDetached(s)
	default:
		s.d.logf("daemon %s: unsupported one-way message %s", s.d.cfg.Name, env.Type)
	}
}

func (s *session) handleHello(id uint32, r *protocol.Reader) {
	clientName := r.String()
	authID := r.String()
	if r.Err() != nil {
		s.fail(id, protocol.MsgHello, cl.Errf(cl.InvalidValue, "bad hello"))
		return
	}
	recs, err := s.d.visibleRecords(authID)
	if err != nil {
		s.fail(id, protocol.MsgHello, err)
		return
	}
	s.mu.Lock()
	s.authID = authID
	s.clientNm = clientName
	s.mu.Unlock()
	s.respond(id, protocol.MsgHello, cl.Success, func(w *protocol.Writer) {
		w.String(s.d.cfg.Name)
		protocol.PutDeviceRecords(w, recs)
		// Peer data-plane capabilities: where peers reach this daemon's
		// bulk plane, and whether it can originate forwards itself.
		w.String(s.d.cfg.PeerAddr)
		w.Bool(s.d.CanForward())
		// Session identity for the re-attach handshake.
		w.U64(s.id)
	})
}

// handleAttachSession re-binds a client to its daemon-side state after
// the original connection died. When the named session is still parked
// (retention window), its object tables are adopted onto this connection
// and retained=true tells the client every remote object — and the data
// in its buffers — survived. Otherwise this is a fresh, empty session
// (daemon restarted or the session expired) and the client re-creates
// its objects.
func (s *session) handleAttachSession(id uint32, r *protocol.Reader) {
	sid := r.U64()
	clientName := r.String()
	authID := r.String()
	if r.Err() != nil {
		s.fail(id, protocol.MsgAttachSession, cl.Errf(cl.InvalidValue, "bad attach"))
		return
	}
	recs, err := s.d.visibleRecords(authID)
	if err != nil {
		s.fail(id, protocol.MsgAttachSession, err)
		return
	}
	retained := false
	if old := s.d.takeDetachedSession(sid); old != nil {
		// The session ID is the (unguessable, random) credential; the
		// authentication ID must match on top — a lease holder must not
		// be able to adopt another client's session even with a leaked ID.
		old.mu.Lock()
		oldAuth := old.authID
		old.mu.Unlock()
		if oldAuth != authID {
			s.d.reparkSession(old) // back on the shelf for its rightful owner
			s.fail(id, protocol.MsgAttachSession, cl.Errf(cl.InvalidServer, "session credentials rejected"))
			return
		}
		// Adopt the parked tables. The old session's endpoint is dead and
		// its event table was cleared at detach, so nothing still routes
		// through it.
		old.mu.Lock()
		contexts, queues, buffers := old.contexts, old.queues, old.buffers
		programs, kernels, graphs := old.programs, old.kernels, old.graphs
		old.contexts = map[uint64]cl.Context{}
		old.queues = map[uint64]cl.Queue{}
		old.buffers = map[uint64]cl.Buffer{}
		old.programs = map[uint64]cl.Program{}
		old.kernels = map[uint64]cl.Kernel{}
		old.graphs = map[uint64]*sessGraph{}
		old.mu.Unlock()
		s.mu.Lock()
		s.contexts, s.queues, s.buffers = contexts, queues, buffers
		s.programs, s.kernels, s.graphs = programs, kernels, graphs
		s.mu.Unlock()
		retained = true
	}
	s.mu.Lock()
	s.authID = authID
	s.clientNm = clientName
	s.mu.Unlock()
	s.respond(id, protocol.MsgAttachSession, cl.Success, func(w *protocol.Writer) {
		w.String(s.d.cfg.Name)
		w.Bool(retained)
		protocol.PutDeviceRecords(w, recs)
		w.String(s.d.cfg.PeerAddr)
		w.Bool(s.d.CanForward())
		w.U64(s.id)
	})
	s.d.logf("daemon %s: session %d attach (was %d, retained=%v)", s.d.cfg.Name, s.id, sid, retained)
}

// handleForwardBuffer executes the source half of a peer transfer: read
// the buffer region on the command's queue (so the read sequences after
// the waits like any other command), then stream the bytes directly to
// the peer daemon. One-way only — the client's link carries this command
// and nothing else; failures come back as deferred MsgCommandFailed
// notifications plus the completion event's failure status.
func (s *session) handleForwardBuffer(r *protocol.Reader) {
	f := protocol.GetForwardBuffer(r)
	if r.Err() != nil {
		s.badFrame(protocol.MsgForwardBuffer)
		return
	}
	failFwd := func(err error) {
		s.notifyCommandFailed(f.QueueID, f.EventID, protocol.MsgForwardBuffer, err)
	}
	if s.d.peers == nil {
		failFwd(cl.Errf(cl.InvalidOperation, "daemon %s has no peer data plane", s.d.cfg.Name))
		return
	}
	s.mu.Lock()
	q := s.queues[f.QueueID]
	s.mu.Unlock()
	if q == nil {
		failFwd(cl.Errf(cl.InvalidCommandQueue, "unknown queue %d", f.QueueID))
		return
	}
	offset, size := int(f.SrcOffset), int(f.Size)
	buf, err := s.bufferRange(f.SrcBufID, offset, size)
	if err != nil {
		failFwd(err)
		return
	}
	waits, err := s.resolveWaits(f.WaitIDs)
	if err != nil {
		failFwd(err)
		return
	}
	// done is the client-visible completion event: it fires only after
	// the payload has been handed to the peer transport, not when the
	// local device read finishes.
	done := native.NewUserEvent()
	hdr := protocol.PeerTransfer{Token: f.Token, BufID: f.DstBufID, Offset: f.DstOffset, Size: f.Size}
	// The source side stages the full region, like the enqueue-read path
	// (the device read is one queue command); the receive side streams
	// without staging. The send path references the pooled block
	// zero-copy — forwardPayload returns it to the pool once the
	// transport is done with it. Windowed source staging for multi-GB
	// forwards is future work.
	_, err = readStaged(q, buf, offset, size, waits, func(staged []byte, st cl.CommandStatus) {
		if staged == nil {
			failFwd(cl.Errf(cl.ErrorCode(st), "forward source read failed"))
			if serr := done.SetStatus(st); serr != nil {
				s.d.logf("daemon %s: forward done status: %v", s.d.cfg.Name, serr)
			}
			return
		}
		// Stream off the event-callback goroutine: a slow peer link must
		// not stall the native queue's completion path.
		go s.d.forwardPayload(f.PeerAddr, hdr, staged, func() { gcf.PutPayload(staged) }, done, failFwd)
	})
	if err != nil {
		failFwd(err)
		return
	}
	s.registerEvent(f.EventID, done)
}

// handleAcceptForward executes the target half of a peer transfer:
// validate the client's announcement, create the gating user event that
// dependent commands wait on, and register the pending transfer for
// rendezvous with the peer's payload.
func (s *session) handleAcceptForward(r *protocol.Reader) {
	a := protocol.GetAcceptForward(r)
	if r.Err() != nil {
		s.badFrame(protocol.MsgAcceptForward)
		return
	}
	failAcc := func(err error) {
		s.notifyCommandFailed(a.QueueID, a.EventID, protocol.MsgAcceptForward, err)
	}
	offset, size := int(a.Offset), int(a.Size)
	buf, err := s.bufferRange(a.BufID, offset, size)
	if err != nil {
		failAcc(err)
		return
	}
	gate := newForwardGate()
	s.registerEvent(a.EventID, gate)
	s.d.registerForward(&pendingForward{
		sess: s, buf: buf, bufID: a.BufID,
		offset: offset, size: size,
		token: a.Token, eventID: a.EventID, gate: gate,
	})
}

func (s *session) handleCreateContext(id uint32, r *protocol.Reader) {
	ctxID := r.U64()
	unitIDs := r.U64s()
	if r.Err() != nil {
		s.fail(id, protocol.MsgCreateContext, cl.Errf(cl.InvalidValue, "bad create context"))
		return
	}
	devs := make([]cl.Device, 0, len(unitIDs))
	s.mu.Lock()
	for _, u := range unitIDs {
		dev, ok := s.unitDevs[uint32(u)]
		if !ok {
			s.mu.Unlock()
			s.fail(id, protocol.MsgCreateContext, cl.Errf(cl.InvalidDevice, "unknown device unit %d", u))
			return
		}
		devs = append(devs, dev)
	}
	s.mu.Unlock()
	ctx, err := s.d.cfg.Platform.CreateContext(devs)
	if err != nil {
		s.fail(id, protocol.MsgCreateContext, err)
		return
	}
	s.mu.Lock()
	s.contexts[ctxID] = ctx
	s.mu.Unlock()
	s.respond(id, protocol.MsgCreateContext, cl.Success, nil)
}

func (s *session) handleCreateQueue(id uint32, r *protocol.Reader) {
	queueID := r.U64()
	ctxID := r.U64()
	unitID := uint32(r.U64())
	s.mu.Lock()
	ctx := s.contexts[ctxID]
	dev := s.unitDevs[unitID]
	s.mu.Unlock()
	if ctx == nil || dev == nil {
		s.fail(id, protocol.MsgCreateQueue, cl.Errf(cl.InvalidContext, "unknown context or device"))
		return
	}
	q, err := ctx.CreateQueue(dev)
	if err != nil {
		s.fail(id, protocol.MsgCreateQueue, err)
		return
	}
	s.mu.Lock()
	s.queues[queueID] = q
	s.mu.Unlock()
	s.respond(id, protocol.MsgCreateQueue, cl.Success, nil)
}

func (s *session) handleCreateBuffer(id uint32, r *protocol.Reader) {
	bufID := r.U64()
	ctxID := r.U64()
	flags := cl.MemFlags(r.U32())
	size := int(r.I64())
	streamID := r.U32()
	s.mu.Lock()
	ctx := s.contexts[ctxID]
	s.mu.Unlock()
	if ctx == nil {
		s.fail(id, protocol.MsgCreateBuffer, cl.Errf(cl.InvalidContext, "unknown context %d", ctxID))
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
	if existing != nil && existing.Size() == size && streamID == 0 {
		s.respond(id, protocol.MsgCreateBuffer, cl.Success, nil)
		return
	}
	var host []byte
	if flags&cl.MemCopyHostPtr != 0 && streamID != 0 {
		// Initial contents arrive on a gcf stream (the paper's synchronous
		// request/response + bulk data pattern). CreateBuffer copies host
		// into the backing store, so pooled staging is safe.
		if size <= 0 {
			s.drainStream(streamID)
			s.fail(id, protocol.MsgCreateBuffer, cl.Errf(cl.InvalidBufferSize, "buffer size %d", size))
			return
		}
		host = gcf.GetPayload(size)
		gate, err := s.stage(streamID, host, nil)
		if err == nil {
			err = gate.Wait()
		}
		if err != nil {
			gcf.PutPayload(host)
			s.fail(id, protocol.MsgCreateBuffer, cl.Errf(cl.InvalidValue, "buffer init transfer: %v", err))
			return
		}
	} else {
		flags &^= cl.MemCopyHostPtr
	}
	buf, err := ctx.CreateBuffer(flags, size, host)
	if host != nil {
		gcf.PutPayload(host)
	}
	if err != nil {
		s.fail(id, protocol.MsgCreateBuffer, err)
		return
	}
	s.mu.Lock()
	s.buffers[bufID] = buf
	s.mu.Unlock()
	s.respond(id, protocol.MsgCreateBuffer, cl.Success, nil)
}

func (s *session) handleCreateProgram(id uint32, r *protocol.Reader) {
	progID := r.U64()
	ctxID := r.U64()
	src := r.String()
	s.mu.Lock()
	ctx := s.contexts[ctxID]
	s.mu.Unlock()
	if ctx == nil {
		s.fail(id, protocol.MsgCreateProgram, cl.Errf(cl.InvalidContext, "unknown context %d", ctxID))
		return
	}
	prog, err := ctx.CreateProgramWithSource(src)
	if err != nil {
		s.fail(id, protocol.MsgCreateProgram, err)
		return
	}
	s.mu.Lock()
	old := s.programs[progID]
	s.programs[progID] = prog
	s.mu.Unlock()
	if old != nil {
		// Overwrite under the same ID (re-attach recovery replicates all
		// live programs): release the replaced native object.
		if rerr := old.Release(); rerr != nil {
			s.d.logf("daemon %s: replaced program release: %v", s.d.cfg.Name, rerr)
		}
	}
	s.respond(id, protocol.MsgCreateProgram, cl.Success, nil)
}

func (s *session) handleBuildProgram(id uint32, r *protocol.Reader) {
	progID := r.U64()
	options := r.String()
	s.mu.Lock()
	prog := s.programs[progID]
	s.mu.Unlock()
	if prog == nil {
		s.fail(id, protocol.MsgBuildProgram, cl.Errf(cl.InvalidProgram, "unknown program %d", progID))
		return
	}
	if err := prog.Build(nil, options); err != nil {
		// Carry the build log in the error response body.
		logText := ""
		if len(s.d.devices) > 0 {
			logText = prog.BuildLog(s.d.devices[0])
		}
		s.respond(id, protocol.MsgBuildProgram, cl.CodeOf(err), func(w *protocol.Writer) { w.String(logText) })
		return
	}
	s.respond(id, protocol.MsgBuildProgram, cl.Success, func(w *protocol.Writer) {
		w.String("build succeeded")
	})
}

func (s *session) handleCreateKernel(id uint32, oneway bool, r *protocol.Reader) {
	kernelID := r.U64()
	progID := r.U64()
	name := r.String()
	s.mu.Lock()
	prog := s.programs[progID]
	s.mu.Unlock()
	if prog == nil {
		s.replyErr(id, oneway, protocol.MsgCreateKernel, 0, 0, cl.Errf(cl.InvalidProgram, "unknown program %d", progID))
		return
	}
	k, err := prog.CreateKernel(name)
	if err != nil {
		s.replyErr(id, oneway, protocol.MsgCreateKernel, 0, 0, err)
		return
	}
	s.mu.Lock()
	old := s.kernels[kernelID]
	s.kernels[kernelID] = k
	s.mu.Unlock()
	if old != nil {
		// Overwrite under the same ID (re-attach recovery re-creates
		// kernels): release the replaced native object, or every
		// re-attach would leak one kernel per kernel.
		if rerr := old.Release(); rerr != nil {
			s.d.logf("daemon %s: replaced kernel release: %v", s.d.cfg.Name, rerr)
		}
	}
	if oneway {
		return
	}
	s.respond(id, protocol.MsgCreateKernel, cl.Success, func(w *protocol.Writer) {
		nk := k.(*native.Kernel)
		protocol.PutArgInfo(w, nk.ArgInfo())
	})
}

func (s *session) handleSetKernelArg(id uint32, oneway bool, r *protocol.Reader) {
	a := protocol.GetSetKernelArg(r)
	s.mu.Lock()
	k, ok := s.kernels[a.KernelID].(*native.Kernel)
	s.mu.Unlock()
	var err error
	switch {
	case r.Err() != nil:
		err = cl.Errf(cl.InvalidValue, "bad set kernel arg")
	case !ok:
		err = cl.Errf(cl.InvalidKernel, "unknown kernel %d", a.KernelID)
	default:
		err = s.bindArg(k, int(a.Index), a.Arg)
	}
	if err != nil {
		s.replyErr(id, oneway, protocol.MsgSetKernelArg, 0, 0, err)
		return
	}
	// One-way commands are acknowledged by silence (ack only on error).
	if !oneway {
		s.respond(id, protocol.MsgSetKernelArg, cl.Success, nil)
	}
}

func (s *session) handleFinish(id uint32, r *protocol.Reader) {
	queueID := r.U64()
	s.mu.Lock()
	q := s.queues[queueID]
	s.mu.Unlock()
	if q == nil {
		s.fail(id, protocol.MsgFinish, cl.Errf(cl.InvalidCommandQueue, "unknown queue %d", queueID))
		return
	}
	// Finish blocks; run it off the dispatcher so other requests (e.g.
	// user-event completions that unblock the queue) keep flowing.
	go func() {
		if err := q.Finish(); err != nil {
			s.fail(id, protocol.MsgFinish, err)
			return
		}
		s.respond(id, protocol.MsgFinish, cl.Success, nil)
	}()
}

func (s *session) handleFlush(r *protocol.Reader) {
	queueID := r.U64()
	if r.Err() != nil {
		s.badFrame(protocol.MsgFlush)
		return
	}
	s.mu.Lock()
	q := s.queues[queueID]
	s.mu.Unlock()
	if q == nil {
		s.notifyCommandFailed(queueID, 0, protocol.MsgFlush, cl.Errf(cl.InvalidCommandQueue, "unknown queue %d", queueID))
		return
	}
	if err := q.Flush(); err != nil {
		s.notifyCommandFailed(queueID, 0, protocol.MsgFlush, err)
		return
	}
}

func (s *session) handleCreateUserEvent(id uint32, r *protocol.Reader) {
	eventID := r.U64()
	ctxID := r.U64()
	s.mu.Lock()
	ctx := s.contexts[ctxID]
	s.mu.Unlock()
	if ctx == nil {
		s.fail(id, protocol.MsgCreateUserEvent, cl.Errf(cl.InvalidContext, "unknown context %d", ctxID))
		return
	}
	ue, err := ctx.CreateUserEvent()
	if err != nil {
		s.fail(id, protocol.MsgCreateUserEvent, err)
		return
	}
	s.mu.Lock()
	s.events[eventID] = ue
	s.mu.Unlock()
	s.respond(id, protocol.MsgCreateUserEvent, cl.Success, nil)
}

func (s *session) handleSetUserEventStatus(id uint32, r *protocol.Reader) {
	eventID := r.U64()
	status := cl.CommandStatus(r.I32())
	s.mu.Lock()
	ev := s.events[eventID]
	s.mu.Unlock()
	ue, ok := ev.(cl.UserEvent)
	if !ok {
		s.fail(id, protocol.MsgSetUserEventStatus, cl.Errf(cl.InvalidEvent, "event %d is not a user event", eventID))
		return
	}
	if err := ue.SetStatus(status); err != nil {
		s.fail(id, protocol.MsgSetUserEventStatus, err)
		return
	}
	s.respond(id, protocol.MsgSetUserEventStatus, cl.Success, nil)
}

// handleRelease releases a context, queue, buffer or program by ID.
func (s *session) handleRelease(id uint32, typ protocol.MsgType, objID uint64) {
	s.mu.Lock()
	var err error
	switch typ {
	case protocol.MsgReleaseContext:
		if ctx := s.contexts[objID]; ctx != nil {
			err = ctx.Release()
		}
		delete(s.contexts, objID)
	case protocol.MsgReleaseQueue:
		if q := s.queues[objID]; q != nil {
			err = q.Release()
		}
		delete(s.queues, objID)
	case protocol.MsgReleaseBuffer:
		if b := s.buffers[objID]; b != nil {
			err = b.Release()
		}
		delete(s.buffers, objID)
	case protocol.MsgReleaseProgram:
		if p := s.programs[objID]; p != nil {
			err = p.Release()
		}
		delete(s.programs, objID)
	}
	s.mu.Unlock()
	if err != nil {
		s.fail(id, typ, err)
		return
	}
	s.respond(id, typ, cl.Success, nil)
}

// handleReleaseKernel releases a kernel; it rides the ordered one-way
// stream behind the launches that use it.
func (s *session) handleReleaseKernel(r *protocol.Reader) {
	kernelID := r.U64()
	if r.Err() != nil {
		s.badFrame(protocol.MsgReleaseKernel)
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
		s.notifyCommandFailed(0, 0, protocol.MsgReleaseKernel, err)
	}
}
