package client

import (
	"sync"

	"dopencl/internal/cl"
	"dopencl/internal/coherence"
	"dopencl/internal/native"
	"dopencl/internal/protocol"
)

// Event is the client-side stub of a remote event, implementing the
// paper's event-consistency protocol (Section III-D):
//
//   - the original event lives on the server that executes the command
//     (origin); its completion is pushed to the client via a
//     clSetEventCallback-style notification;
//   - on every other server where the event is needed in a wait list, the
//     client creates a *user event* as a replacement;
//   - when the original completes, the client sets the status of every
//     replacement, making the event status consistent on all servers.
//
// Application-created user events (Context.CreateUserEvent) are Events
// with no origin: the application completes them and the client fans the
// status out to all replacements.
type Event struct {
	latch *native.Event // local completion latch (Wait/Status/SetCallback)
	ctx   *Context

	origin   *Server // server owning the original event; nil for client user events
	originID uint64

	mu           sync.Mutex
	replacements map[*Server]replEntry // server → replacement user event; nil until the first
	notified     map[*Server]bool      // replacements already told the final status
	final        cl.CommandStatus
	settled      bool // settle ran: final is the status
	completed    bool

	// claims are the directory effects of the command, run by settle
	// before the latch completes, so nothing woken by a failure can read
	// through a claim the failed command never made good. Most commands
	// write one range: its record rides inline.
	claims   []claim
	claimBuf [1]claim
}

// claim is one optimistic directory claim (Buffer.markRangeWrittenBy):
// what RollbackClaim needs to undo it — or, with effect set, another
// directory effect of the command's final status (settleWith).
type claim struct {
	root     *Buffer
	srv      *Server
	off, end int
	gen      uint64
	snap     coherence.Snapshot
	effect   func(cl.CommandStatus)
}

// replEntry is one replacement user event, stamped with the server's
// connection generation: the daemon drops its event table when a
// connection dies, so a replacement created against an earlier
// connection no longer exists remotely and must be re-created (and must
// not be notified — nothing waits on it any more).
type replEntry struct {
	id  uint64
	gen uint64
}

var _ cl.Event = (*Event)(nil)

// newRemoteEvent creates the stub for a command enqueued on origin. The
// completion hook must be registered with origin before the enqueue
// request is sent.
func newRemoteEvent(ctx *Context, origin *Server, originID uint64) *Event {
	return &Event{latch: native.NewEvent(), ctx: ctx, origin: origin, originID: originID}
}

// newUserEventStub creates a client-side user event (no origin server).
func newUserEventStub(ctx *Context) *UserEvent {
	return &UserEvent{Event{latch: native.NewEvent(), ctx: ctx}}
}

// Status returns the local view of the event status.
func (e *Event) Status() cl.CommandStatus { return e.latch.Status() }

// Settled reports successful completion (coherence.Gate: a settled
// write gates nothing and may be dropped from the directory).
func (e *Event) Settled() bool { return e.Status() == cl.Complete }

// Wait blocks until the event completes. Waiting on an event is waiting on
// the server that runs its command, so a deferred object-plane failure that
// server has reported (Server.takeQueueError of queue 0) is returned here, once, in
// place of the event's own status: a command that names an object whose
// pipelined create was refused fails because of that refusal.
func (e *Event) Wait() error {
	err := e.latch.Wait()
	if e.origin != nil {
		if serr := e.origin.takeQueueError(0); serr != nil {
			return serr
		}
	}
	return err
}

// settle waits for w like w.Wait, without taking a deferred failure off its
// server: for waits whose error is not the application's to see.
func settle(w cl.Event) error {
	if e, ok := w.(*Event); ok {
		return e.latch.Wait()
	}
	return w.Wait()
}

// SetCallback registers a completion callback.
func (e *Event) SetCallback(status cl.CommandStatus, fn func(cl.Event, cl.CommandStatus)) error {
	return e.latch.SetCallback(status, func(_ cl.Event, st cl.CommandStatus) { fn(e, st) })
}

// Release drops the client's reference to the event. The remote original
// is released asynchronously; replacements are kept until completion.
func (e *Event) Release() error {
	if e.origin != nil {
		return e.origin.send(protocol.MsgReleaseEvent, func(w *protocol.Writer) {
			w.U64(e.originID)
		})
	}
	return nil
}

// complete is the notification hook: it settles the command's directory
// effects, propagates the status to every replacement user event and
// finalises the local latch.
func (e *Event) complete(status cl.CommandStatus) {
	e.settle(status)
	e.mu.Lock()
	if e.completed {
		e.mu.Unlock()
		return
	}
	e.completed = true
	var targets []replTarget
	for srv, re := range e.replacements {
		if !e.notified[srv] {
			e.notified[srv] = true
			targets = append(targets, replTarget{srv, re})
		}
	}
	e.mu.Unlock()

	for _, t := range targets {
		// A replacement from an earlier connection died with the daemon's
		// event table — nothing waits on it, and notifying the stale ID
		// would hit an unrelated error.
		if t.re.gen != t.srv.generation() {
			continue
		}
		e.setReplacementStatus(t.srv, t.re.id, status)
	}
	if status == cl.Complete {
		e.latch.Complete(nil)
	} else {
		e.latch.Complete(&cl.Error{Code: cl.ErrorCode(status), Msg: "remote command failed"})
	}
}

// replTarget is a replacement complete still has to notify.
type replTarget struct {
	srv *Server
	re  replEntry
}

// settle runs the command's directory effects for its final status, once:
// the rollback of its claims if it failed, and the effects settleWith
// recorded. complete runs it first, and a connection's close notice runs
// it for every event of the connection before Down closes (onClose).
func (e *Event) settle(status cl.CommandStatus) {
	e.mu.Lock()
	if e.settled {
		e.mu.Unlock()
		return
	}
	e.settled, e.final = true, status
	claims := e.claims
	e.claims = nil
	e.mu.Unlock()
	for i := range claims {
		if c := &claims[i]; c.effect != nil {
			c.effect(status)
		} else if status != cl.Complete {
			c.rollback(e, status)
		}
	}
}

// settleWith records fn as a directory effect of the command's final
// status, run by settle — at once if the event has already settled.
func (e *Event) settleWith(fn func(cl.CommandStatus)) {
	if recorded, st := e.addClaim(claim{effect: fn}); !recorded {
		fn(st)
	}
}

// addClaim records a directory claim of the command for rollback on
// failure. It reports false, recording nothing, when the event has already
// settled — the caller then settles the claim itself by the final status.
func (e *Event) addClaim(c claim) (recorded bool, final cl.CommandStatus) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.settled {
		return false, e.final
	}
	if e.claims == nil {
		e.claims = e.claimBuf[:0]
	}
	e.claims = append(e.claims, c)
	return true, 0
}

// rollback undoes the claim of ev, whose command failed with st. A
// command that died with its connection (cl.ServerLost: the daemon
// reported nothing) is not undone — whether it ran is the daemon's to
// know, and its copy counts again, like every other the server holds, if
// a re-attach finds the session retained.
func (c *claim) rollback(ev *Event, st cl.CommandStatus) {
	if cl.ErrorCode(st) == cl.ServerLost {
		return
	}
	c.root.mu.Lock()
	c.root.coh.RollbackClaim(c.srv, ev, c.off, c.end, c.gen, c.snap)
	c.root.mu.Unlock()
}

// setReplacementStatus tells srv the final status of the replacement
// event id, one-way: it rides the ordered stream like any command, and a
// connection that dies with it takes the replacement's event table along.
func (e *Event) setReplacementStatus(srv *Server, id uint64, status cl.CommandStatus) {
	_ = srv.send(protocol.MsgSetUserEventStatus, func(w *protocol.Writer) {
		w.U64(id)
		w.I32(int32(status))
	})
}

// remoteIDFor returns the event ID that represents this event on server
// srv: the original ID when srv owns the event, otherwise the ID of a
// (possibly freshly created) user-event replacement on srv.
func (e *Event) remoteIDFor(srv *Server) (uint64, error) {
	if srv == e.origin {
		return e.originID, nil
	}
	// Create the replacement user event on srv in the remote context. A
	// cached replacement from an earlier connection is stale (the daemon
	// cleared its event table when that connection died) and is replaced.
	// The generation is sampled around the create call: if a re-attach
	// completed mid-flight it is ambiguous which session the event landed
	// in, and a wrongly-stamped replacement would either never be
	// notified (daemon command hangs) or be notified into the void —
	// so the creation is simply retried on a stable generation.
	rctxID, err := e.ctx.remoteContextID(srv)
	if err != nil {
		return 0, err
	}
	var gen uint64
	var id uint64
	for attempt := 0; ; attempt++ {
		gen = srv.generation()
		e.mu.Lock()
		if re, ok := e.replacements[srv]; ok && re.gen == gen {
			e.mu.Unlock()
			return re.id, nil
		}
		e.mu.Unlock()
		id = e.ctx.plat.newID()
		if _, err := srv.call(protocol.MsgCreateUserEvent, func(w *protocol.Writer) {
			w.U64(id)
			w.U64(rctxID)
		}); err != nil {
			return 0, err
		}
		if srv.generation() == gen {
			break
		}
		// Might live in the torn-down session; drop it (no-op there) and
		// recreate on the current connection.
		_ = srv.send(protocol.MsgReleaseEvent, func(w *protocol.Writer) { w.U64(id) })
		if attempt >= 4 {
			return 0, cl.Errf(cl.ServerLost, "server %s reconnected repeatedly during event replacement", srv.addr)
		}
	}

	e.mu.Lock()
	if existing, ok := e.replacements[srv]; ok && existing.gen == gen {
		// Lost a race with another creator; use theirs. The spare remote
		// user event is released.
		e.mu.Unlock()
		_ = srv.send(protocol.MsgReleaseEvent, func(w *protocol.Writer) { w.U64(id) })
		return existing.id, nil
	}
	if e.replacements == nil {
		e.replacements = map[*Server]replEntry{}
		e.notified = map[*Server]bool{}
	}
	e.replacements[srv] = replEntry{id: id, gen: gen}
	// A replacement re-created after a reconnect must learn the final
	// status even if an older replacement was already notified.
	needNotify := e.completed
	e.notified[srv] = e.completed
	status := e.final
	e.mu.Unlock()
	if needNotify {
		e.setReplacementStatus(srv, id, status)
	}
	return id, nil
}

// UserEvent is an application-controlled event (clCreateUserEvent) in the
// dOpenCL driver.
type UserEvent struct {
	Event
}

var _ cl.UserEvent = (*UserEvent)(nil)

// SetStatus completes the user event and propagates the status to all
// servers where the event is used.
func (u *UserEvent) SetStatus(s cl.CommandStatus) error {
	if s != cl.Complete && s >= 0 {
		return cl.Errf(cl.InvalidValue, "user event status must be Complete or negative, got %d", s)
	}
	u.complete(s)
	return nil
}

// translateWaitList maps a cl.Event wait list to remote event IDs valid on
// server srv, creating user-event replacements where needed.
func translateWaitList(srv *Server, waits []cl.Event) ([]uint64, error) {
	if len(waits) == 0 {
		return nil, nil
	}
	out := make([]uint64, 0, len(waits))
	for _, w := range waits {
		if w == nil {
			continue
		}
		ev, ok := w.(*Event)
		if !ok {
			if ue, isUser := w.(*UserEvent); isUser {
				ev = &ue.Event
			} else {
				return nil, cl.Errf(cl.InvalidEventWaitList, "foreign event type %T", w)
			}
		}
		id, err := ev.remoteIDFor(srv)
		if err != nil {
			return nil, err
		}
		out = append(out, id)
	}
	return out, nil
}
