// Package client implements the dOpenCL client driver (Section III of the
// paper): a drop-in implementation of the OpenCL API that forwards calls
// to daemons on remote servers.
//
// The driver provides:
//
//   - the uniform dOpenCL platform merging the devices of all connected
//     servers (Section III-E);
//   - simple stubs for devices and command queues, compound stubs for
//     contexts, programs and kernels (Section III-D);
//   - a directory-based MSI coherence protocol for buffer objects, with
//     the client as directory and remote buffers as caches;
//   - event consistency across servers via user-event replacements
//     completed on notification (Section III-D);
//   - a pipelined object plane as well as a pipelined command plane: stub
//     IDs are the client's, so creates and releases are one-way sends
//     (Server.send), so is a build — its verdict is the client's own
//     compile (kernel.Shared) — and only what the application waits for,
//     data or a finished queue, is a round trip (Server.call). What the
//     client can check it reports from the call itself; a daemon's
//     refusal is reported once by the next call that waits on that
//     server (Server.takeQueueError of queue 0);
//   - the connection API extension (clConnectServerWWU et al.), the server
//     configuration file, and device-manager assignment requests
//     (Section IV-B) over kept links: one per manager shard, which carries
//     the shard-map request, every grant and every release, and at most
//     one idle link per daemon, which a released lease leaves behind and
//     the next lease on that daemon binds to with a one-way Hello, its
//     device records taken from the grant (Platform.leaseServer). An idle
//     link closes with the platform's last manager link, so a warm lease
//     session waits for the grant alone and dials nothing.
package client

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dopencl/internal/cl"
	"dopencl/internal/coherence"
	"dopencl/internal/gcf"
	"dopencl/internal/protocol"
	"dopencl/internal/rpc"
)

// Server is a connected dOpenCL server: the client-side handle returned by
// ConnectServer (the cl_server_WWU of Listing 1).
type Server struct {
	plat   *Platform
	addr   string
	name   string
	authID string

	// Peer data-plane capabilities, learned in the Hello exchange:
	// peerAddr is where other daemons reach this daemon's bulk plane
	// (empty: cannot receive forwards); canForward reports whether the
	// daemon can originate forwards; peerKey names this client's
	// connection to the daemons forwarding to it (new with each
	// connection).
	peerAddr   string
	canForward bool
	peerKey    uint64

	// Control-plane frame counters (requests + one-way commands out,
	// responses + notifications in; bulk stream data is not counted). A
	// request is counted when its response arrives, both at once. Tests
	// use them to prove a graph replay costs one frame per iteration
	// where the eager path costs one per command.
	sentFrames atomic.Uint64
	recvFrames atomic.Uint64

	mu        sync.Mutex
	conn      *rpc.Conn                    // swapped on re-attach
	hooks     map[uint64]hook              // event ID → completion hook
	queueErrs map[uint64][]deferredFailure // queue ID (0: none) → deferred one-way failures (bounded)
	badPeers  map[string]bool              // peer addresses this daemon failed to reach
	serves    map[uint64]*ServeSession     // open serve lanes (connection-scoped)
	devices   []*Device

	// inc is the server's incarnation, published whole so that the region
	// directories read it with one atomic load (coherence.Incarnated); it
	// is written under mu. Conn counts connections: it advances on every
	// successful re-attach, retained or not, and at the end of a lease —
	// the daemon clears its event table with each, so event replacements
	// and directory gates of an older one are stale. Epoch counts
	// daemon-side state losses: it advances when a re-attach finds the
	// session not retained (restart, expiry) and at the end of a lease,
	// telling the directories that the copies made before are gone and
	// lazily-registered state (command graphs) that it must register
	// again. Up is the connection's liveness.
	inc atomic.Pointer[coherence.Incarnation]

	// Failure/recovery state. sessionID is the daemon-issued session
	// identity a re-attach's Hello resumes. downErr records why the
	// connection died; down is closed when it has and every command in
	// flight on it has failed (replaced on re-attach).
	sessionID   uint64
	downErr     error
	down        chan struct{}
	downClosed  bool
	reattaching bool // a Reattach is in flight; others must not race it
}

// deferredFailure is a recorded one-way command failure: the error plus
// the failed command's event ID (0 for event-less commands), so blocking
// callers that already delivered the error through their event can clear
// it without discarding failures of other pipelined commands.
type deferredFailure struct {
	eventID uint64
	err     error
}

// Addr returns the address the server was connected with.
func (s *Server) Addr() string { return s.addr }

// Name returns the server's self-reported name.
func (s *Server) Name() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.name
}

// Connected reports whether the server connection is alive.
func (s *Server) Connected() bool { return s.inc.Load().Up }

// Incarnation reports the server's incarnation (see inc) to the region
// directories (coherence.Incarnated).
func (s *Server) Incarnation() coherence.Incarnation { return *s.inc.Load() }

var _ coherence.Incarnated = (*Server)(nil)

// setIncLocked publishes the incarnation f makes of the current one.
func (s *Server) setIncLocked(f func(*coherence.Incarnation)) {
	inc := *s.inc.Load()
	f(&inc)
	s.inc.Store(&inc)
}

// Devices returns the devices this server exposes to this client.
func (s *Server) Devices() []*Device {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Device(nil), s.devices...)
}

// dialServer establishes the gcf session and performs the Hello exchange.
func dialServer(p *Platform, addr string, ep *gcf.Endpoint, authID string) (*Server, error) {
	s := &Server{
		plat:      p,
		addr:      addr,
		authID:    authID,
		hooks:     map[uint64]hook{},
		queueErrs: map[uint64][]deferredFailure{},
		badPeers:  map[string]bool{},
		down:      make(chan struct{}),
		// The handshake itself must pass the not-connected fast-fail gate
		// in call/send, like a re-attach handshake does.
		reattaching: true,
	}
	s.inc.Store(&coherence.Incarnation{})
	s.startConn(ep)

	a, err := s.hello(authID, 0)
	if err != nil {
		ep.Close()
		return nil, err
	}
	s.mu.Lock()
	for _, rec := range a.Devices {
		s.devices = append(s.devices, &Device{srv: s, unitID: rec.UnitID, info: rec.Info})
	}
	s.setIncLocked(func(inc *coherence.Incarnation) { inc.Up = true })
	s.reattaching = false
	s.mu.Unlock()
	return s, nil
}

// startConn makes ep the server's connection and launches its loops. The
// onClose closure captures the connection so a stale one's late close
// (after a re-attach replaced it) cannot tear down the live connection.
func (s *Server) startConn(ep *gcf.Endpoint) *rpc.Conn {
	c := rpc.New(ep)
	s.mu.Lock()
	s.conn = c
	s.mu.Unlock()
	c.Start(s.routes(), func(err error) { s.onClose(c, err) })
	if s.plat.opts.HeartbeatInterval > 0 && s.plat.opts.HeartbeatTimeout > 0 {
		ep.StartHeartbeat(s.plat.opts.HeartbeatInterval, s.plat.opts.HeartbeatTimeout)
	}
	return c
}

// markDownLocked records the death of connection c — seen by its close
// notice or by a call it failed, whichever comes first — and returns the
// typed loss. A stale connection's death leaves the server's state alone.
func (s *Server) markDownLocked(c *rpc.Conn, cause error) error {
	if s.conn != c {
		return cl.Errf(cl.ServerLost, "connection to %s lost: %v", s.addr, cause)
	}
	s.setIncLocked(func(inc *coherence.Incarnation) { inc.Up = false })
	if s.downErr == nil {
		s.downErr = cl.Errf(cl.ServerLost, "server %s connection lost: %v", s.addr, cause)
	}
	return s.downErr
}

// onClose is the ServerDown path: it marks the server and its devices
// unavailable — from here on the region directories count none of its
// copies, so ranges whose only valid copy lived here read as Lost and
// ranges with survivors re-home on their next use — and fails every
// in-flight command event with cl.ServerLost (the connection has already
// failed the pending calls).
func (s *Server) onClose(c *rpc.Conn, err error) {
	s.mu.Lock()
	if s.conn != c {
		// A stale connection (replaced by a re-attach) died late.
		s.mu.Unlock()
		return
	}
	s.markDownLocked(c, err)
	hooks := s.hooks
	s.hooks = map[uint64]hook{}
	serves := s.serves
	s.serves = nil
	down := s.down
	downClosed := s.downClosed
	s.downClosed = true
	s.mu.Unlock()
	s.plat.forgetIdle(s)
	for _, h := range hooks {
		if h.ev != nil {
			h.ev.settle(cl.CommandStatus(cl.ServerLost))
		}
		go h.fn(cl.CommandStatus(cl.ServerLost))
	}
	// Serve lanes are connection-scoped: fail their pending futures now —
	// the daemon's lane died with the connection and a re-attach will not
	// resurrect it.
	for _, ss := range serves {
		ss.connectionLost()
	}
	// Down closes last, once the failures have reached the directories: a
	// transfer that died with the connection has revoked the copy it was
	// making, so none counts again after a re-attach, which waits for Down.
	// It does not wait for their completions: a callback may wait for Down.
	if !downClosed {
		close(down)
	}
}

// Down returns a channel closed when the server's connection has died
// (replaced by a fresh channel on re-attach).
func (s *Server) Down() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down
}

// Epoch counts daemon-side state losses: it advances when a re-attach
// finds the daemon did not retain this client's session, and when the
// lease the server serves ends. Lazily registered state (command graphs)
// compares epochs to decide whether its daemon-side copy still exists, and
// the region directories count a copy only in the epoch it was made in.
func (s *Server) Epoch() uint64 { return s.inc.Load().Epoch }

// generation returns the connection generation (see inc).
func (s *Server) generation() uint64 { return s.inc.Load().Conn }

// endpoint returns the current connection's gcf endpoint (bulk streams).
func (s *Server) endpoint() *gcf.Endpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn.Endpoint()
}

// routes is all a daemon ever tells its client unasked: notifications.
func (s *Server) routes() rpc.Routes {
	return rpc.Routes{
		protocol.MsgCompleted:   {Notify: s.handleCompleted},
		protocol.MsgServeResult: {Notify: s.handleServeResult},
	}
}

// handleCompleted takes a completion notice. A failure is recorded under
// its queue (surfaced at the next Finish), or under queue 0 when it names
// neither a queue nor an event (an object-plane message: a create, a
// release, an argument binding, surfaced by the next call that waits on
// this server); one with an event but no queue only fails the event.
// Recording happens synchronously on the dispatch goroutine so a later
// Finish response cannot overtake the error. The event's hook runs on a
// goroutine of its own: it runs callbacks (possibly user code and
// cross-server propagation), and the dispatcher must stay free.
func (s *Server) handleCompleted(c rpc.Call) {
	s.recvFrames.Add(1)
	f := protocol.GetCompletion(c.Body)
	if c.Malformed() {
		return
	}
	s.mu.Lock()
	if f.Status < 0 && (f.QueueID != 0 || f.EventID == 0) && len(s.queueErrs[f.QueueID]) < 8 {
		// Keep the first few failures: a blocking caller may clear
		// its own entry, and that must not drop a concurrent
		// event-less command's error before the next Finish.
		err := cl.Errf(cl.ErrorCode(f.Status), "%s on %s failed: %s", f.Op, s.addr, f.Msg)
		s.queueErrs[f.QueueID] = append(s.queueErrs[f.QueueID], deferredFailure{eventID: f.EventID, err: err})
	}
	h := s.hooks[f.EventID]
	delete(s.hooks, f.EventID)
	s.mu.Unlock()
	if h.fn != nil {
		go h.fn(cl.CommandStatus(f.Status))
	}
}

// hook completes the client's side of a remote event: fn completes ev, if
// set, with a cl.ServerLost it is given, so a close notice can settle ev.
type hook struct {
	ev *Event
	fn func(cl.CommandStatus)
}

// registerHook installs the completion hook for a remote event ID (see
// hook). It must be called before the request that creates the remote
// event is sent. A hook registered against a dead server fails
// immediately with ServerLost — after the close notice nothing else would
// ever fire it, and a caller racing the shutdown must not park forever.
func (s *Server) registerHook(eventID uint64, ev *Event, fn func(cl.CommandStatus)) {
	s.mu.Lock()
	if !s.inc.Load().Up {
		s.mu.Unlock()
		go fn(cl.CommandStatus(cl.ServerLost))
		return
	}
	s.hooks[eventID] = hook{ev, fn}
	s.mu.Unlock()
}

// dropHook removes a registered hook (after a failed enqueue).
func (s *Server) dropHook(eventID uint64) {
	s.mu.Lock()
	delete(s.hooks, eventID)
	s.mu.Unlock()
}

// live returns the connection to talk on. Down servers fail fast with the
// typed loss — except while a Reattach is in flight, whose own handshake
// and recovery traffic must pass. (An application call racing that narrow
// window reaches the daemon early and gets object-level errors; everything
// before and after gets ServerLost.)
func (s *Server) live() (*rpc.Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.inc.Load().Up && !s.reattaching {
		if s.downErr != nil {
			return nil, s.downErr
		}
		return nil, cl.Errf(cl.ServerLost, "server %s disconnected", s.addr)
	}
	return s.conn, nil
}

// sendErr types a transmission failure on connection c: a lost connection
// is the server going down (cl.ServerLost, recoverable via re-attach) and
// is recorded as such here, whether or not the close notice has run yet —
// the caller sees a disconnected server the moment it sees the error.
// Anything else stays a generic server error.
func (s *Server) sendErr(c *rpc.Conn, err error) error {
	if errors.Is(err, rpc.ErrLost) {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.markDownLocked(c, err)
	}
	return cl.Errf(cl.InvalidServer, "send to %s failed: %v", s.addr, err)
}

// call performs a synchronous request/response exchange. The returned
// reader is positioned after the status field. The wait is bounded by the
// ServerDown signal: a dead or silently-partitioned daemon (the heartbeat
// path) cannot park a Finish forever.
func (s *Server) call(typ protocol.MsgType, fill func(*protocol.Writer)) (*protocol.Reader, error) {
	c, err := s.live()
	if err != nil {
		return nil, err
	}
	resp, err := c.Call(typ, 0, fill)
	if resp == nil {
		return nil, s.sendErr(c, err)
	}
	s.sentFrames.Add(1)
	s.recvFrames.Add(1)
	if err != nil {
		return resp, cl.Errf(cl.CodeOf(err), "%s on %s failed", typ, s.addr)
	}
	return resp, nil
}

// send fires a one-way request (fire-and-forget, Section III-B): no
// response is awaited or ever sent. The daemon processes one-way messages
// in order; failures come back asynchronously in MsgCompleted notices and
// surface through the command's event, the queue's next Finish or, for
// the object plane, the next wait on the server. Only local transmission
// failures are reported here.
func (s *Server) send(typ protocol.MsgType, fill func(*protocol.Writer)) error {
	c, err := s.live()
	if err != nil {
		return err
	}
	if err := c.OneWay(typ, fill); err != nil {
		return s.sendErr(c, err)
	}
	s.sentFrames.Add(1)
	return nil
}

// FrameCounts reports the control-plane frames exchanged with this
// server so far: messages sent (requests + one-way commands) and
// received (responses + notifications). Bulk stream data is excluded.
func (s *Server) FrameCounts() (sent, recv uint64) {
	return s.sentFrames.Load(), s.recvFrames.Load()
}

// takeQueueError removes all deferred one-way failures recorded for the
// queue and returns the first, if any: the one the later ones follow
// from. Queue 0 holds those of the pipelined object plane, which name no
// queue; every call that waits on the server takes them — a blocking read
// or write, Event.Wait, Queue.Finish — so the application sees a refused
// create or build under its own code and message at its next
// synchronization point, once.
func (s *Server) takeQueueError(queueID uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fs := s.queueErrs[queueID]
	delete(s.queueErrs, queueID)
	if len(fs) == 0 {
		return nil
	}
	return fs[0].err
}

// peekQueueError returns the first deferred failure without consuming it.
func (s *Server) peekQueueError(queueID uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fs := s.queueErrs[queueID]; len(fs) > 0 {
		return fs[0].err
	}
	return nil
}

// clearQueueError drops the deferred failures belonging to the given
// event — a blocking caller that already delivered its own failure must
// not swallow other pipelined commands' errors before the next Finish
// reports them.
func (s *Server) clearQueueError(queueID, eventID uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fs := s.queueErrs[queueID]
	kept := fs[:0]
	for _, f := range fs {
		if f.eventID != eventID {
			kept = append(kept, f)
		}
	}
	if len(kept) == 0 {
		delete(s.queueErrs, queueID)
	} else {
		s.queueErrs[queueID] = kept
	}
}

// PeerAddr returns the daemon's peer data-plane address ("" when the
// daemon cannot receive forwards).
func (s *Server) PeerAddr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peerAddr
}

// peerTarget returns where a forward to this daemon goes: its peer
// address and the key of the current connection.
func (s *Server) peerTarget() (string, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peerAddr, s.peerKey
}

// CanForward reports whether the daemon can originate peer forwards.
func (s *Server) CanForward() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.canForward
}

// markPeerUnreachable records that this daemon failed to reach the peer
// at addr; later coherence transfers toward that peer fall back to the
// client-mediated path instead of failing repeatedly.
func (s *Server) markPeerUnreachable(addr string) {
	s.mu.Lock()
	s.badPeers[addr] = true
	s.mu.Unlock()
}

// peerReachable reports whether forwarding from this daemon to the peer
// at addr is still believed to work.
func (s *Server) peerReachable(addr string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.badPeers[addr]
}

// openStream allocates a bulk-data stream on this connection.
func (s *Server) openStream() *gcf.Stream { return s.endpoint().OpenStream() }

// stream resolves an inbound stream by ID.
func (s *Server) stream(id uint32) *gcf.Stream { return s.endpoint().Stream(id) }

// disconnect closes the connection deliberately: a goodbye rides ahead
// of the close so the daemon releases the session immediately instead of
// retaining it for a re-attach that will never come.
func (s *Server) disconnect() {
	_ = s.send(protocol.MsgGoodbye, nil)
	s.endpoint().Close()
}

// lease returns the authentication ID of the lease s serves ("" for a
// direct connection).
func (s *Server) lease() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.authID
}

// leaseEnded drops the client's side of a lease whose daemon session is
// about to end while the link stays up: the epoch ends, so the copies made
// under the lease stop counting and a buffer range held only here reads
// as Lost; the connection generation advances, so its event replacements
// and directory gates are stale; serve lanes fail their pending futures;
// and a context kept past the lease leaves the platform's registry, so
// that no re-attach of the link under a later lease re-creates it there.
func (s *Server) leaseEnded() {
	s.mu.Lock()
	s.setIncLocked(func(inc *coherence.Incarnation) { inc.Conn, inc.Epoch = inc.Conn+1, inc.Epoch+1 })
	serves := s.serves
	s.serves = nil
	s.mu.Unlock()
	for _, ss := range serves {
		ss.failPending(cl.Errf(cl.InvalidServer, "lease on %s released", s.addr))
	}
	for _, c := range s.plat.contextsOf(s) {
		s.plat.forgetContext(c)
	}
}

// bind makes the kept link s serve the lease authID. The grant listed the
// lease's devices on this daemon (recs), so the Hello that binds the
// daemon session is one-way: a refusal is reported by the next call that
// waits on s, like a refused create's.
func (s *Server) bind(authID string, recs []protocol.DeviceRecord) error {
	s.mu.Lock()
	s.authID = authID
	s.devices = make([]*Device, 0, len(recs))
	for _, rec := range recs {
		s.devices = append(s.devices, &Device{srv: s, unitID: rec.UnitID, info: rec.Info})
	}
	delete(s.queueErrs, 0)
	s.mu.Unlock()
	return s.send(protocol.MsgHello, func(w *protocol.Writer) {
		protocol.PutHello(w, protocol.Hello{Client: s.plat.opts.ClientName, AuthID: authID})
	})
}

// hello asks the daemon to bind a new connection to lease authID,
// resuming session resume (0: a new session), and takes from the answer
// what it says of the connection: the server's name, its peer plane and
// the session and peer key of this connection.
func (s *Server) hello(authID string, resume uint64) (protocol.HelloAnswer, error) {
	resp, err := s.call(protocol.MsgHello, func(w *protocol.Writer) {
		protocol.PutHello(w, protocol.Hello{Client: s.plat.opts.ClientName, AuthID: authID, Resume: resume})
	})
	if err != nil {
		return protocol.HelloAnswer{}, err
	}
	a := protocol.GetHelloAnswer(resp)
	if resp.Err() != nil {
		return a, cl.Errf(cl.InvalidServer, "malformed hello answer from %s", s.addr)
	}
	s.mu.Lock()
	s.name, s.peerAddr, s.canForward = a.Name, a.PeerAddr, a.CanForward
	s.sessionID, s.peerKey = a.SessionID, a.PeerKey
	s.mu.Unlock()
	return a, nil
}

// Reattach re-establishes a dead server connection with a Hello that
// resumes its session. It reports whether the daemon retained the
// session's state:
//
//   - retained (the connection blipped but the daemon kept the session
//     within its retention window): every remote object it got is still
//     alive (a pipelined create that died with the link is made now), and
//     the server's buffer copies count again — the bytes never left the
//     daemon — so ranges that read as Lost while it was down are back;
//   - not retained (daemon restarted, or the session expired): the client
//     re-creates its remote objects (contexts, buffers, programs, kernels,
//     queues) under their original IDs; the epoch advances, so the copies
//     made before stop counting for good and ranges held only here stay
//     Lost until rewritten, and cached command graphs re-register lazily
//     on their next replay.
//
// In both cases in-flight commands from before the failure are gone —
// their events already failed with cl.ServerLost — and the connection
// generation advances, so their gates gate nothing.
func (s *Server) Reattach() (retained bool, err error) {
	s.mu.Lock()
	if s.inc.Load().Up {
		s.mu.Unlock()
		return false, cl.Errf(cl.InvalidOperation, "server %s is still connected", s.addr)
	}
	if s.reattaching {
		// Two racing Reattach calls would both dial and both send a
		// resuming Hello; the first would consume the parked session
		// and the second would get a fresh empty one, abandoning the
		// retained state. One attempt at a time.
		s.mu.Unlock()
		return false, cl.Errf(cl.InvalidOperation, "server %s reattach already in progress", s.addr)
	}
	s.reattaching = true
	sid, authID := s.sessionID, s.authID
	down := s.down
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.reattaching = false
		s.mu.Unlock()
	}()
	// A failed call reports the loss a moment before the dead connection's
	// close notice has failed its events; a new connection installed in
	// between would make that notice stale.
	<-down

	ep, err := s.plat.dialEndpoint(s.addr)
	if err != nil {
		return false, cl.Errf(cl.ServerLost, "reconnecting to %s: %v", s.addr, err)
	}
	c := s.startConn(ep)

	// The device records stay the client's: a node's devices do not change
	// with a restart.
	a, err := s.hello(authID, sid)
	if err != nil {
		ep.Close()
		return false, err
	}
	retained = a.Retained
	s.mu.Lock()
	s.badPeers = map[string]bool{}
	s.queueErrs = map[uint64][]deferredFailure{}
	s.mu.Unlock()
	// Recover daemon-side state BEFORE declaring the server connected: a
	// half-recovered server (some objects missing on the daemon) must
	// stay down and retryable — once connected, Reattach refuses to run
	// again until the connection dies.
	if err := s.plat.serverReattached(s); err != nil {
		ep.Close()
		return retained, err
	}
	s.mu.Lock()
	s.downErr = nil
	s.down = make(chan struct{})
	s.downClosed = false
	// The incarnation moves only on a FULLY successful reattach, in one
	// step: up, on a new connection and, on state loss, in a new epoch. A
	// handshake whose recovery then failed left nothing usable behind.
	s.setIncLocked(func(inc *coherence.Incarnation) {
		inc.Up, inc.Conn = true, inc.Conn+1
		if !retained {
			inc.Epoch++
		}
	})
	s.mu.Unlock()
	// The endpoint may have died again between the handshake completing
	// and the flags flipping — its close notice may have run already and
	// will not run again, which would leave a permanently "connected" dead
	// server.
	// Re-check and drive the down path by hand in that case.
	if ep.Closed() {
		err := ep.CloseErr()
		if err == nil {
			err = cl.Errf(cl.ServerLost, "server %s died during reattach", s.addr)
		}
		s.onClose(c, err)
		return retained, cl.Errf(cl.ServerLost, "server %s died during reattach: %v", s.addr, err)
	}
	return retained, nil
}

// String identifies the server in logs.
func (s *Server) String() string {
	return fmt.Sprintf("server(%s)", s.addr)
}
