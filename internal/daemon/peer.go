package daemon

import (
	"io"
	"net"
	"sync"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/gcf"
	"dopencl/internal/native"
	"dopencl/internal/protocol"
	"dopencl/internal/rpc"
)

// Peer data plane (server-to-server bulk transfers).
//
// The paper's implementation routes every buffer transfer through the
// client (Section III-F), which doubles the bytes on the client's link
// for any daemon-to-daemon movement. The peer plane removes that hop: a
// client sends the source daemon one small MsgForwardBuffer command and
// the target daemon one small MsgAcceptForward command; the payload then
// travels once, over a direct daemon↔daemon connection.
//
// Rendezvous: the accept (from the client) and the transfer (from the
// peer) race on independent links, so either may arrive first. Both are
// parked in daemon-level tables keyed by the client-chosen transfer
// token; whichever side arrives second starts the receive.

// pendingForward is a client-announced inbound transfer: where the
// payload goes and which gating event unblocks dependent commands.
type pendingForward struct {
	sess    *session
	buf     cl.Buffer
	bufID   uint64
	offset  int
	size    int
	token   uint64
	eventID uint64
	seq     uint64 // accept arrival order; a commit cancels older overlaps
	gate    *forwardGate
}

// overlaps reports whether two transfers target overlapping regions of
// the same buffer.
func (pf *pendingForward) overlaps(other *pendingForward) bool {
	return pf.buf == other.buf &&
		pf.offset < other.offset+other.size &&
		other.offset < pf.offset+pf.size
}

// forwardGate is the gating user event of a pending transfer, guarding
// the race between the payload landing and a client-side cancellation
// (the client fails the gate remotely when the source daemon reports
// the payload will never arrive). The commit of the payload into the
// buffer and any cancellation serialize on the guard: once cancelled,
// the payload is never written (the client may already be re-uploading
// the same region over the fallback path); once landed, a stale
// cancellation is a no-op.
type forwardGate struct {
	*native.UserEvent
	mu        sync.Mutex
	cancelled bool
	landed    bool
}

func newForwardGate() *forwardGate {
	return &forwardGate{UserEvent: native.NewUserEvent()}
}

// SetStatus implements cl.UserEvent: error statuses record the
// cancellation under the guard before completing the event.
func (g *forwardGate) SetStatus(s cl.CommandStatus) error {
	g.mu.Lock()
	if s != cl.Complete {
		if g.landed {
			// The payload already committed; the stale cancellation
			// must not fail an event whose data is valid.
			g.mu.Unlock()
			return nil
		}
		g.cancelled = true
	}
	g.mu.Unlock()
	return g.UserEvent.SetStatus(s)
}

// tryLand claims the gate for the payload writer: commit (the copy into
// the buffer backing store) runs under the guard, so a concurrent
// cancellation either happens-before (commit is skipped, false is
// returned) or happens-after (and becomes a no-op). On success the gate
// completes.
func (g *forwardGate) tryLand(commit func()) bool {
	g.mu.Lock()
	if g.cancelled {
		g.mu.Unlock()
		return false
	}
	commit()
	g.landed = true
	g.mu.Unlock()
	return g.UserEvent.SetStatus(cl.Complete) == nil
}

// earlyTransfer is a peer payload that arrived before its accept: the
// header plus the connection carrying the (still unread) stream, and the
// TTL timer that expires the entry if no accept ever claims it. The
// timer is stopped when the entry retires (matched or expired) — without
// that, every matched transfer would leave a live 30s timer behind, and
// a daemon churning thousands of forwards would carry thousands of
// pending timers at any moment.
type earlyTransfer struct {
	ep    *gcf.Endpoint
	hdr   protocol.PeerTransfer
	at    time.Time
	timer *time.Timer
}

// maxEarlyTransfers bounds the parking table: a peer flooding unmatched
// transfers must not grow the daemon's entry count without limit. (The
// payload bytes of a parked entry sit in the gcf stream's receive
// buffer, which has no window-based flow control yet — the TTL timer
// bounds how long they can be pinned.)
const maxEarlyTransfers = 256

// defaultEarlyTransferTTL bounds how long a parked payload waits for its
// accept when Config.PeerParkTTL is unset: past it the entry is drained
// and recorded as dropped, so a client whose accept was lost does not
// pin the payload (and a table slot) until the peer connection dies.
const defaultEarlyTransferTTL = 30 * time.Second

// parkTTL returns the effective parked-payload TTL.
func (d *Daemon) parkTTL() time.Duration {
	if d.cfg.PeerParkTTL > 0 {
		return d.cfg.PeerParkTTL
	}
	return defaultEarlyTransferTTL
}

// parkTimerPad is the slack added to the TTL timer so it always fires
// after the entry is genuinely expired (the sweep compares against the
// TTL; a timer firing marginally early would find nothing to do and the
// entry would then linger until the next rendezvous). The old fixed
// one-second pad dwarfed millisecond TTLs — an expired payload sat
// parked for ~1s unless other forward traffic happened to sweep it —
// so the pad scales with the TTL instead, bounded to stay meaningful
// for long TTLs and cheap for short ones.
func parkTimerPad(ttl time.Duration) time.Duration {
	pad := ttl / 8
	if pad < time.Millisecond {
		pad = time.Millisecond
	}
	if pad > time.Second {
		pad = time.Second
	}
	return pad
}

// maxDroppedTokens bounds the memory of recently dropped transfers.
const maxDroppedTokens = 1024

// CanForward reports whether this daemon can originate peer transfers.
func (d *Daemon) CanForward() bool { return d.peers != nil }

// PendingEarlyTimers reports the TTL timers currently pending for parked
// peer payloads. Matched or expired entries stop theirs, so a daemon
// churning forwards holds timers only for genuinely unmatched payloads
// (the leak test pins this at zero after a churn).
func (d *Daemon) PendingEarlyTimers() int { return int(d.earlyTimers.Load()) }

// peerHello is the pool handshake: one one-way frame identifying the
// dialing daemon, sent before any transfer header.
func (d *Daemon) peerHello(ep *gcf.Endpoint) error {
	return rpc.OneWay(ep, protocol.MsgPeerHello, func(w *protocol.Writer) {
		w.String(d.cfg.Name)
		w.String(d.cfg.PeerAddr)
	})
}

// ServePeers accepts daemon-to-daemon connections until the listener
// closes. Run it alongside Serve when the peer plane is enabled.
func (d *Daemon) ServePeers(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		d.ServePeerConn(conn)
	}
}

// ServePeerConn runs one inbound peer connection (non-blocking).
// Everything on it is one-way: failures are resolved through the
// transfer's gating event (completed with an error status), never through
// responses on the peer link.
func (d *Daemon) ServePeerConn(conn net.Conn) {
	ps := &peerSession{d: d, ep: gcf.NewEndpoint(conn, false)}
	c := rpc.New(ps.ep)
	c.Start(ps.routes(), func(error) { d.logUnserved("peer link", c) })
}

// peerSession is one inbound peer connection.
type peerSession struct {
	d  *Daemon
	ep *gcf.Endpoint
}

func (s *peerSession) routes() rpc.Routes {
	return rpc.Routes{
		protocol.MsgPeerHello:    {OneWay: s.handleHello},
		protocol.MsgPeerTransfer: {OneWay: s.handleTransfer},
	}
}

func (s *peerSession) handleHello(c rpc.Call) {
	name := c.Body.String()
	peerAddr := c.Body.String()
	if c.Malformed() {
		return
	}
	s.d.logf("daemon %s: peer %s (%s) connected", s.d.cfg.Name, name, peerAddr)
}

func (s *peerSession) handleTransfer(c rpc.Call) {
	hdr := protocol.GetPeerTransfer(c.Body)
	if c.Malformed() {
		// With a garbled header the stream ID itself is untrusted: drop the
		// frame; the dangling stream dies with the connection.
		return
	}
	s.d.matchTransfer(s.ep, hdr)
}

// registerForward records a client-announced accept and, if the payload
// already arrived, starts the receive immediately. Called from the
// client session's dispatcher.
func (d *Daemon) registerForward(pf *pendingForward) {
	d.fwdMu.Lock()
	if _, dup := d.fwdIn[pf.token]; dup {
		d.fwdMu.Unlock()
		d.failGate(pf, cl.InvalidValue)
		d.logf("daemon %s: duplicate forward token %d rejected", d.cfg.Name, pf.token)
		return
	}
	d.expireEarlyLocked()
	if d.fwdDrop[pf.token] {
		// The payload already arrived and was dropped (table overflow or
		// expiry): fail the gate now instead of parking an accept no
		// payload will ever match — commands gated on it must not hang.
		delete(d.fwdDrop, pf.token)
		d.fwdMu.Unlock()
		d.failGate(pf, cl.OutOfResources)
		d.logf("daemon %s: accept for dropped transfer %d failed", d.cfg.Name, pf.token)
		return
	}
	d.fwdSeq++
	pf.seq = d.fwdSeq
	d.fwdLive[pf.buf] = append(d.fwdLive[pf.buf], pf)
	et, early := d.fwdEar[pf.token]
	if early {
		d.retireEarlyLocked(pf.token, et)
	} else {
		d.fwdIn[pf.token] = pf
	}
	d.fwdMu.Unlock()
	// The gate settling — payload landed, the client cancelled, or a
	// newer transfer superseded it — retires the accept, so abandoned
	// transfers do not pin session state forever.
	if err := pf.gate.SetCallback(cl.Complete, func(cl.Event, cl.CommandStatus) {
		d.fwdMu.Lock()
		if d.fwdIn[pf.token] == pf {
			delete(d.fwdIn, pf.token)
		}
		live := d.fwdLive[pf.buf]
		for i, other := range live {
			if other == pf {
				live = append(live[:i], live[i+1:]...)
				break
			}
		}
		if len(live) == 0 {
			delete(d.fwdLive, pf.buf)
		} else {
			d.fwdLive[pf.buf] = live
		}
		d.fwdMu.Unlock()
	}); err != nil {
		d.logf("daemon %s: forward gate callback: %v", d.cfg.Name, err)
	}
	if early {
		d.startReceive(pf, et.ep, et.hdr)
	}
}

// matchTransfer pairs an inbound transfer header with its accept, or
// parks it until the accept arrives.
func (d *Daemon) matchTransfer(ep *gcf.Endpoint, hdr protocol.PeerTransfer) {
	d.fwdMu.Lock()
	if pf, ok := d.fwdIn[hdr.Token]; ok {
		delete(d.fwdIn, hdr.Token)
		d.fwdMu.Unlock()
		d.startReceive(pf, ep, hdr)
		return
	}
	d.expireEarlyLocked()
	if len(d.fwdEar) >= maxEarlyTransfers {
		d.recordDroppedLocked(hdr.Token)
		d.fwdMu.Unlock()
		d.drainStream(ep, hdr.StreamID)
		d.logf("daemon %s: early-transfer table full, token %d dropped", d.cfg.Name, hdr.Token)
		return
	}
	// A timer enforces the TTL even on a daemon with no further forward
	// traffic (the lazy sweeps in matchTransfer/registerForward only run
	// on the next rendezvous). It is stopped when the entry retires
	// early, so matched transfers do not accumulate pending timers. At
	// most maxEarlyTransfers timers exist.
	ttl := d.parkTTL()
	t := time.AfterFunc(ttl+parkTimerPad(ttl), func() {
		d.earlyTimers.Add(-1) // fired: no longer pending
		d.fwdMu.Lock()
		d.expireEarlyLocked()
		d.fwdMu.Unlock()
	})
	d.earlyTimers.Add(1)
	d.fwdEar[hdr.Token] = earlyTransfer{ep: ep, hdr: hdr, at: time.Now(), timer: t}
	d.fwdMu.Unlock()
}

// retireEarlyLocked removes a parked payload entry and stops its TTL
// timer. Callers hold fwdMu.
func (d *Daemon) retireEarlyLocked(token uint64, et earlyTransfer) {
	delete(d.fwdEar, token)
	if et.timer != nil && et.timer.Stop() {
		d.earlyTimers.Add(-1)
	}
}

// dropSessionForwards cancels every pending forward announced by the
// given session: with the client gone nothing can settle the gates, and
// a payload arriving later must not be committed into a dead session's
// buffer. Cancelling the gate retires the fwdIn entry through its
// settle callback.
func (d *Daemon) dropSessionForwards(s *session) {
	d.fwdMu.Lock()
	var orphaned []*pendingForward
	// fwdLive covers every unsettled transfer of the session — both
	// accepts still waiting for their payload (also in fwdIn) and
	// transfers whose receive is already in progress; cancelling the
	// gate stops the latter's commit through the forwardGate guard.
	for _, pfs := range d.fwdLive {
		for _, pf := range pfs {
			if pf.sess == s {
				orphaned = append(orphaned, pf)
			}
		}
	}
	d.fwdMu.Unlock()
	for _, pf := range orphaned {
		d.failGate(pf, cl.InvalidServer)
	}
}

// expireEarlyLocked drops parked payloads whose accept never arrived
// within the TTL, draining their streams and recording the tokens so a
// late accept fails fast. Callers hold fwdMu.
func (d *Daemon) expireEarlyLocked() {
	if len(d.fwdEar) == 0 {
		return
	}
	now := time.Now()
	ttl := d.parkTTL()
	for token, et := range d.fwdEar {
		if now.Sub(et.at) < ttl {
			continue
		}
		d.retireEarlyLocked(token, et)
		d.recordDroppedLocked(token)
		d.drainStream(et.ep, et.hdr.StreamID)
		d.logf("daemon %s: early transfer %d expired unmatched", d.cfg.Name, token)
	}
}

// recordDroppedLocked remembers a dropped transfer token (bounded FIFO)
// so its accept can be failed instead of parked forever. Callers hold
// fwdMu.
func (d *Daemon) recordDroppedLocked(token uint64) {
	if d.fwdDrop[token] {
		return
	}
	d.fwdDrop[token] = true
	d.fwdDropQ = append(d.fwdDropQ, token)
	for len(d.fwdDropQ) > maxDroppedTokens {
		delete(d.fwdDrop, d.fwdDropQ[0])
		d.fwdDropQ = d.fwdDropQ[1:]
	}
}

// drainStream discards and releases an unwanted inbound payload stream
// so pipelined frames do not accumulate against a stream nobody reads.
// Shared by the peer plane and client sessions (session.drainStream).
func (d *Daemon) drainStream(ep *gcf.Endpoint, streamID uint32) {
	st := ep.Stream(streamID)
	go func() {
		if _, err := io.Copy(io.Discard, st); err != nil {
			d.logf("daemon %s: peer stream drain: %v", d.cfg.Name, err)
		}
		st.Release()
	}()
}

// failGate completes a pending transfer's gate with an error status,
// failing every command gated on the forwarded data and notifying the
// client through the normal event path.
func (d *Daemon) failGate(pf *pendingForward, code cl.ErrorCode) {
	if err := pf.gate.SetStatus(cl.CommandStatus(code)); err != nil {
		d.logf("daemon %s: forward gate status: %v", d.cfg.Name, err)
	}
}

// startReceive validates the peer's transfer header against the client's
// accept and streams the payload straight into the target buffer's
// backing store. Every header field is peer-supplied and cross-checked
// (mirroring the wire-size validation of the client command path): a
// peer may only deliver exactly the transfer the client announced.
func (d *Daemon) startReceive(pf *pendingForward, ep *gcf.Endpoint, hdr protocol.PeerTransfer) {
	if hdr.BufID != pf.bufID || hdr.Offset != int64(pf.offset) || hdr.Size != int64(pf.size) {
		d.drainStream(ep, hdr.StreamID)
		d.failGate(pf, cl.InvalidValue)
		d.logf("daemon %s: peer transfer header mismatch (token %d): got buf %d [%d,+%d), want buf %d [%d,+%d)",
			d.cfg.Name, hdr.Token, hdr.BufID, hdr.Offset, hdr.Size, pf.bufID, pf.offset, pf.size)
		return
	}
	nb, ok := pf.buf.(*native.Buffer)
	if !ok {
		d.drainStream(ep, hdr.StreamID)
		d.failGate(pf, cl.InvalidMemObject)
		return
	}
	data := nb.Bytes()
	// Re-check bounds against the actual backing store (overflow-safe, as
	// in the enqueue write/read paths): the accept was validated when it
	// arrived, but the buffer object is the ground truth.
	if pf.offset < 0 || pf.size < 0 || pf.size > len(data) || pf.offset > len(data)-pf.size {
		d.drainStream(ep, hdr.StreamID)
		d.failGate(pf, cl.InvalidValue)
		return
	}
	st := ep.Stream(hdr.StreamID)
	// The receive runs off the peer dispatcher so other transfers
	// multiplexed on the same connection keep flowing. The payload is
	// staged (as on the source side) and committed into the buffer only
	// under the gate's guard: after a cancellation — the client may
	// already be re-uploading the region over the fallback path — not a
	// single forwarded byte touches the backing store.
	go func() {
		region := data[pf.offset : pf.offset+pf.size]
		// Pooled staging across the park/land cycle: a forward-heavy
		// workload otherwise allocates (and zeroes) a fresh multi-MB block
		// per transfer, and the allocator churn dominates the landing cost.
		staging := gcf.GetPayload(pf.size)
		if _, err := io.ReadFull(st, staging); err != nil {
			gcf.PutPayload(staging)
			st.Release()
			d.failGate(pf, cl.InvalidServer)
			d.logf("daemon %s: peer transfer %d failed mid-stream: %v", d.cfg.Name, hdr.Token, err)
			return
		}
		// Newest wins: before committing, cancel every OLDER unlanded
		// transfer overlapping this region. The client only starts a
		// newer transfer to a copy it invalidated, so an older payload
		// is stale by definition — if it already landed, this commit
		// overwrites it; if not, the gate guard ensures it never lands.
		d.fwdMu.Lock()
		var older []*forwardGate
		for _, other := range d.fwdLive[pf.buf] {
			if other.seq < pf.seq && other.overlaps(pf) {
				older = append(older, other.gate)
			}
		}
		d.fwdMu.Unlock()
		for _, g := range older {
			if err := g.SetStatus(cl.CommandStatus(cl.InvalidOperation)); err != nil {
				d.logf("daemon %s: superseded transfer cancel: %v", d.cfg.Name, err)
			}
		}
		if !pf.gate.tryLand(func() { copy(region, staging) }) {
			d.logf("daemon %s: peer transfer %d cancelled before landing", d.cfg.Name, hdr.Token)
		}
		// Landed (or cancelled) — either way the staging block is done.
		gcf.PutPayload(staging)
		// Consume the trailing end-of-stream marker off the gate's
		// critical path: a peer that never closes its write side must
		// not be able to park the gate (it only leaks this goroutine
		// until the connection dies).
		st.WaitEOF()
		st.Release()
	}()
}

// forwardPayload ships staged bytes to the peer at addr: transfer header
// on the message channel, payload scatter-gathered onto a stream
// zero-copy (the gcf write path frames it without copying and applies
// backpressure, so a slow peer link bounds this daemon's buffering).
// release returns ownership of payload to the caller's pool; it is
// called exactly once, when the transport no longer references the
// payload. done completes when the payload has been written to the peer
// connection; failures are reported through fail (a deferred
// MsgCommandFailed to the client) as well.
//
// A pooled connection can be dead without knowing it yet: the peer
// restarted and this side's read loop has not run since. When the
// connection dies under an attempt, one more is made over a fresh dial
// — the restarted peer saw nothing of the first; a peer that did see a
// truncated stream has already failed the transfer's gate and parks the
// repeat until its TTL.
func (d *Daemon) forwardPayload(addr string, hdr protocol.PeerTransfer, payload []byte, release func(), done *native.UserEvent, fail func(error)) {
	lost, err := d.sendTransfer(addr, hdr, payload)
	if lost {
		_, err = d.sendTransfer(addr, hdr, payload)
	}
	if release != nil {
		release()
	}
	st := cl.Complete
	if err != nil {
		fail(err)
		st = cl.CommandStatus(cl.CodeOf(err))
	}
	if serr := done.SetStatus(st); serr != nil {
		d.logf("daemon %s: forward done status: %v", d.cfg.Name, serr)
	}
}

// sendTransfer makes one attempt at a peer transfer and returns once the
// transport holds no reference to payload any more. lost reports that the
// connection died under the attempt.
func (d *Daemon) sendTransfer(addr string, hdr protocol.PeerTransfer, payload []byte) (lost bool, err error) {
	ep, err := d.peers.Get(addr)
	if err != nil {
		return false, cl.Errf(cl.InvalidServer, "peer dial %s: %v", addr, err)
	}
	stream := ep.OpenStream()
	defer stream.Release()
	hdr.StreamID = stream.ID()
	err = rpc.OneWay(ep, protocol.MsgPeerTransfer, func(w *protocol.Writer) { protocol.PutPeerTransfer(w, hdr) })
	if err != nil {
		return true, cl.Errf(cl.InvalidServer, "peer transfer header to %s: %v", addr, err)
	}
	// The transport only queues frames; its write loop sends them later,
	// and the flush callback fires on the error and shutdown-drain paths
	// too. Success is claimed only for a payload written to a connection
	// that is still up: otherwise a dead pooled connection would swallow
	// the transfer while the receiver's gate, and every command behind
	// it, waits forever.
	flushed := make(chan struct{})
	err = stream.WriteOwned(payload, func() { close(flushed) })
	if err == nil {
		err = stream.CloseWrite()
	}
	<-flushed
	if err != nil || ep.Closed() {
		return true, cl.Errf(cl.InvalidServer, "peer transfer to %s failed mid-stream: %v (connection: %v)", addr, err, ep.CloseErr())
	}
	return false, nil
}
