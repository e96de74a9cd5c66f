package daemon

import (
	"io"
	"net"
	"sync"

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
// peer) race on independent links, so either may arrive first. They meet
// on the client's connection: its session keeps a table keyed by the
// client-chosen transfer token, and the payload finds that table by the
// connection's peer key (which the client learned from its Hello answer
// and handed to the source daemon). A payload waits for its accept only
// while that connection lives, never on a timer.

// accept is a client-announced inbound transfer: where the payload goes,
// and the gate — a user event dependent commands wait on — that its
// landing completes. The gate guards the race between the payload landing
// and a cancellation (the client fails it when the source reports the
// payload will never arrive, a newer transfer supersedes it, the lease or
// the connection ends): the commit into the buffer and a cancellation
// serialize on mu. Once cancelled, the payload is never written (the
// client may already be re-uploading the same region over the fallback
// path); once landed, a stale cancellation is a no-op.
type accept struct {
	*native.UserEvent
	s      *session
	buf    cl.Buffer
	bufID  uint64
	offset int
	size   int
	token  uint64
	seq    uint64 // arrival order; a landing cancels older overlaps

	mu        sync.Mutex
	cancelled bool
	landed    bool
}

// overlaps reports whether two transfers target overlapping regions of
// the same buffer.
func (a *accept) overlaps(other *accept) bool {
	return a.buf == other.buf &&
		a.offset < other.offset+other.size &&
		other.offset < a.offset+a.size
}

// SetStatus implements cl.UserEvent: an error status records the
// cancellation under the guard, and in the session's table, before the
// gate completes.
func (a *accept) SetStatus(st cl.CommandStatus) error {
	if st != cl.Complete {
		a.mu.Lock()
		if a.landed {
			// The payload already committed; the stale cancellation
			// must not fail an event whose data is valid.
			a.mu.Unlock()
			return nil
		}
		a.cancelled = true
		a.mu.Unlock()
		a.s.cancelled(a)
	}
	return a.UserEvent.SetStatus(st)
}

// fail cancels the transfer with an error code.
func (a *accept) fail(code cl.ErrorCode) {
	if err := a.SetStatus(cl.CommandStatus(code)); err != nil {
		a.s.d.logf("daemon %s: forward gate status: %v", a.s.d.cfg.Name, err)
	}
}

// land claims the gate for the payload writer: commit runs under the
// guard, so a concurrent cancellation either happens-before (commit is
// skipped, false is returned) or happens-after (and becomes a no-op). On
// success the gate completes.
func (a *accept) land(commit func()) bool {
	a.mu.Lock()
	if a.cancelled {
		a.mu.Unlock()
		return false
	}
	commit()
	a.landed = true
	a.mu.Unlock()
	return a.UserEvent.SetStatus(cl.Complete) == nil
}

// transferState is where one token of a connection's table stands.
type transferState uint8

const (
	waiting   transferState = iota // an accept, no payload yet
	parked                         // a payload, no accept yet
	receiving                      // both: the payload is being read
	spent                          // the transfer will not land; the other half is drained
)

// transfer is one token's entry in a connection's table. A spent entry
// leaves when the other half arrives (or the source daemon's one retry
// does); every other entry leaves when its transfer lands or its receive
// ends, and all of them with the connection.
type transfer struct {
	state transferState
	acc   *accept               // waiting, receiving
	ep    *gcf.Endpoint         // parked: the peer link carrying the payload
	hdr   protocol.PeerTransfer // parked
}

// rendezvous is a client connection's half of the peer plane.
type rendezvous struct {
	key     uint64 // names the connection to peers (set by registerSession)
	mu      sync.Mutex
	ended   bool // the connection is gone: a payload naming it is drained
	seq     uint64
	parked  int
	entries map[uint64]*transfer // token → transfer
}

// maxParked bounds a connection's parked payloads: a peer flooding
// unmatched transfers must not grow its entry count without limit (the
// payload bytes of a parked entry sit in the gcf stream's receive buffer,
// which has no window-based flow control). Past it a payload is drained
// and its token spent, so its accept fails fast.
const maxParked = 256

// CanForward reports whether this daemon can originate peer transfers.
func (d *Daemon) CanForward() bool { return d.peers != nil }

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
	s.d.meet(s.ep, hdr)
}

// acceptForward records a client-announced accept and, if the payload
// already arrived, starts the receive. Called from the client session's
// dispatcher, so always ahead of the close notice that ends the table.
func (s *session) acceptForward(a *accept) {
	rv := &s.rv
	rv.mu.Lock()
	t := rv.entries[a.token]
	switch {
	case t == nil:
		rv.seq++
		a.seq = rv.seq
		rv.entries[a.token] = &transfer{state: waiting, acc: a}
		rv.mu.Unlock()
	case t.state == parked:
		rv.seq++
		a.seq = rv.seq
		ep, hdr := t.ep, t.hdr
		*t = transfer{state: receiving, acc: a}
		rv.parked--
		rv.mu.Unlock()
		s.receive(a, ep, hdr)
	case t.state == spent:
		// The payload was drained: fail the gate now instead of waiting
		// for a payload that will never come.
		delete(rv.entries, a.token)
		rv.mu.Unlock()
		a.fail(cl.OutOfResources)
		s.d.logf("daemon %s: accept for drained transfer %d failed", s.d.cfg.Name, a.token)
	default:
		rv.mu.Unlock()
		a.fail(cl.InvalidValue)
		s.d.logf("daemon %s: duplicate forward token %d rejected", s.d.cfg.Name, a.token)
	}
}

// meet pairs an inbound transfer header with its accept on the connection
// the header's key names, or parks it there until the accept arrives. A
// key that names no live connection is drained at once, and so is one
// whose table ended after the lookup (meet runs on a peer link).
func (d *Daemon) meet(ep *gcf.Endpoint, hdr protocol.PeerTransfer) {
	d.sessMu.Lock()
	s := d.keys[hdr.Key]
	d.sessMu.Unlock()
	if s == nil {
		d.drainStream(ep, hdr.StreamID)
		d.logf("daemon %s: peer transfer %d names no live connection", d.cfg.Name, hdr.Token)
		return
	}
	rv := &s.rv
	rv.mu.Lock()
	t := rv.entries[hdr.Token]
	switch {
	case rv.ended:
		rv.mu.Unlock()
		d.drainStream(ep, hdr.StreamID)
	case t == nil && rv.parked >= maxParked:
		rv.entries[hdr.Token] = &transfer{state: spent}
		rv.mu.Unlock()
		d.drainStream(ep, hdr.StreamID)
		d.logf("daemon %s: session %d parks %d payloads, token %d drained", d.cfg.Name, s.id, maxParked, hdr.Token)
	case t == nil:
		rv.entries[hdr.Token] = &transfer{state: parked, ep: ep, hdr: hdr}
		rv.parked++
		rv.mu.Unlock()
	case t.state == waiting:
		t.state = receiving
		rv.mu.Unlock()
		s.receive(t.acc, ep, hdr)
	case t.state == parked:
		// The source's retry: the copy on the newer link replaces the one
		// its dead link may have cut short.
		old := *t
		t.ep, t.hdr = ep, hdr
		rv.mu.Unlock()
		d.drainStream(old.ep, old.hdr.StreamID)
	case t.state == spent:
		delete(rv.entries, hdr.Token)
		rv.mu.Unlock()
		d.drainStream(ep, hdr.StreamID)
	default:
		// A retry while the first copy is being read: that read decides.
		rv.mu.Unlock()
		d.drainStream(ep, hdr.StreamID)
	}
}

// cancelled records a failed gate: an accept still waiting for its
// payload becomes spent, so the payload is drained when it comes. A
// receive in progress settles its entry itself.
func (s *session) cancelled(a *accept) {
	s.rv.mu.Lock()
	if t := s.rv.entries[a.token]; t != nil && t.acc == a && t.state == waiting {
		*t = transfer{state: spent}
	}
	s.rv.mu.Unlock()
}

// settle retires a receive's entry: it is deleted once both halves were
// consumed, and spent when the stream was cut (the source may retry).
func (s *session) settle(a *accept, cut bool) {
	s.rv.mu.Lock()
	if t := s.rv.entries[a.token]; t != nil && t.acc == a {
		if cut {
			*t = transfer{state: spent}
		} else {
			delete(s.rv.entries, a.token)
		}
	}
	s.rv.mu.Unlock()
}

// failForwards fails the gate of every accept the lease announced (a
// Goodbye, or the end of the session). Parked payloads stay: on a kept
// connection they may belong to the next lease's accepts.
func (s *session) failForwards() {
	s.rv.mu.Lock()
	var accepts []*accept
	for _, t := range s.rv.entries {
		if t.acc != nil {
			accepts = append(accepts, t.acc)
		}
	}
	s.rv.mu.Unlock()
	for _, a := range accepts {
		a.fail(cl.InvalidServer)
	}
}

// endForwards closes the table with the connection: waiting and receiving
// transfers fail, parked payloads are drained, and the key becomes
// unknown, so a later payload naming it is drained at once. It runs in the
// close notice, after the connection's last accept was dispatched.
func (s *session) endForwards() {
	s.d.sessMu.Lock()
	delete(s.d.keys, s.rv.key)
	s.d.sessMu.Unlock()
	s.rv.mu.Lock()
	s.rv.ended = true
	entries := s.rv.entries
	s.rv.entries, s.rv.parked = nil, 0
	s.rv.mu.Unlock()
	for _, t := range entries {
		switch {
		case t.acc != nil:
			t.acc.fail(cl.InvalidServer)
		case t.state == parked:
			s.d.drainStream(t.ep, t.hdr.StreamID)
		}
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

// receive validates the peer's transfer header against the client's
// accept and streams the payload into the target buffer's backing store.
// Every header field is peer-supplied and cross-checked (mirroring the
// wire-size validation of the client command path): a peer may only
// deliver exactly the transfer the client announced.
func (s *session) receive(a *accept, ep *gcf.Endpoint, hdr protocol.PeerTransfer) {
	refuse := func(code cl.ErrorCode) {
		s.d.drainStream(ep, hdr.StreamID)
		s.settle(a, false)
		a.fail(code)
	}
	if hdr.BufID != a.bufID || hdr.Offset != int64(a.offset) || hdr.Size != int64(a.size) {
		refuse(cl.InvalidValue)
		s.d.logf("daemon %s: peer transfer header mismatch (token %d): got buf %d [%d,+%d), want buf %d [%d,+%d)",
			s.d.cfg.Name, hdr.Token, hdr.BufID, hdr.Offset, hdr.Size, a.bufID, a.offset, a.size)
		return
	}
	nb, ok := a.buf.(*native.Buffer)
	if !ok {
		refuse(cl.InvalidMemObject)
		return
	}
	data := nb.Bytes()
	// Re-check bounds against the actual backing store (overflow-safe, as
	// in the enqueue write/read paths): the accept was validated when it
	// arrived, but the buffer object is the ground truth.
	if a.offset < 0 || a.size < 0 || a.size > len(data) || a.offset > len(data)-a.size {
		refuse(cl.InvalidValue)
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
		region := data[a.offset : a.offset+a.size]
		// Pooled staging across the park/land cycle: a forward-heavy
		// workload otherwise allocates (and zeroes) a fresh multi-MB block
		// per transfer, and the allocator churn dominates the landing cost.
		staging := gcf.GetPayload(a.size)
		if _, err := io.ReadFull(st, staging); err != nil {
			gcf.PutPayload(staging)
			st.Release()
			s.settle(a, true)
			a.fail(cl.InvalidServer)
			s.d.logf("daemon %s: peer transfer %d failed mid-stream: %v", s.d.cfg.Name, hdr.Token, err)
			return
		}
		// Newest wins: before committing, cancel every OLDER unlanded
		// transfer overlapping this region. The client only starts a
		// newer transfer to a copy it invalidated, so an older payload
		// is stale by definition — if it already landed, this commit
		// overwrites it; if not, the gate guard ensures it never lands.
		s.rv.mu.Lock()
		var older []*accept
		for _, t := range s.rv.entries {
			if t.acc != nil && t.acc.seq < a.seq && t.acc.overlaps(a) {
				older = append(older, t.acc)
			}
		}
		s.rv.mu.Unlock()
		for _, o := range older {
			o.fail(cl.InvalidOperation)
		}
		// The entry leaves before the gate completes, so the landing's
		// notice finds the table without it.
		if !a.land(func() { copy(region, staging); s.settle(a, false) }) {
			s.settle(a, false)
			s.d.logf("daemon %s: peer transfer %d cancelled before landing", s.d.cfg.Name, hdr.Token)
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
// backpressure, so a slow peer link bounds this daemon's buffering). The
// payload goes back to the pool once the transport no longer references
// it. fail hears why the payload will not be sent; the target, which
// alone knows whether a payload landed, decides what that means for its
// gate.
//
// A pooled connection can be dead without knowing it yet: the peer
// restarted and this side's read loop has not run since. When the
// connection dies under an attempt, one more is made over a fresh dial —
// the restarted peer saw nothing of the first; a peer that did see a
// truncated stream has spent its token and drains the repeat.
func (d *Daemon) forwardPayload(addr string, hdr protocol.PeerTransfer, payload []byte, fail func(error)) {
	lost, err := d.sendTransfer(addr, hdr, payload)
	if lost {
		_, err = d.sendTransfer(addr, hdr, payload)
	}
	gcf.PutPayload(payload)
	if err != nil {
		fail(err)
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
