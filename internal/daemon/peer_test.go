package daemon

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/device"
	"dopencl/internal/gcf"
	"dopencl/internal/native"
	"dopencl/internal/protocol"
	"dopencl/internal/simnet"
)

// peerHarness is a daemon with its peer plane up, a raw client session
// (collecting notifications) and a raw peer connection — the three ends
// of a forward, driven at wire level for validation tests.
type peerHarness struct {
	*graphSession // the client's session
	d             *Daemon
	nw            *simnet.Network
	peer          *gcf.Endpoint
	key           uint64 // the session's peer key, from its Hello answer
	// link is a peer connection whose receiving end the harness keeps, so
	// deliver can hand a transfer to the rendezvous synchronously.
	link, linkEnd *gcf.Endpoint
}

func newPeerHarness(t *testing.T) *peerHarness {
	t.Helper()
	return newPeerHarnessWrap(t, func(c net.Conn) (net.Conn, error) { return c, nil })
}

// newPeerHarnessWrap additionally passes every connection the daemon
// dials on its peer plane through wrap.
func newPeerHarnessWrap(t *testing.T, wrap func(net.Conn) (net.Conn, error)) *peerHarness {
	t.Helper()
	nw := simnet.NewNetwork(simnet.Unlimited())
	plat := native.NewPlatform("p", "v", []device.Config{device.TestCPU("cpu0")})
	d, err := New(Config{
		Name: "srv", Platform: plat,
		PeerAddr: "srv/peer",
		PeerDial: func(a string) (net.Conn, error) {
			c, err := nw.DialFrom("srv", a)
			if err != nil {
				return nil, err
			}
			return wrap(c)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range []string{"srv", "srv/peer"} {
		l, err := nw.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		serve := d.Serve
		if addr == "srv/peer" {
			serve = d.ServePeers
		}
		go func() { _ = serve(l) }()
	}

	cconn, err := nw.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	h := &peerHarness{graphSession: startGraphSession(gcf.NewEndpoint(cconn, true)), d: d, nw: nw}
	h.key = h.hello(t)

	pconn, err := nw.Dial("srv/peer")
	if err != nil {
		t.Fatal(err)
	}
	h.peer = gcf.NewEndpoint(pconn, true)
	h.peer.Start(func([]byte) {}, nil)
	a, b := simnet.Pipe(simnet.Unlimited())
	h.link, h.linkEnd = gcf.NewEndpoint(a, true), gcf.NewEndpoint(b, false)
	h.link.Start(func([]byte) {}, nil)
	h.linkEnd.Start(func([]byte) {}, nil)
	t.Cleanup(func() { h.link.Close() })
	return h
}

// hello binds the session and returns its peer key.
func (gs *graphSession) hello(t *testing.T) uint64 {
	t.Helper()
	env := gs.call(t, 1, protocol.MsgHello, func(w *protocol.Writer) {
		protocol.PutHello(w, protocol.Hello{Client: "peer-test"})
	})
	if st := cl.ErrorCode(env.Body.I32()); st != cl.Success {
		t.Fatalf("hello: %v", st)
	}
	key := protocol.GetHelloAnswer(env.Body).PeerKey
	if env.Body.Err() != nil || key == 0 {
		t.Fatalf("hello answer carries no peer key (%v)", env.Body.Err())
	}
	return key
}

// session returns the daemon's session behind a live peer key.
func (h *peerHarness) session(t *testing.T, key uint64) *session {
	t.Helper()
	h.d.sessMu.Lock()
	defer h.d.sessMu.Unlock()
	s := h.d.keys[key]
	if s == nil {
		t.Fatalf("no live session under key %#x", key)
	}
	return s
}

// table counts a session's entries by state.
func (s *session) table() map[transferState]int {
	s.rv.mu.Lock()
	defer s.rv.mu.Unlock()
	n := map[transferState]int{}
	for _, t := range s.rv.entries {
		n[t.state]++
	}
	return n
}

// accepts returns the accepts a session's table holds.
func (s *session) accepts() []*accept {
	s.rv.mu.Lock()
	defer s.rv.mu.Unlock()
	var out []*accept
	for _, t := range s.rv.entries {
		if t.acc != nil {
			out = append(out, t.acc)
		}
	}
	return out
}

// closedTable reports whether a session's table was closed with its
// connection, holding nothing.
func (s *session) closedTable() bool {
	s.rv.mu.Lock()
	defer s.rv.mu.Unlock()
	return s.rv.ended && s.rv.entries == nil && s.rv.parked == 0
}

// deliver hands a transfer to the rendezvous the way the peer plane's
// dispatcher does, but synchronously: when it returns the payload is
// parked, being received or drained. The payload follows on a stream of
// the harness's own peer link; the key defaults to the session's.
func (h *peerHarness) deliver(t *testing.T, hdr protocol.PeerTransfer, payload []byte) {
	t.Helper()
	if hdr.Key == 0 {
		hdr.Key = h.key
	}
	stream := h.link.OpenStream()
	hdr.StreamID = stream.ID()
	if len(payload) > 0 {
		if err := stream.WriteOwned(payload, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := stream.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	stream.Release()
	h.d.meet(h.linkEnd, hdr)
}

// accept announces an inbound transfer of [0, size) of buffer 3 and waits
// until the daemon has dispatched it.
func (h *peerHarness) accept(t *testing.T, token, eventID uint64, size int) {
	t.Helper()
	if st := h.tell(t, protocol.MsgAcceptForward, func(w *protocol.Writer) {
		protocol.PutAcceptForward(w, protocol.AcceptForward{Token: token, BufID: 3, Size: int64(size), EventID: eventID})
	}); st != cl.Success {
		t.Fatalf("accept %d: %v", token, st)
	}
}

// setupBuffer creates context 1, queue 2 and buffer 3 of the given size.
func (h *peerHarness) setupBuffer(t *testing.T, size int) {
	t.Helper()
	if h.tell(t, protocol.MsgCreateContext, func(w *protocol.Writer) {
		w.U64(1)
		w.U64s([]uint64{0})
	}) != cl.Success {
		t.Fatal("create context failed")
	}
	if h.tell(t, protocol.MsgCreateQueue, func(w *protocol.Writer) {
		w.U64(2)
		w.U64(1)
		w.U64(0)
	}) != cl.Success {
		t.Fatal("create queue failed")
	}
	if h.tell(t, protocol.MsgCreateBuffer, func(w *protocol.Writer) {
		w.U64(3)
		w.U64(1)
		w.U32(uint32(cl.MemReadWrite))
		w.I64(int64(size))
		w.U32(0)
	}) != cl.Success {
		t.Fatal("create buffer failed")
	}
}

// sendTransfer pushes a peer transfer header plus payload over the peer
// connection; the key defaults to the session's.
func (h *peerHarness) sendTransfer(t *testing.T, hdr protocol.PeerTransfer, payload []byte) {
	t.Helper()
	if hdr.Key == 0 {
		hdr.Key = h.key
	}
	stream := h.peer.OpenStream()
	hdr.StreamID = stream.ID()
	w := protocol.NewWriter()
	protocol.PutPeerTransfer(w, hdr)
	if err := h.peer.Send(protocol.EncodeEnvelope(protocol.ClassOneWay, 0, protocol.MsgPeerTransfer, w)); err != nil {
		t.Fatal(err)
	}
	if len(payload) > 0 {
		if err := stream.WriteOwned(payload, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := stream.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	stream.Release()
}

// TestAcceptForwardValidation: malformed accepts (unknown buffer,
// out-of-bounds and overflowing ranges) are rejected with deferred
// failure notifications carrying the gate's event ID, mirroring the
// wire-size validation of the enqueue paths.
func TestAcceptForwardValidation(t *testing.T) {
	h := newPeerHarness(t)
	defer h.ep.Close()
	defer h.peer.Close()
	h.setupBuffer(t, 1024)

	cases := []struct {
		name string
		acc  protocol.AcceptForward
	}{
		{"unknown buffer", protocol.AcceptForward{Token: 1, BufID: 99, Offset: 0, Size: 16, EventID: 100}},
		{"negative size", protocol.AcceptForward{Token: 2, BufID: 3, Offset: 0, Size: -1, EventID: 101}},
		{"size beyond buffer", protocol.AcceptForward{Token: 3, BufID: 3, Offset: 0, Size: 4096, EventID: 102}},
		{"offset+size overflow", protocol.AcceptForward{Token: 4, BufID: 3, Offset: 1<<62 + 1, Size: 1 << 62, EventID: 103}},
	}
	for _, tc := range cases {
		h.oneway(t, protocol.MsgAcceptForward, func(w *protocol.Writer) {
			protocol.PutAcceptForward(w, tc.acc)
		})
		if f := h.completion(t, tc.acc.EventID); f.Status >= 0 {
			t.Fatalf("%s: failure = %+v", tc.name, f)
		}
	}
	// Nothing may be registered for the rejected tokens.
	if n := h.session(t, h.key).table(); len(n) != 0 {
		t.Fatalf("rejected accepts left entries: %v", n)
	}
}

// TestPeerTransferHeaderMismatch: a peer claiming a different buffer,
// range or size than the client announced must not write a byte; the
// gate fails instead.
func TestPeerTransferHeaderMismatch(t *testing.T) {
	h := newPeerHarness(t)
	defer h.ep.Close()
	defer h.peer.Close()
	h.setupBuffer(t, 1024)

	h.oneway(t, protocol.MsgAcceptForward, func(w *protocol.Writer) {
		protocol.PutAcceptForward(w, protocol.AcceptForward{
			Token: 7, BufID: 3, Offset: 0, Size: 1024, EventID: 200,
		})
	})
	// Size mismatch: announced 1024, peer claims 512.
	h.sendTransfer(t, protocol.PeerTransfer{Token: 7, BufID: 3, Offset: 0, Size: 512}, make([]byte, 512))
	if st := h.event(t, 200); st >= 0 {
		t.Fatalf("gate status = %v, want failure", st)
	}
}

// TestEarlyTransferRendezvous: the payload may beat the accept to the
// daemon (independent links); it parks on the session's connection and
// lands once the accept arrives.
func TestEarlyTransferRendezvous(t *testing.T) {
	h := newPeerHarness(t)
	defer h.ep.Close()
	defer h.peer.Close()
	h.setupBuffer(t, 64)

	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i + 1)
	}
	// Transfer first...
	h.deliver(t, protocol.PeerTransfer{Token: 9, BufID: 3, Offset: 0, Size: 64}, payload)
	if n := h.session(t, h.key).table(); n[parked] != 1 {
		t.Fatalf("table after the payload = %v, want it parked", n)
	}
	// ... then the accept.
	h.accept(t, 9, 300, 64)
	if st := h.event(t, 300); st != cl.Complete {
		t.Fatalf("gate status = %v, want Complete", st)
	}
	if n := h.session(t, h.key).table(); len(n) != 0 {
		t.Fatalf("table after the landing = %v, want empty", n)
	}
	// The payload must be in the buffer: read it back through the queue.
	h.oneway(t, protocol.MsgEnqueueRead, func(w *protocol.Writer) {
		protocol.PutEnqueue(w, protocol.Enqueue{QueueID: 2,
			Cmd: protocol.GraphCommand{Op: protocol.GraphOpRead, BufID: 3, Size: 64, StreamID: 41}}) // client-side stream ID (odd)
	})
	st := h.ep.Stream(41)
	got := make([]byte, 64)
	if _, err := ioReadFull(st, got); err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], payload[i])
		}
	}
}

// TestMalformedPeerFramesDropped: truncated peer frames, and transfers
// whose key names no live connection, must be dropped without wedging
// the connection, parking anything or touching a buffer — a valid
// transfer afterwards works.
func TestMalformedPeerFramesDropped(t *testing.T) {
	h := newPeerHarness(t)
	defer h.ep.Close()
	defer h.peer.Close()
	h.setupBuffer(t, 64)

	// A second session whose connection has ended: its key is dead.
	gone := newGraphSession(t, h.d)
	goneKey := gone.hello(t)
	h.session(t, goneKey).conn.Close()
	gone.ep.Close()

	raw := func(typ protocol.MsgType, fill func(*protocol.Writer)) {
		t.Helper()
		w := protocol.NewWriter()
		if fill != nil {
			fill(w)
		}
		if err := h.peer.Send(protocol.EncodeEnvelope(protocol.ClassOneWay, 0, typ, w)); err != nil {
			t.Fatal(err)
		}
	}
	raw(protocol.MsgPeerHello, nil)
	raw(protocol.MsgPeerTransfer, func(w *protocol.Writer) { w.U64(h.key) })         // key only
	raw(protocol.MsgPeerTransfer, func(w *protocol.Writer) { w.U32(uint32(h.key)) }) // truncated key
	// An unsupported peer-plane message is ignored too.
	raw(protocol.MsgEnqueueWrite, nil)
	// Well-formed headers whose key is unknown or ended: the payloads,
	// aimed at the upper half of buffer 3, are drained.
	stale := bytes.Repeat([]byte{0xFF}, 32)
	h.sendTransfer(t, protocol.PeerTransfer{Key: h.key ^ 1, Token: 12, BufID: 3, Offset: 32, Size: 32}, stale)
	h.sendTransfer(t, protocol.PeerTransfer{Key: goneKey, Token: 13, BufID: 3, Offset: 32, Size: 32}, stale)

	// The connection still serves a valid rendezvous, dispatched after
	// every frame above.
	h.accept(t, 11, 400, 32)
	h.sendTransfer(t, protocol.PeerTransfer{Token: 11, BufID: 3, Offset: 0, Size: 32}, make([]byte, 32))
	if st := h.event(t, 400); st != cl.Complete {
		t.Fatalf("gate status = %v, want Complete", st)
	}
	if n := h.session(t, h.key).table(); len(n) != 0 {
		t.Fatalf("table = %v, want empty", n)
	}
	h.d.sessMu.Lock()
	keys := len(h.d.keys)
	h.d.sessMu.Unlock()
	if keys != 1 {
		t.Fatalf("%d live keys, want the harness session's alone", keys)
	}
	h.oneway(t, protocol.MsgEnqueueRead, func(w *protocol.Writer) {
		protocol.PutEnqueue(w, protocol.Enqueue{QueueID: 2,
			Cmd: protocol.GraphCommand{Op: protocol.GraphOpRead, BufID: 3, Size: 64, StreamID: 45}})
	})
	got := make([]byte, 64)
	if _, err := ioReadFull(h.ep.Stream(45), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[32:], make([]byte, 32)) {
		t.Fatalf("a payload naming no live connection touched the buffer: %x", got[32:])
	}
}

// TestOverflowedEarlyTransferFailsAcceptFast: a session parks at most
// maxParked payloads; the one past the cap is drained and its token
// spent, so its accept fails at once instead of waiting forever —
// commands gated on it must not hang. The cap is the session's: another
// connection still parks.
func TestOverflowedEarlyTransferFailsAcceptFast(t *testing.T) {
	h := newPeerHarness(t)
	defer h.ep.Close()
	defer h.peer.Close()
	h.setupBuffer(t, 8)

	// Fill the session's parking, then one more: the overflow victim.
	for i := 0; i < maxParked+1; i++ {
		h.deliver(t, protocol.PeerTransfer{Token: uint64(1000 + i), BufID: 3, Offset: 0, Size: 8}, make([]byte, 8))
	}
	victim := uint64(1000 + maxParked)
	if n := h.session(t, h.key).table(); n[parked] != maxParked || n[spent] != 1 {
		t.Fatalf("table = %v, want %d parked and the victim spent", n, maxParked)
	}
	other := newGraphSession(t, h.d)
	defer other.ep.Close()
	otherKey := other.hello(t)
	h.deliver(t, protocol.PeerTransfer{Key: otherKey, Token: victim, BufID: 3, Size: 8}, make([]byte, 8))
	if n := h.session(t, otherKey).table(); n[parked] != 1 {
		t.Fatalf("another connection's table = %v, want its payload parked", n)
	}

	// The victim's accept fails fast ...
	h.accept(t, victim, 600, 8)
	if st := h.event(t, 600); st >= 0 {
		t.Fatalf("gate status = %v, want failure", st)
	}
	// ... while a parked transfer still completes normally.
	h.accept(t, 1000, 601, 8)
	if st := h.event(t, 601); st != cl.Complete {
		t.Fatalf("gate status = %v, want Complete", st)
	}
	if n := h.session(t, h.key).table(); n[parked] != maxParked-1 || n[spent] != 0 {
		t.Fatalf("table = %v, want %d parked and nothing spent", n, maxParked-1)
	}
}

// TestCancelledForwardNeverTouchesBuffer: once the client cancels a
// pending forward (failing its gate remotely), a payload arriving
// afterwards must not write a single byte into the buffer: the token is
// spent, and the payload drained.
func TestCancelledForwardNeverTouchesBuffer(t *testing.T) {
	h := newPeerHarness(t)
	defer h.ep.Close()
	defer h.peer.Close()
	h.setupBuffer(t, 32)

	h.accept(t, 21, 700, 32)
	// Client-side cancellation: fail the gate through the normal
	// user-event path (what failRemoteGate does after a source failure).
	if h.tell(t, protocol.MsgSetUserEventStatus, func(w *protocol.Writer) {
		w.U64(700)
		w.I32(int32(cl.InvalidServer))
	}) != cl.Success {
		t.Fatal("gate cancellation failed")
	}
	if st := h.event(t, 700); cl.ErrorCode(st) != cl.InvalidServer {
		t.Fatalf("gate status = %v, want InvalidServer", st)
	}
	if n := h.session(t, h.key).table(); n[spent] != 1 || len(n) != 1 {
		t.Fatalf("table after the cancel = %v, want the token spent", n)
	}
	// The payload arrives too late.
	h.deliver(t, protocol.PeerTransfer{Token: 21, BufID: 3, Offset: 0, Size: 32}, bytes.Repeat([]byte{0xFF}, 32))
	if n := h.session(t, h.key).table(); len(n) != 0 {
		t.Fatalf("table after the payload = %v, want empty", n)
	}

	// The buffer must still be all zeros.
	h.oneway(t, protocol.MsgEnqueueRead, func(w *protocol.Writer) {
		protocol.PutEnqueue(w, protocol.Enqueue{QueueID: 2,
			Cmd: protocol.GraphCommand{Op: protocol.GraphOpRead, BufID: 3, Size: 32, StreamID: 43}})
	})
	got := make([]byte, 32)
	if _, err := ioReadFull(h.ep.Stream(43), got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %#x: cancelled forward wrote into the buffer", i, b)
		}
	}
}

// TestSessionCloseRetiresPendingForwards: a client that disconnects
// after announcing an accept must not leak it: the connection's end fails
// the gate and closes the table, and a payload arriving later is drained
// rather than written into the dead session's buffer.
func TestSessionCloseRetiresPendingForwards(t *testing.T) {
	h := newPeerHarness(t)
	defer h.peer.Close()
	h.setupBuffer(t, 16)

	h.accept(t, 31, 800, 16)
	s := h.session(t, h.key)
	if n := s.table(); n[waiting] != 1 {
		t.Fatalf("table = %v, want one waiting accept", n)
	}
	acc := s.accepts()[0]
	// The daemon's end of the connection: its close notice has run once
	// the session is gone.
	s.conn.Close()
	<-s.gone
	if st := acc.Status(); cl.ErrorCode(st) != cl.InvalidServer {
		t.Fatalf("gate status after the close = %v, want InvalidServer", st)
	}
	h.deliver(t, protocol.PeerTransfer{Token: 31, BufID: 3, Size: 16}, make([]byte, 16))
	if !s.closedTable() {
		t.Fatalf("table after the close = %v, want closed", s.table())
	}
}

// TestForwardBufferValidation: malformed forward commands (unknown
// queue/buffer, bad ranges, forwarding disabled) produce deferred
// failures, never panics or silent drops.
func TestForwardBufferValidation(t *testing.T) {
	h := newPeerHarness(t)
	defer h.ep.Close()
	defer h.peer.Close()
	h.setupBuffer(t, 1024)

	cases := []struct {
		name string
		f    protocol.ForwardBuffer
	}{
		{"unknown queue", protocol.ForwardBuffer{QueueID: 99, SrcBufID: 3, Size: 16, PeerAddr: "srv/peer", EventID: 500}},
		{"unknown buffer", protocol.ForwardBuffer{QueueID: 2, SrcBufID: 99, Size: 16, PeerAddr: "srv/peer", EventID: 501}},
		{"negative size", protocol.ForwardBuffer{QueueID: 2, SrcBufID: 3, Size: -5, PeerAddr: "srv/peer", EventID: 502}},
		{"range overflow", protocol.ForwardBuffer{QueueID: 2, SrcBufID: 3, SrcOffset: 1 << 62, Size: 1 << 62, PeerAddr: "srv/peer", EventID: 503}},
	}
	for _, tc := range cases {
		h.oneway(t, protocol.MsgForwardBuffer, func(w *protocol.Writer) {
			protocol.PutForwardBuffer(w, tc.f)
		})
		if f := h.completion(t, tc.f.EventID); f.Status >= 0 {
			t.Fatalf("%s: failure = %+v", tc.name, f)
		}
	}
}

// halfDeadConn is a connection whose peer can vanish without this side's
// reader noticing: once dead is set writes fail, reads keep blocking.
type halfDeadConn struct {
	net.Conn
	dead atomic.Bool
}

func (c *halfDeadConn) Write(p []byte) (int, error) {
	if c.dead.Load() {
		return 0, io.ErrClosedPipe
	}
	return c.Conn.Write(p)
}

// TestForwardOverStalePooledConnection: the peer pool can hand out a
// connection whose far end is gone while the local read loop has not
// noticed (the peer restarted; nothing has been read since). The
// transport accepts the transfer's frames into its queue regardless, so
// the forward used to report success for a payload that never left and
// the receiver's gate — with every command behind it — waited forever.
// The source now notices the loss at flush time and repeats the
// transfer over a fresh connection.
func TestForwardOverStalePooledConnection(t *testing.T) {
	var pooled []*halfDeadConn
	h := newPeerHarnessWrap(t, func(c net.Conn) (net.Conn, error) {
		hc := &halfDeadConn{Conn: c}
		pooled = append(pooled, hc)
		return hc, nil
	})
	defer h.ep.Close()
	defer h.peer.Close()
	h.setupBuffer(t, 64)

	// forward ships buffer 3 to this same daemon's peer plane and waits
	// for the receiver's gate.
	forward := func(token, gateID uint64) {
		t.Helper()
		h.accept(t, token, gateID, 64)
		h.forward(t, protocol.ForwardBuffer{QueueID: 2, SrcBufID: 3, Size: 64, Token: token, DstBufID: 3, EventID: gateID + 1})
		if st := h.event(t, gateID); st != cl.Complete {
			t.Fatalf("transfer %d: gate status %v", token, st)
		}
	}
	forward(1, 600) // dials and pools the connection
	if len(pooled) != 1 {
		t.Fatalf("%d peer connections dialed, want 1", len(pooled))
	}
	pooled[0].dead.Store(true)
	forward(2, 700)
	if len(pooled) != 2 {
		t.Fatalf("%d peer connections dialed, want a second one replacing the dead one", len(pooled))
	}
}

// forward sends a ForwardBuffer to this same daemon's peer plane, naming
// the harness session's key.
func (h *peerHarness) forward(t *testing.T, f protocol.ForwardBuffer) {
	t.Helper()
	f.PeerAddr, f.PeerKey = "srv/peer", h.key
	h.oneway(t, protocol.MsgForwardBuffer, func(w *protocol.Writer) { protocol.PutForwardBuffer(w, f) })
}

// event waits for one event's completion notice and returns its status.
func (h *peerHarness) event(t *testing.T, eventID uint64) cl.CommandStatus {
	t.Helper()
	return cl.CommandStatus(h.completion(t, eventID).Status)
}

// heldConn passes writes through and holds the one that carries its
// hold-th byte, once, until release is closed: the bytes are on the wire,
// but the transport's flush of them has not returned.
type heldConn struct {
	net.Conn
	hold    int
	written int
	held    chan struct{}
	release chan struct{}
}

func (c *heldConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written += n
	if c.hold > 0 && c.written >= c.hold {
		c.hold = 0
		close(c.held)
		<-c.release
	}
	return n, err
}

// TestForwardSourceEventEndsAtItsRead: a forward's source event is its
// staging read, so a write enqueued on the source after it waits only
// until the bytes were copied out — not for the send, which here lands
// the payload and then fails: the flush is held, the connection reported
// closed and the re-dial refused. The send's failure goes to the FailID
// hook alone: a source event that ended at the send would fail the write
// with CL_INVALID_EVENT_WAIT_LIST although its payload landed.
func TestForwardSourceEventEndsAtItsRead(t *testing.T) {
	const size = 4096
	held := &heldConn{hold: size, held: make(chan struct{}), release: make(chan struct{})}
	var dials atomic.Int32
	h := newPeerHarnessWrap(t, func(c net.Conn) (net.Conn, error) {
		if dials.Add(1) > 1 {
			c.Close()
			return nil, io.ErrClosedPipe
		}
		held.Conn = c
		return held, nil
	})
	defer h.ep.Close()
	defer h.peer.Close()
	h.setupBuffer(t, size)

	h.accept(t, 1, 600, size)
	h.forward(t, protocol.ForwardBuffer{QueueID: 2, SrcBufID: 3, Size: size, Token: 1, DstBufID: 3, EventID: 601, FailID: 602})
	select {
	case <-held.held:
	case <-time.After(5 * time.Second):
		t.Fatal("the payload never reached the peer link")
	}
	if st := h.event(t, 600); st != cl.Complete {
		t.Fatalf("gate status = %v, want the payload landed", st)
	}

	// Meanwhile, a write on the source that waits on the forward.
	stream := h.ep.OpenStream()
	h.oneway(t, protocol.MsgEnqueueWrite, func(w *protocol.Writer) {
		protocol.PutEnqueue(w, protocol.Enqueue{QueueID: 2, EventID: 603, WaitIDs: []uint64{601},
			Cmd: protocol.GraphCommand{Op: protocol.GraphOpWrite, BufID: 3, Size: size, StreamID: stream.ID()}})
	})
	sendPayload(t, stream, bytes.Repeat([]byte{7}, size))

	// The connection closes under the held flush, and the retry cannot dial.
	ep, err := h.d.peers.Get("srv/peer")
	if err != nil {
		t.Fatal(err)
	}
	go ep.Close()
	for !ep.Closed() {
		runtime.Gosched()
	}
	close(held.release)

	f := h.completion(t, 602)
	if f.Op != protocol.MsgForwardBuffer || f.EventID != 602 || cl.ErrorCode(f.Status) != cl.InvalidServer {
		t.Fatalf("send failure = %+v, want InvalidServer on the FailID hook 602", f)
	}
	if st := h.event(t, 603); st != cl.Complete {
		t.Fatalf("write on the forward's source = %v, want Complete", cl.ErrorCode(st))
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("%d dials, want the first and one refused retry", n)
	}
}

// ioReadFull avoids importing io in two places of this test file.
func ioReadFull(st *gcf.Stream, p []byte) (int, error) {
	n := 0
	for n < len(p) {
		m, err := st.Read(p[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
