package daemon

import (
	"io"
	"net"
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
}

func newPeerHarness(t *testing.T) *peerHarness {
	t.Helper()
	return newPeerHarnessTTL(t, 0)
}

// newPeerHarnessTTL is newPeerHarness with an explicit parked-payload
// TTL (0 keeps the default), for the millisecond-expiry churn tests.
func newPeerHarnessTTL(t *testing.T, ttl time.Duration) *peerHarness {
	t.Helper()
	return newPeerHarnessWrap(t, ttl, func(c net.Conn) net.Conn { return c })
}

// newPeerHarnessWrap additionally passes every connection the daemon
// dials on its peer plane through wrap.
func newPeerHarnessWrap(t *testing.T, ttl time.Duration, wrap func(net.Conn) net.Conn) *peerHarness {
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
			return wrap(c), nil
		},
		PeerParkTTL: ttl,
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

	pconn, err := nw.Dial("srv/peer")
	if err != nil {
		t.Fatal(err)
	}
	h.peer = gcf.NewEndpoint(pconn, true)
	h.peer.Start(func([]byte) {}, nil)
	return h
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

// sendTransfer pushes a peer transfer header plus payload.
func (h *peerHarness) sendTransfer(t *testing.T, hdr protocol.PeerTransfer, payload []byte) {
	t.Helper()
	stream := h.peer.OpenStream()
	hdr.StreamID = stream.ID()
	w := protocol.NewWriter()
	protocol.PutPeerTransfer(w, hdr)
	if err := h.peer.Send(protocol.EncodeEnvelope(protocol.ClassOneWay, 0, protocol.MsgPeerTransfer, w)); err != nil {
		t.Fatal(err)
	}
	if len(payload) > 0 {
		if _, err := stream.Write(payload); err != nil {
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
		env := h.waitNotify(t, protocol.MsgCommandFailed)
		f := protocol.GetCommandFailure(env.Body)
		if f.EventID != tc.acc.EventID || f.Status >= 0 {
			t.Fatalf("%s: failure = %+v", tc.name, f)
		}
	}
	// Nothing may be parked for the rejected tokens.
	h.d.fwdMu.Lock()
	pending := len(h.d.fwdIn)
	h.d.fwdMu.Unlock()
	if pending != 0 {
		t.Fatalf("%d rejected accepts left pending", pending)
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
	env := h.waitNotify(t, protocol.MsgEventComplete)
	if id := env.Body.U64(); id != 200 {
		t.Fatalf("event = %d, want 200", id)
	}
	if st := cl.CommandStatus(env.Body.I32()); st >= 0 {
		t.Fatalf("gate status = %v, want failure", st)
	}
}

// TestEarlyTransferRendezvous: the payload may beat the accept to the
// daemon (independent links); the transfer must still land once the
// accept arrives.
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
	h.sendTransfer(t, protocol.PeerTransfer{Token: 9, BufID: 3, Offset: 0, Size: 64}, payload)
	// ... give it time to be parked, then the accept.
	time.Sleep(10 * time.Millisecond)
	h.oneway(t, protocol.MsgAcceptForward, func(w *protocol.Writer) {
		protocol.PutAcceptForward(w, protocol.AcceptForward{
			Token: 9, BufID: 3, Offset: 0, Size: 64, EventID: 300,
		})
	})
	env := h.waitNotify(t, protocol.MsgEventComplete)
	if id := env.Body.U64(); id != 300 {
		t.Fatalf("event = %d, want 300", id)
	}
	if st := cl.CommandStatus(env.Body.I32()); st != cl.Complete {
		t.Fatalf("gate status = %v, want Complete", st)
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

// TestMalformedPeerFramesDropped: truncated peer frames must be dropped
// without wedging the connection — a valid transfer afterwards works.
func TestMalformedPeerFramesDropped(t *testing.T) {
	h := newPeerHarness(t)
	defer h.ep.Close()
	defer h.peer.Close()
	h.setupBuffer(t, 32)

	// Truncated hello and transfer headers.
	if err := h.peer.Send(protocol.EncodeEnvelope(protocol.ClassOneWay, 0, protocol.MsgPeerHello, protocol.NewWriter())); err != nil {
		t.Fatal(err)
	}
	w := protocol.NewWriter()
	w.U64(1) // token only: header cut short
	if err := h.peer.Send(protocol.EncodeEnvelope(protocol.ClassOneWay, 0, protocol.MsgPeerTransfer, w)); err != nil {
		t.Fatal(err)
	}
	// An unsupported peer-plane message is ignored too.
	if err := h.peer.Send(protocol.EncodeEnvelope(protocol.ClassOneWay, 0, protocol.MsgEnqueueWrite, protocol.NewWriter())); err != nil {
		t.Fatal(err)
	}

	// The connection still serves a valid rendezvous.
	h.oneway(t, protocol.MsgAcceptForward, func(w *protocol.Writer) {
		protocol.PutAcceptForward(w, protocol.AcceptForward{
			Token: 11, BufID: 3, Offset: 0, Size: 32, EventID: 400,
		})
	})
	h.sendTransfer(t, protocol.PeerTransfer{Token: 11, BufID: 3, Offset: 0, Size: 32}, make([]byte, 32))
	env := h.waitNotify(t, protocol.MsgEventComplete)
	if id := env.Body.U64(); id != 400 {
		t.Fatalf("event = %d, want 400", id)
	}
	if st := cl.CommandStatus(env.Body.I32()); st != cl.Complete {
		t.Fatalf("gate status = %v, want Complete", st)
	}
}

// TestOverflowedEarlyTransferFailsAcceptFast: when the early-transfer
// table overflows, the dropped payload's accept must fail its gate
// immediately instead of parking forever — commands gated on it must
// not hang.
func TestOverflowedEarlyTransferFailsAcceptFast(t *testing.T) {
	h := newPeerHarness(t)
	defer h.ep.Close()
	defer h.peer.Close()
	h.setupBuffer(t, 8)

	// Fill the parking table, then one more: the overflow victim.
	for i := 0; i < maxEarlyTransfers+1; i++ {
		h.sendTransfer(t, protocol.PeerTransfer{Token: uint64(1000 + i), BufID: 3, Offset: 0, Size: 8}, make([]byte, 8))
	}
	victim := uint64(1000 + maxEarlyTransfers)
	// Wait until the daemon has processed the flood.
	deadline := time.Now().Add(5 * time.Second)
	for {
		h.d.fwdMu.Lock()
		dropped := h.d.fwdDrop[victim]
		h.d.fwdMu.Unlock()
		if dropped {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("overflow victim never recorded as dropped")
		}
		time.Sleep(time.Millisecond)
	}

	// The victim's accept fails fast ...
	h.oneway(t, protocol.MsgAcceptForward, func(w *protocol.Writer) {
		protocol.PutAcceptForward(w, protocol.AcceptForward{
			Token: victim, BufID: 3, Offset: 0, Size: 8, EventID: 600,
		})
	})
	env := h.waitNotify(t, protocol.MsgEventComplete)
	if id := env.Body.U64(); id != 600 {
		t.Fatalf("event = %d, want 600", id)
	}
	if st := cl.CommandStatus(env.Body.I32()); st >= 0 {
		t.Fatalf("gate status = %v, want failure", st)
	}
	// ... while a parked transfer still completes normally.
	h.oneway(t, protocol.MsgAcceptForward, func(w *protocol.Writer) {
		protocol.PutAcceptForward(w, protocol.AcceptForward{
			Token: 1000, BufID: 3, Offset: 0, Size: 8, EventID: 601,
		})
	})
	env = h.waitNotify(t, protocol.MsgEventComplete)
	if id := env.Body.U64(); id != 601 {
		t.Fatalf("event = %d, want 601", id)
	}
	if st := cl.CommandStatus(env.Body.I32()); st != cl.Complete {
		t.Fatalf("gate status = %v, want Complete", st)
	}
}

// TestCancelledForwardNeverTouchesBuffer: once the client cancels a
// pending forward (failing its gate remotely), a payload arriving
// afterwards must not write a single byte into the buffer.
func TestCancelledForwardNeverTouchesBuffer(t *testing.T) {
	h := newPeerHarness(t)
	defer h.ep.Close()
	defer h.peer.Close()
	h.setupBuffer(t, 32)

	h.oneway(t, protocol.MsgAcceptForward, func(w *protocol.Writer) {
		protocol.PutAcceptForward(w, protocol.AcceptForward{
			Token: 21, BufID: 3, Offset: 0, Size: 32, EventID: 700,
		})
	})
	// Client-side cancellation: fail the gate through the normal
	// user-event path (what failRemoteGate does after a source failure).
	if h.tell(t, protocol.MsgSetUserEventStatus, func(w *protocol.Writer) {
		w.U64(700)
		w.I32(int32(cl.InvalidServer))
	}) != cl.Success {
		t.Fatal("gate cancellation failed")
	}
	// The payload arrives too late.
	payload := make([]byte, 32)
	for i := range payload {
		payload[i] = 0xFF
	}
	h.sendTransfer(t, protocol.PeerTransfer{Token: 21, BufID: 3, Offset: 0, Size: 32}, payload)
	time.Sleep(20 * time.Millisecond)

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
// after announcing an accept must not leak the pending forward — the
// daemon cancels the gate, and a payload arriving later is not written
// into the dead session's buffer.
func TestSessionCloseRetiresPendingForwards(t *testing.T) {
	h := newPeerHarness(t)
	defer h.peer.Close()
	h.setupBuffer(t, 16)

	h.oneway(t, protocol.MsgAcceptForward, func(w *protocol.Writer) {
		protocol.PutAcceptForward(w, protocol.AcceptForward{
			Token: 31, BufID: 3, Offset: 0, Size: 16, EventID: 800,
		})
	})
	waitPending := func(want int) {
		deadline := time.Now().Add(5 * time.Second)
		for {
			h.d.fwdMu.Lock()
			n := len(h.d.fwdIn)
			h.d.fwdMu.Unlock()
			if n == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("pending forwards = %d, want %d", n, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitPending(1)
	h.ep.Close()
	waitPending(0)
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
		env := h.waitNotify(t, protocol.MsgCommandFailed)
		f := protocol.GetCommandFailure(env.Body)
		if f.EventID != tc.f.EventID || f.Status >= 0 {
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
	h := newPeerHarnessWrap(t, 0, func(c net.Conn) net.Conn {
		hc := &halfDeadConn{Conn: c}
		pooled = append(pooled, hc)
		return hc
	})
	defer h.ep.Close()
	defer h.peer.Close()
	h.setupBuffer(t, 64)

	// forward ships buffer 3 to this same daemon's peer plane and waits
	// for the receiver's gate.
	forward := func(token, gateID uint64) {
		t.Helper()
		h.oneway(t, protocol.MsgAcceptForward, func(w *protocol.Writer) {
			protocol.PutAcceptForward(w, protocol.AcceptForward{Token: token, BufID: 3, Size: 64, EventID: gateID})
		})
		h.oneway(t, protocol.MsgForwardBuffer, func(w *protocol.Writer) {
			protocol.PutForwardBuffer(w, protocol.ForwardBuffer{QueueID: 2, SrcBufID: 3, Size: 64,
				PeerAddr: "srv/peer", Token: token, DstBufID: 3, EventID: gateID + 1})
		})
		for {
			env := h.waitNotify(t, protocol.MsgEventComplete)
			if id := env.Body.U64(); id != gateID {
				continue // the source-side completion
			}
			if st := cl.CommandStatus(env.Body.I32()); st != cl.Complete {
				t.Fatalf("transfer %d: gate status %v", token, st)
			}
			return
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
