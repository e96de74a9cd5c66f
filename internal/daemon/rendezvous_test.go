package daemon

// The rendezvous rules, each driven to a fixed state: a payload meets its
// accept on the connection its key names, and waits for it only while
// that connection lives. deliver hands a payload to the rendezvous
// synchronously and accept returns once the daemon dispatched the accept,
// so every table state below is read at a known point, never raced.

import (
	"testing"

	"dopencl/internal/cl"
	"dopencl/internal/protocol"
)

// TestRendezvousConnectionEndDrainsTable: when the connection ends,
// waiting gates fail, parked payloads are drained and the key becomes
// unknown, so a later payload naming it is drained at once.
func TestRendezvousConnectionEndDrainsTable(t *testing.T) {
	h := newPeerHarness(t)
	defer h.peer.Close()
	h.setupBuffer(t, 64)
	payload := make([]byte, 64)

	for i := uint64(0); i < 3; i++ {
		h.accept(t, 1+i, 500+i, 64)
		h.deliver(t, protocol.PeerTransfer{Token: 11 + i, BufID: 3, Size: 64}, payload)
	}
	s := h.session(t, h.key)
	if n := s.table(); n[waiting] != 3 || n[parked] != 3 {
		t.Fatalf("table = %v, want 3 waiting and 3 parked", n)
	}
	accepts := s.accepts()

	// The daemon's end of the connection: its close notice has run once
	// the session is gone.
	s.conn.Close()
	<-s.gone
	for _, a := range accepts {
		if st := a.Status(); cl.ErrorCode(st) != cl.InvalidServer {
			t.Fatalf("gate of token %d = %v after the end, want InvalidServer", a.token, st)
		}
	}
	if !s.closedTable() {
		t.Fatalf("table after the end = %v, want closed", s.table())
	}
	h.deliver(t, protocol.PeerTransfer{Token: 1, BufID: 3, Size: 64}, payload)
	h.d.sessMu.Lock()
	keys := len(h.d.keys)
	h.d.sessMu.Unlock()
	if keys != 0 || !s.closedTable() {
		t.Fatalf("a payload naming the ended key registered: %d keys, table %v", keys, s.table())
	}
}

// TestRendezvousGoodbyeKeepsParkedPayloads: a Goodbye fails the lease's
// waiting gates, whose tokens are then spent, but keeps parked payloads:
// on the kept connection they may belong to the next lease's accepts.
func TestRendezvousGoodbyeKeepsParkedPayloads(t *testing.T) {
	h := newPeerHarness(t)
	defer h.ep.Close()
	defer h.peer.Close()
	h.setupBuffer(t, 32)
	payload := make([]byte, 32)

	h.accept(t, 1, 500, 32)
	h.deliver(t, protocol.PeerTransfer{Token: 2, BufID: 3, Size: 32}, payload)
	if st := h.tell(t, protocol.MsgGoodbye, nil); st != cl.Success {
		t.Fatalf("goodbye: %v", st)
	}
	if st := h.event(t, 500); cl.ErrorCode(st) != cl.InvalidServer {
		t.Fatalf("waiting gate after the goodbye = %v, want InvalidServer", st)
	}
	s := h.session(t, h.key)
	if n := s.table(); n[spent] != 1 || n[parked] != 1 || len(n) != 2 {
		t.Fatalf("table after the goodbye = %v, want token 1 spent and token 2 parked", n)
	}

	// The next lease on the same connection meets the parked payload.
	h.oneway(t, protocol.MsgHello, func(w *protocol.Writer) {
		protocol.PutHello(w, protocol.Hello{Client: "peer-test"})
	})
	h.setupBuffer(t, 32)
	h.accept(t, 2, 501, 32)
	if st := h.event(t, 501); st != cl.Complete {
		t.Fatalf("next lease's gate = %v, want Complete", st)
	}
	// The spent token leaves with its payload.
	h.deliver(t, protocol.PeerTransfer{Token: 1, BufID: 3, Size: 32}, payload)
	if n := s.table(); len(n) != 0 {
		t.Fatalf("table = %v, want empty", n)
	}
}

// TestRendezvousCutStreamSpendsToken: a stream cut before the payload's
// end fails the gate and spends the token, so the source daemon's one
// retry is drained and removes the entry.
func TestRendezvousCutStreamSpendsToken(t *testing.T) {
	h := newPeerHarness(t)
	defer h.ep.Close()
	defer h.peer.Close()
	h.setupBuffer(t, 64)

	h.accept(t, 5, 510, 64)
	h.deliver(t, protocol.PeerTransfer{Token: 5, BufID: 3, Size: 64}, make([]byte, 10))
	if st := h.event(t, 510); cl.ErrorCode(st) != cl.InvalidServer {
		t.Fatalf("gate of a cut stream = %v, want InvalidServer", st)
	}
	s := h.session(t, h.key)
	if n := s.table(); n[spent] != 1 || len(n) != 1 {
		t.Fatalf("table after the cut = %v, want the token spent", n)
	}
	h.deliver(t, protocol.PeerTransfer{Token: 5, BufID: 3, Size: 64}, make([]byte, 64))
	if n := s.table(); len(n) != 0 {
		t.Fatalf("table after the retry = %v, want empty", n)
	}
}

// TestRendezvousChurnLeavesNothing: a thousand transfers, payload first
// and accept first in turn, each land, and each landing deletes its entry
// before its gate's notice goes out.
func TestRendezvousChurnLeavesNothing(t *testing.T) {
	h := newPeerHarness(t)
	defer h.ep.Close()
	defer h.peer.Close()
	h.setupBuffer(t, 64)
	payload := make([]byte, 64)
	s := h.session(t, h.key)

	for i := uint64(0); i < 1000; i++ {
		token, eventID := 1000+i, 5000+i
		hdr := protocol.PeerTransfer{Token: token, BufID: 3, Size: 64}
		if i%2 == 0 {
			h.deliver(t, hdr, payload)
			h.accept(t, token, eventID, 64)
		} else {
			h.accept(t, token, eventID, 64)
			h.deliver(t, hdr, payload)
		}
		if st := h.event(t, eventID); st != cl.Complete {
			t.Fatalf("transfer %d: gate status %v", i, st)
		}
		if n := s.table(); len(n) != 0 {
			t.Fatalf("transfer %d left %v in the table", i, n)
		}
	}
}
