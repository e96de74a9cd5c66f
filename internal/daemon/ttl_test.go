package daemon

// Millisecond-TTL churn for the parked peer-payload table: with
// Config.PeerParkTTL at 2ms, expiry races the accept on every
// rendezvous, and the daemon must resolve each race cleanly — the gate
// completes (payload matched in time) or fails fast with
// cl.OutOfResources (payload expired first), never hangs — and the
// tables and TTL timers must drain to zero afterwards. This is the
// regression test for the hardcoded 30s TTL: at that setting the expiry
// path effectively never ran in tests, and its fixed one-second timer
// pad meant an expired payload could linger ~1s past its TTL.

import (
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/protocol"
)

const msTTL = 2 * time.Millisecond

// waitForwardTablesEmpty polls until the daemon's rendezvous tables and
// pending TTL timers drain, or the deadline passes.
func waitForwardTablesEmpty(t *testing.T, d *Daemon, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		d.fwdMu.Lock()
		d.expireEarlyLocked()
		parked := len(d.fwdEar) + len(d.fwdIn) + len(d.fwdLive)
		d.fwdMu.Unlock()
		if parked == 0 && d.PendingEarlyTimers() == 0 {
			return
		}
		if time.Now().After(deadline) {
			d.fwdMu.Lock()
			ear, in, live := len(d.fwdEar), len(d.fwdIn), len(d.fwdLive)
			d.fwdMu.Unlock()
			t.Fatalf("forward state not drained: %d early, %d accepts, %d live, %d timers",
				ear, in, live, d.PendingEarlyTimers())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPeerParkTTLExpiry(t *testing.T) {
	h := newPeerHarnessTTL(t, msTTL)
	defer h.ep.Close()
	defer h.peer.Close()
	h.setupBuffer(t, 64)
	payload := make([]byte, 64)

	// Park a payload with no accept: it must expire at the millisecond
	// TTL — not after the old fixed ~1s timer pad — and a late accept
	// must fail fast with OutOfResources instead of parking forever.
	h.sendTransfer(t, protocol.PeerTransfer{Token: 77, BufID: 3, Offset: 0, Size: 64}, payload)
	// A dropped token proves the payload was parked and then expired: the
	// only other way into fwdDrop is a full early table, and this test
	// parks one payload. Polling for the parked entry itself would race
	// its few-millisecond life on a loaded host.
	start := time.Now()
	deadline := start.Add(2 * time.Second)
	for {
		h.d.fwdMu.Lock()
		dropped, early := h.d.fwdDrop[77], len(h.d.fwdEar)
		h.d.fwdMu.Unlock()
		if dropped {
			if early >= maxEarlyTransfers {
				t.Fatalf("token dropped with a full early table (%d entries), not by expiry", early)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("parked payload never expired at %v TTL", msTTL)
		}
		time.Sleep(time.Millisecond)
	}
	// The timer itself (not just the lazy sweep above) must retire the
	// entry promptly: its pad scales with the TTL.
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("expiry took %v for a %v TTL", waited, msTTL)
	}
	h.oneway(t, protocol.MsgAcceptForward, func(w *protocol.Writer) {
		protocol.PutAcceptForward(w, protocol.AcceptForward{
			Token: 77, BufID: 3, Offset: 0, Size: 64, EventID: 900,
		})
	})
	env := h.waitNotify(t, protocol.MsgEventComplete)
	if id := env.Body.U64(); id != 900 {
		t.Fatalf("completion for event %d, want 900", id)
	}
	if st := cl.CommandStatus(env.Body.I32()); cl.ErrorCode(st) != cl.OutOfResources {
		t.Fatalf("late accept status = %v, want OutOfResources", st)
	}
	waitForwardTablesEmpty(t, h.d, 5*time.Second)
}

func TestPeerParkTTLChurnRace(t *testing.T) {
	h := newPeerHarnessTTL(t, msTTL)
	defer h.ep.Close()
	defer h.peer.Close()
	h.setupBuffer(t, 256)
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}

	// Payload-first rendezvous under a TTL short enough that expiry and
	// the accept genuinely race. Every gate must settle one way or the
	// other; a hang here means an accept was parked against a payload
	// that expired without recording its token (or vice versa).
	const churn = 400
	matched, expired := 0, 0
	for i := 0; i < churn; i++ {
		token := uint64(3000 + i)
		eventID := uint64(9000 + i)
		h.sendTransfer(t, protocol.PeerTransfer{Token: token, BufID: 3, Offset: 0, Size: 256}, payload)
		if i%3 == 0 {
			// Let some payloads age past the TTL before their accept.
			time.Sleep(msTTL + parkTimerPad(msTTL))
		}
		h.oneway(t, protocol.MsgAcceptForward, func(w *protocol.Writer) {
			protocol.PutAcceptForward(w, protocol.AcceptForward{
				Token: token, BufID: 3, Offset: 0, Size: 256, EventID: eventID,
			})
		})
		env := h.waitNotify(t, protocol.MsgEventComplete)
		if id := env.Body.U64(); id != eventID {
			t.Fatalf("transfer %d: completion for event %d, want %d", i, id, eventID)
		}
		switch st := cl.CommandStatus(env.Body.I32()); {
		case st == cl.Complete:
			matched++
		case cl.ErrorCode(st) == cl.OutOfResources:
			expired++
		default:
			t.Fatalf("transfer %d: status %v, want Complete or OutOfResources", i, st)
		}
	}
	// Both arms of the race must actually have run.
	if matched == 0 || expired == 0 {
		t.Fatalf("race not exercised: %d matched, %d expired of %d", matched, expired, churn)
	}
	t.Logf("churn at %v TTL: %d matched, %d expired", msTTL, matched, expired)
	waitForwardTablesEmpty(t, h.d, 5*time.Second)
}

func TestPeerParkTTLSessionCloseRace(t *testing.T) {
	h := newPeerHarnessTTL(t, msTTL)
	defer h.peer.Close()
	h.setupBuffer(t, 64)
	payload := make([]byte, 64)

	// Accepts parked waiting for payloads that never arrive, plus
	// payloads parked waiting for accepts that never arrive — then the
	// client session dies. Session-close retirement must cancel the
	// accepts' gates, TTL expiry must drain the orphaned payloads, and
	// the two paths must not trip over each other's table entries.
	for i := 0; i < 50; i++ {
		h.oneway(t, protocol.MsgAcceptForward, func(w *protocol.Writer) {
			protocol.PutAcceptForward(w, protocol.AcceptForward{
				Token: uint64(5000 + i), BufID: 3, Offset: 0, Size: 64, EventID: uint64(15000 + i),
			})
		})
	}
	for i := 0; i < 50; i++ {
		h.sendTransfer(t, protocol.PeerTransfer{Token: uint64(6000 + i), BufID: 3, Offset: 0, Size: 64}, payload)
	}
	// Give the one-way frames time to dispatch before the close races in.
	time.Sleep(msTTL)
	h.ep.Close()
	waitForwardTablesEmpty(t, h.d, 5*time.Second)
}
