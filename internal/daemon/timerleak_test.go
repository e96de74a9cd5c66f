package daemon

import (
	"runtime"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/protocol"
)

// TestEarlyTransferTimersRetire churns many early-payload transfers
// through the rendezvous and pins that matched entries stop their TTL
// timers: without the Stop, every one of the 1k transfers would leave a
// ~30s timer pending (and fire a goroutine later), so a daemon under
// steady forward traffic would carry thousands of live timers at any
// moment. Goroutine count must stay flat too — the per-transfer receive
// and drain goroutines must all retire with their transfers.
func TestEarlyTransferTimersRetire(t *testing.T) {
	h := newPeerHarness(t)
	defer h.ep.Close()
	defer h.peer.Close()
	h.setupBuffer(t, 64)

	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i)
	}

	const churn = 1000
	baseline := runtime.NumGoroutine()
	for i := 0; i < churn; i++ {
		token := uint64(1000 + i)
		eventID := uint64(5000 + i)
		// Payload first (parks an early transfer and arms its timer),
		// accept second (retires the entry — and must stop the timer).
		h.sendTransfer(t, protocol.PeerTransfer{Token: token, BufID: 3, Offset: 0, Size: 64}, payload)
		h.oneway(t, protocol.MsgAcceptForward, func(w *protocol.Writer) {
			protocol.PutAcceptForward(w, protocol.AcceptForward{
				Token: token, BufID: 3, Offset: 0, Size: 64, EventID: eventID,
			})
		})
		env := h.waitNotify(t, protocol.MsgEventComplete)
		if id := env.Body.U64(); id != eventID {
			t.Fatalf("transfer %d completed event %d, want %d", i, id, eventID)
		}
		if st := cl.CommandStatus(env.Body.I32()); st != cl.Complete {
			t.Fatalf("transfer %d gate status = %v", i, st)
		}
	}

	// Every matched transfer must have stopped its TTL timer. The entry
	// can be consumed either while parked (timer armed, then stopped) or
	// straight off fwdIn (no timer) — both end at zero pending.
	deadline := time.Now().Add(5 * time.Second)
	for h.d.PendingEarlyTimers() != 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if n := h.d.PendingEarlyTimers(); n != 0 {
		t.Fatalf("%d early-transfer timers still pending after %d matched transfers", n, churn)
	}
	h.d.fwdMu.Lock()
	parked := len(h.d.fwdEar) + len(h.d.fwdIn)
	h.d.fwdMu.Unlock()
	if parked != 0 {
		t.Fatalf("%d transfers still parked after churn", parked)
	}
	// Transient receive goroutines drain quickly; the steady-state count
	// must come back to (about) the baseline.
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+10 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+10 {
		t.Fatalf("goroutines grew from %d to %d over %d churned transfers", baseline, n, churn)
	}
}
