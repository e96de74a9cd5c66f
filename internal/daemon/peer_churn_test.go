package daemon

// Churn test for the pooled peer-transfer staging: 1k transfers through
// the token-rendezvous park/land cycle must neither leak goroutines nor
// allocate a fresh staging buffer per transfer. The allocation budget
// is keyed to the payload size: the simnet wire unavoidably copies each
// payload once (~1x), so an unpooled staging path (another ~1x per
// transfer) pushes the per-transfer churn past the asserted ceiling.

import (
	"runtime"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/protocol"
)

func TestPeerTransferChurn(t *testing.T) {
	const (
		transfers = 1000
		size      = 128 << 10
	)
	h := newPeerHarness(t)
	defer h.ep.Close()
	defer h.peer.Close()
	h.setupBuffer(t, size)

	payload := make([]byte, size)
	run := func(token uint64, eventID uint64) {
		for i := range payload {
			payload[i] = byte(token + uint64(i))
		}
		h.oneway(t, protocol.MsgAcceptForward, func(w *protocol.Writer) {
			protocol.PutAcceptForward(w, protocol.AcceptForward{
				Token: token, BufID: 3, Offset: 0, Size: size, EventID: eventID,
			})
		})
		h.sendTransfer(t, protocol.PeerTransfer{Token: token, BufID: 3, Offset: 0, Size: size}, payload)
		if st := h.event(t, eventID); st != cl.Complete {
			t.Fatalf("transfer %d: status %v", token, st)
		}
	}

	// Warm up pools and steady-state goroutines before measuring.
	for i := uint64(1); i <= 20; i++ {
		run(i, 10000+i)
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	goroutinesBefore := runtime.NumGoroutine()

	for i := uint64(100); i < 100+transfers; i++ {
		run(i, 20000+i)
	}

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	perTransfer := int64(after.TotalAlloc-before.TotalAlloc) / transfers
	// One wire copy (~size) is inherent to simnet; pooled staging keeps
	// the rest near zero. Unpooled staging doubles this. The race
	// detector inflates allocation accounting, so its ceiling is looser
	// while still below the unpooled cost.
	ceiling := int64(size) * 7 / 4
	if raceEnabled {
		ceiling = int64(size) * 5 / 2
	}
	if perTransfer > ceiling {
		t.Fatalf("allocation churn %d bytes/transfer exceeds %d (staging no longer pooled?)", perTransfer, ceiling)
	}
	t.Logf("allocation churn: %d bytes/transfer for %d-byte payloads", perTransfer, size)

	// Rendezvous goroutines and table entries must all have retired.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= goroutinesBefore+5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d across %d transfers", goroutinesBefore, runtime.NumGoroutine(), transfers)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := h.session(t, h.key).table(); len(n) != 0 {
		t.Fatalf("transfers left in the table: %v", n)
	}
}
