package gcf

// Regression tests for the size-classed frame/payload pools: the Put
// paths are cap-keyed, so an aliased sub-slice (which would hand the
// same memory to two owners) or a foreign buffer must never re-enter a
// pool, and WriteOwned's release must fire exactly once per payload no
// matter how many frames it spans.

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPayloadPoolClassSizes(t *testing.T) {
	if GetPayload(0) != nil {
		t.Fatal("GetPayload(0) should be nil")
	}
	for _, n := range []int{1, 100, 4096, 4097, 64 << 10, 1 << 20, 16 << 20} {
		p := GetPayload(n)
		if len(p) != n {
			t.Fatalf("GetPayload(%d): len %d", n, len(p))
		}
		c := cap(p)
		if c < n || c&(c-1) != 0 || c < 1<<payloadMinShift || c > 1<<payloadMaxShift {
			t.Fatalf("GetPayload(%d): cap %d is not a pool class", n, c)
		}
		PutPayload(p)
	}
	// Past the largest class: plain allocation, exact length.
	huge := GetPayload((16 << 20) + 1)
	if len(huge) != (16<<20)+1 {
		t.Fatalf("oversized payload len %d", len(huge))
	}
	PutPayload(huge) // must be silently dropped, not pooled
}

// TestPayloadPoolReuse checks that the pool actually recycles: across a
// burst of get/put cycles on one goroutine at least some buffers must
// come back. A broken cap key (every Put dropped) would make this a
// per-op allocator again — the leak this test pins down.
func TestPayloadPoolReuse(t *testing.T) {
	const class = 32 << 10
	seen := make(map[*byte]bool)
	reused := 0
	for i := 0; i < 200; i++ {
		p := GetPayload(class - 7) // off-class length, on-class cap
		if seen[&p[0]] {
			reused++
		}
		seen[&p[0]] = true
		PutPayload(p)
	}
	if reused == 0 {
		t.Fatal("no payload buffer was ever reused across 200 get/put cycles")
	}
}

// TestPayloadPoolRejectsAliases hammers the pools with adversarial puts
// — aliased sub-slices, foreign odd-cap buffers — and checks every
// subsequent Get still returns a full-length, exact-class buffer. A
// poisoned pool surfaces here as a short reslice panic or a short
// buffer handed out for a full-class request.
func TestPayloadPoolRejectsAliases(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		n := 1 + rng.Intn(1<<16)
		p := GetPayload(n)
		switch rng.Intn(3) {
		case 0:
			// Aliased tail: cap is off-class, must be dropped.
			if off := rng.Intn(len(p)) + 1; off < len(p) {
				PutPayload(p[off:])
			}
		case 1:
			// Foreign buffer with a non-class capacity.
			PutPayload(make([]byte, n))
		default:
			PutPayload(p)
		}
		q := GetPayload(n)
		if len(q) != n {
			t.Fatalf("poisoned pool: GetPayload(%d) returned len %d", n, len(q))
		}
		if c := cap(q); c&(c-1) != 0 && n <= 1<<payloadMaxShift {
			t.Fatalf("poisoned pool: GetPayload(%d) returned cap %d", n, c)
		}
		// Every byte must be writable: a short alias in the pool would
		// have panicked the class reslice above; scribble to be sure.
		q[0], q[n-1] = 1, 2
		PutPayload(q)
	}
}

// TestPayloadPoolAllocsZero pins the pool's promise: a Get/Put pair in
// steady state allocates nothing, not even the box a slice header needs
// to travel in sync.Pool's interface.
func TestPayloadPoolAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	for _, n := range []int{100, 4096, 64 << 10, 256 << 10} {
		PutPayload(GetPayload(n))
		if avg := testing.AllocsPerRun(200, func() { PutPayload(GetPayload(n)) }); avg != 0 {
			t.Errorf("GetPayload(%d)/PutPayload: %.2f allocations per pair, want 0", n, avg)
		}
	}
}

// TestSharedPayloadLastDropReturnsBlock: the block stays out of the pool
// while anyone holds it, goes back with the last Drop, and a Drop too
// many — the block may be another owner's by then — panics instead of
// putting it back twice.
func TestSharedPayloadLastDropReturnsBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	// One P, as testing.AllocsPerRun arranges it: what a goroutine Puts it
	// Gets back, wherever the scheduler resumes it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const class = 128 << 10 // no other test of this package parks blocks here
	p := NewSharedPayload(class)
	block := &p.Data[0]
	p.Hold()
	p.Drop()
	if q := GetPayload(class); &q[0] == block {
		t.Fatal("block handed out again while a holder remains")
	}
	p.Drop()
	if q := GetPayload(class); &q[0] != block {
		t.Fatal("last Drop did not return the block to the pool")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a Drop without a holder did not panic")
		}
	}()
	p.Drop()
}

func TestFramePoolCapKeying(t *testing.T) {
	for _, n := range []int{1, 4 << 10, (4 << 10) + 1, 64 << 10, maxFrame} {
		p := getFrame(n)
		if len(p) != n {
			t.Fatalf("getFrame(%d): len %d", n, len(p))
		}
		ok := false
		for _, sz := range frameClasses {
			if cap(p) == sz {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("getFrame(%d): cap %d is not a frame class", n, cap(p))
		}
		putFrame(p[1:]) // aliased put must be dropped (cap off-class)
		putFrame(p)
	}
}

// TestWriteOwnedReleaseExactlyOnce pushes 1k owned payloads (single-
// and multi-frame) through a socket endpoint pair and requires every
// release to fire exactly once after the reader drains — the leak test
// for the ownership rule "released on flush-complete or stream close".
func TestWriteOwnedReleaseExactlyOnce(t *testing.T) {
	ea, eb, cleanup := pair()
	defer cleanup()
	ea.Start(func([]byte) {}, nil)

	var mu sync.Mutex
	got := 0
	var wg sync.WaitGroup
	eb.Start(func(msg []byte) {
		id := uint32(msg[0])<<24 | uint32(msg[1])<<16 | uint32(msg[2])<<8 | uint32(msg[3])
		s := eb.Stream(id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, _ := io.Copy(io.Discard, s)
			s.Release()
			mu.Lock()
			got += int(n)
			mu.Unlock()
		}()
	}, nil)

	const transfers = 1000
	var released atomic.Int32
	var releases [transfers]atomic.Int32
	sent := 0
	for i := 0; i < transfers; i++ {
		n := 1 + (i*7919)%(maxFrame*2) // spans 1- and 2-frame payloads
		p := GetPayload(n)
		for j := 0; j < n; j += 512 {
			p[j] = byte(i)
		}
		sent += n
		st := ea.OpenStream()
		id := st.ID()
		if err := ea.Send([]byte{byte(id >> 24), byte(id >> 16), byte(id >> 8), byte(id)}); err != nil {
			t.Fatalf("transfer %d announce: %v", i, err)
		}
		idx := i
		err := st.WriteOwned(p, func() {
			if releases[idx].Add(1) == 1 {
				released.Add(1)
				PutPayload(p)
			}
		})
		if err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
		if err := st.CloseWrite(); err != nil {
			t.Fatalf("transfer %d close: %v", i, err)
		}
		st.Release()
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		done := got == sent
		mu.Unlock()
		if done && released.Load() == transfers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drained %d/%d bytes, %d/%d releases fired", got, sent, released.Load(), transfers)
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	for i := range releases {
		if n := releases[i].Load(); n != 1 {
			t.Fatalf("transfer %d released %d times", i, n)
		}
	}
}

// TestStreamReleaseReclaimsUnread: a receiver abandoning a stream with
// unconsumed chunks must reclaim them (firing in-process release
// callbacks) rather than strand the writer's buffer.
func TestStreamReleaseReclaimsUnread(t *testing.T) {
	pa, pb := NewLocalPair()
	pa.Start(func([]byte) {}, nil)
	incoming := make(chan *Stream, 1)
	pb.Start(func(msg []byte) {
		id := uint32(msg[0])<<24 | uint32(msg[1])<<16 | uint32(msg[2])<<8 | uint32(msg[3])
		incoming <- pb.Stream(id)
	}, nil)
	defer pa.Close()
	defer pb.Close()

	payload := bytes.Repeat([]byte{0xAB}, 128<<10)
	var released atomic.Int32
	st := pa.OpenStream()
	id := st.ID()
	if err := pa.Send([]byte{byte(id >> 24), byte(id >> 16), byte(id >> 8), byte(id)}); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteOwned(payload, func() { released.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if err := st.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	st.Release()

	var rs *Stream
	select {
	case rs = <-incoming:
	case <-time.After(5 * time.Second):
		t.Fatal("stream never arrived")
	}
	// Abandon without reading a byte.
	rs.Release()
	deadline := time.Now().Add(5 * time.Second)
	for released.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned stream never released the writer's payload")
		}
		time.Sleep(time.Millisecond)
	}
	if n := released.Load(); n != 1 {
		t.Fatalf("release fired %d times", n)
	}
}
