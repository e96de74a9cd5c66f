package serve

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"dopencl/internal/cl"
)

func TestFutureCompleteIdempotent(t *testing.T) {
	f := NewFuture()
	if _, _, ok := f.TryResult(); ok {
		t.Fatal("unresolved future reported a result")
	}
	f.Complete(Result{Output: []byte("first")}, nil)
	f.Complete(Result{Output: []byte("second")}, errors.New("late"))
	res, err := f.Wait()
	if err != nil || string(res.Output) != "first" {
		t.Errorf("first completion must win: %q / %v", res.Output, err)
	}
}

func TestFutureConcurrentWaiters(t *testing.T) {
	f := NewFuture()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res, err := f.Wait(); err != nil || string(res.Output) != "x" {
				t.Errorf("waiter got %q / %v", res.Output, err)
			}
		}()
	}
	f.Complete(Result{Output: []byte("x")}, nil)
	wg.Wait()
}

// TestHasherDiscriminates pins that the key covers every field class and
// that length-delimiting prevents concatenation collisions.
func TestHasherDiscriminates(t *testing.T) {
	key := func(build func(*Hasher)) Key {
		h := NewHasher()
		build(&h)
		return h.Sum()
	}
	base := key(func(h *Hasher) { h.String("src"); h.Bytes([]byte{1, 2}); h.Ints([]int{64}) })
	variants := []Key{
		key(func(h *Hasher) { h.String("src2"); h.Bytes([]byte{1, 2}); h.Ints([]int{64}) }),
		key(func(h *Hasher) { h.String("src"); h.Bytes([]byte{1, 3}); h.Ints([]int{64}) }),
		key(func(h *Hasher) { h.String("src"); h.Bytes([]byte{1, 2}); h.Ints([]int{32}) }),
		key(func(h *Hasher) { h.String("src"); h.Bytes([]byte{1}); h.Ints([]int{64}) }),
		// concatenation shift: ("sr","c…") must differ from ("src","…")
		key(func(h *Hasher) { h.String("sr"); h.Bytes([]byte{'c', 1, 2}); h.Ints([]int{64}) }),
	}
	for i, v := range variants {
		if v == base {
			t.Errorf("variant %d collided with base key", i)
		}
	}
	if again := key(func(h *Hasher) { h.String("src"); h.Bytes([]byte{1, 2}); h.Ints([]int{64}) }); again != base {
		t.Error("hasher is not deterministic")
	}
}

// jobKey hashes a job-shaped field stream, as the client and the daemon
// do: a resumed program prefix, four frozen arguments, the slot layout, a
// 256-byte input and a one-dimensional shape.
func jobKey(prefix Key, input []byte) Key {
	h := Resume(prefix)
	for a := 0; a < 4; a++ {
		h.U8(uint8(a))
		h.U64(uint64(a) * 3)
		h.I64(0)
		h.I64(0)
		h.I64(0)
	}
	h.I64(0)
	h.I64(1)
	h.Bytes(input)
	h.I64(int64(len(input)))
	h.Ints(nil)
	h.Ints([]int{len(input) / 4})
	h.Ints(nil)
	return h.Sum()
}

// TestHasherStreams pins the key's discrimination over the stream: every
// byte-string length from 0 to 24 (and a string against itself plus a
// zero byte), every single-bit flip of a 64-byte input, the order of
// fields, the resumed prefix, and streams long enough to fold the buffer.
func TestHasherStreams(t *testing.T) {
	seen := map[Key]string{}
	distinct := func(k Key, what string) {
		t.Helper()
		if prev, ok := seen[k]; ok {
			t.Errorf("%s collides with %s", what, prev)
		}
		seen[k] = what
	}
	bytesKey := func(p []byte) Key {
		h := NewHasher()
		h.Bytes(p)
		return h.Sum()
	}
	zeros := make([]byte, 25)
	for n := 0; n <= 24; n++ {
		distinct(bytesKey(zeros[:n]), fmt.Sprintf("%d zero bytes", n))
	}
	p := []byte("serve")
	distinct(bytesKey(p), "p")
	distinct(bytesKey(append(p, 0)), "p+0x00")

	in := make([]byte, 64)
	for i := range in {
		in[i] = byte(i * 7)
	}
	base := bytesKey(in)
	for bit := 0; bit < 8*len(in); bit++ {
		in[bit/8] ^= 1 << (bit % 8)
		if bytesKey(in) == base {
			t.Errorf("flipping bit %d of a 64-byte input kept the key", bit)
		}
		in[bit/8] ^= 1 << (bit % 8)
	}
	if bytesKey(in) != base {
		t.Error("the key of an input changed with nothing flipped")
	}

	ab, ba := NewHasher(), NewHasher()
	ab.U64(1)
	ab.String("x")
	ba.String("x")
	ba.U64(1)
	if ab.Sum() == ba.Sum() {
		t.Error("swapping two fields kept the key")
	}

	prefix := bytesKey([]byte("kernel void k(...)"))
	suffix := func(h Hasher) Key { h.Bytes(in); h.Ints([]int{16}); return h.Sum() }
	if suffix(Resume(prefix)) != suffix(Resume(prefix)) {
		t.Error("a resumed stream is not deterministic")
	}
	if suffix(Resume(prefix)) == suffix(NewHasher()) {
		t.Error("a resumed stream hashed like the suffix alone")
	}

	// Streams past the buffer fold: still deterministic, still every byte.
	long := make([]byte, 3*hashBuf+5)
	longKey := bytesKey(long)
	if bytesKey(long) != longKey {
		t.Error("a folded stream is not deterministic")
	}
	for _, i := range []int{0, hashBuf - 9, hashBuf, 2*hashBuf + 1, len(long) - 1} {
		long[i] = 1
		if bytesKey(long) == longKey {
			t.Errorf("changing byte %d of a %d-byte stream kept the key", i, len(long))
		}
		long[i] = 0
	}
	var many Hasher
	for i := 0; i < hashBuf; i++ {
		many.U64(uint64(i))
	}
	again := NewHasher()
	for i := 0; i < hashBuf; i++ {
		again.U64(uint64(i))
	}
	if many.Sum() != again.Sum() {
		t.Error("a stream of fixed-size fields past the buffer is not deterministic")
	}

	if n := testing.AllocsPerRun(100, func() { jobKey(prefix, in) }); n != 0 {
		t.Errorf("a job-shaped key allocates %.1f objects", n)
	}
}

// BenchmarkKey derives one job-shaped key per op (0 allocs/op).
func BenchmarkKey(b *testing.B) {
	prefix := Key{A: 1, B: 2}
	input := make([]byte, 256)
	b.ReportAllocs()
	b.SetBytes(int64(len(input)))
	for i := 0; i < b.N; i++ {
		input[0] = byte(i)
		jobKey(prefix, input)
	}
}

// TestCacheMatchesReference drives the cache and a plain ordered-list LRU
// through the same random Puts, Gets and Drops under entry and byte
// bounds, and compares every lookup and the occupancy after each step.
func TestCacheMatchesReference(t *testing.T) {
	type ref struct {
		key Key
		out []byte
	}
	for _, bound := range []struct {
		entries int
		bytes   int64
	}{{1, 100}, {3, 1 << 20}, {8, 40}, {16, 1 << 20}} {
		c := NewCache(bound.entries, bound.bytes)
		var lru []ref // front = most recent
		var bytes int64
		find := func(k Key) int {
			for i, r := range lru {
				if r.key == k {
					return i
				}
			}
			return -1
		}
		remove := func(i int) {
			bytes -= int64(len(lru[i].out))
			lru = append(lru[:i], lru[i+1:]...)
		}
		rng := uint64(bound.entries)
		next := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int(rng>>33) % n
		}
		for step := 0; step < 5000; step++ {
			k := Key{A: uint64(next(24))}
			switch op := next(10); {
			case op < 5:
				out := make([]byte, next(20))
				c.Put(k, out, nil)
				if int64(len(out)) > bound.bytes {
					break
				}
				if i := find(k); i >= 0 {
					remove(i)
				}
				lru = append([]ref{{k, out}}, lru...)
				bytes += int64(len(out))
				for (len(lru) > bound.entries || bytes > bound.bytes) && len(lru) > 1 {
					remove(len(lru) - 1)
				}
			case op < 9:
				out, ok := c.Get(k)
				i := find(k)
				if ok != (i >= 0) || (ok && len(out) != len(lru[i].out)) {
					t.Fatalf("bound %+v step %d: Get(%d) = %d bytes, %v; reference has it at %d",
						bound, step, k.A, len(out), ok, i)
				}
				if i >= 0 {
					r := lru[i]
					lru = append([]ref{r}, append(lru[:i], lru[i+1:]...)...)
				}
			default:
				c.Drop(k)
				if i := find(k); i >= 0 {
					remove(i)
				}
			}
			if st := c.Stats(); st.Entries != len(lru) || st.Bytes != bytes {
				t.Fatalf("bound %+v step %d: cache holds %d entries, %d bytes; reference %d, %d",
					bound, step, st.Entries, st.Bytes, len(lru), bytes)
			}
		}
	}
}

// TestCacheChurnAllocatesNothing: once a cache is full, ten times its
// capacity of unique Puts allocates nothing — evicted slots are reused,
// and the index map stops growing.
func TestCacheChurnAllocatesNothing(t *testing.T) {
	const capacity = 256
	c := NewCache(capacity, 0)
	out := make([]byte, 64)
	var n uint64
	put := func() {
		n++
		c.Put(Key{A: n, B: ^n}, out, nil)
	}
	for i := 0; i < 10*capacity; i++ { // fill, then churn once
		put()
	}
	allocs := testing.AllocsPerRun(10*capacity, put)
	if allocs != 0 {
		t.Errorf("a churning Put allocates %.2f objects", allocs)
	}
	if st := c.Stats(); st.Entries != capacity || st.Evicted != int64(n)-capacity {
		t.Errorf("stats after churn = %+v", st)
	}
}

func TestCacheHitMissAndLRU(t *testing.T) {
	c := NewCache(2, 0)
	k1, k2, k3 := Key{A: 1}, Key{A: 2}, Key{A: 3}
	c.Put(k1, []byte("one"), nil)
	c.Put(k2, []byte("two"), nil)
	if out, ok := c.Get(k1); !ok || string(out) != "one" {
		t.Fatalf("k1 miss: %q %v", out, ok)
	}
	// k1 is now most recent; inserting k3 must evict k2.
	c.Put(k3, []byte("three"), nil)
	if _, ok := c.Get(k2); ok {
		t.Error("k2 should have been evicted")
	}
	if _, ok := c.Get(k1); !ok {
		t.Error("k1 should have survived eviction")
	}
	st := c.Stats()
	if st.Evicted != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheByteBound(t *testing.T) {
	c := NewCache(100, 10)
	c.Put(Key{A: 1}, make([]byte, 6), nil)
	c.Put(Key{A: 2}, make([]byte, 6), nil) // 12 bytes > 10: k1 evicted
	if _, ok := c.Get(Key{A: 1}); ok {
		t.Error("byte bound did not evict")
	}
	if _, ok := c.Get(Key{A: 2}); !ok {
		t.Error("most recent entry lost")
	}
	// An output larger than the whole cache is refused outright.
	c.Put(Key{A: 3}, make([]byte, 11), nil)
	if _, ok := c.Get(Key{A: 3}); ok {
		t.Error("oversized entry should not be cached")
	}
}

// TestCacheStampInvalidation pins the coherence contract: an entry whose
// stamp goes stale is dropped on the next lookup and counted.
func TestCacheStampInvalidation(t *testing.T) {
	c := NewCache(0, 0)
	gen := uint64(7)
	snap := gen
	c.Put(Key{A: 1}, []byte("out"), []Stamp{FuncStamp(func() bool { return gen == snap })})
	if _, ok := c.Get(Key{A: 1}); !ok {
		t.Fatal("fresh stamp should hit")
	}
	gen++ // the underlying range was written
	if _, ok := c.Get(Key{A: 1}); ok {
		t.Fatal("stale stamp must miss")
	}
	if _, ok := c.Get(Key{A: 1}); ok {
		t.Fatal("stale entry must be gone, not just skipped")
	}
	st := c.Stats()
	if st.Invalidated != 1 {
		t.Errorf("Invalidated = %d, want 1", st.Invalidated)
	}
	if st.Hits != 1 || st.Misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 1/2", st.Hits, st.Misses)
	}
}

func TestFairQueueAdmissionControl(t *testing.T) {
	q := NewFairQueue[int, int]()
	q.Open(1, 1, 2)
	if err := q.Push(1, 1, 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(1, 1, 0, 11); err != nil {
		t.Fatal(err)
	}
	err := q.Push(1, 1, 0, 12)
	if !errors.Is(err, cl.Busy) {
		t.Fatalf("over-cap push: got %v, want cl.Busy", err)
	}
	// The slot frees only on Finish, not on Pop: in-flight is the bound.
	if _, _, ok := q.TryPop(); !ok {
		t.Fatal("pop failed")
	}
	if err := q.Push(1, 1, 0, 13); !errors.Is(err, cl.Busy) {
		t.Fatalf("popped-but-unfinished must still count: %v", err)
	}
	q.Finish(1)
	if err := q.Push(1, 1, 0, 14); err != nil {
		t.Fatalf("after Finish: %v", err)
	}
	if err := q.Push(99, 1, 0, 0); !errors.Is(err, cl.InvalidValue) {
		t.Fatalf("unknown session: got %v", err)
	}
}

// TestFairQueueWeightedOrder pins WFQ: with a 3:1 weight ratio and equal
// costs, the heavy session drains ~3 items for every light one.
func TestFairQueueWeightedOrder(t *testing.T) {
	q := NewFairQueue[int, string]()
	q.Open(1, 3, 0)
	q.Open(2, 1, 0)
	for i := 0; i < 9; i++ {
		if err := q.Push(1, 1, 0, "heavy"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := q.Push(2, 1, 0, "light"); err != nil {
			t.Fatal(err)
		}
	}
	var order []string
	for {
		it, _, ok := q.TryPop()
		if !ok {
			break
		}
		order = append(order, it)
	}
	if len(order) != 12 {
		t.Fatalf("popped %d items", len(order))
	}
	// In every window of 8 pops the light session must appear: weight 1/4
	// of the total guarantees at least one slot per 4 virtual time units.
	for start := 0; start+8 <= len(order); start++ {
		seen := false
		for _, s := range order[start : start+8] {
			if s == "light" {
				seen = true
				break
			}
		}
		if !seen {
			t.Fatalf("light session starved in window %d: %v", start, order)
		}
	}
	// And the heavy session must lead 3:1 over the first 8 pops.
	heavy := 0
	for _, s := range order[:8] {
		if s == "heavy" {
			heavy++
		}
	}
	if heavy < 5 {
		t.Errorf("heavy session got %d of first 8 slots, want >= 5 (order %v)", heavy, order)
	}
}

func TestFairQueueHarvestGroup(t *testing.T) {
	q := NewFairQueue[int, int]()
	q.Open(1, 1, 0)
	q.Open(2, 1, 0)
	for i := 0; i < 6; i++ {
		sess := uint64(1 + i%2)
		if err := q.Push(sess, 1, i%2, i); err != nil {
			t.Fatal(err)
		}
	}
	evens := q.HarvestGroup(0, 2)
	if len(evens) != 2 || evens[0]%2 != 0 || evens[1]%2 != 0 {
		t.Fatalf("harvest = %v", evens)
	}
	if q.Len() != 4 {
		t.Errorf("queue len = %d, want 4", q.Len())
	}
	if rest := q.HarvestGroup(0, 100); len(rest) != 1 || rest[0]%2 != 0 {
		t.Errorf("second even harvest = %v", rest)
	}
	if odds := q.HarvestGroup(1, 100); len(odds) != 3 {
		t.Errorf("odd harvest = %v", odds)
	}
	// Both heaps saw lazy removals above; the drained queue must agree.
	if _, _, ok := q.TryPop(); ok {
		t.Error("queue should be empty after harvesting both groups")
	}
}

func TestFairQueueCloseSession(t *testing.T) {
	q := NewFairQueue[int, int]()
	q.Open(1, 1, 0)
	q.Open(2, 1, 0)
	for i := 0; i < 3; i++ {
		q.Push(1, 1, 0, 100+i)
		q.Push(2, 1, 0, 200+i)
	}
	orphans := q.CloseSession(1)
	if fmt.Sprint(orphans) != "[100 101 102]" {
		t.Errorf("orphans = %v, want push order [100 101 102]", orphans)
	}
	if q.Len() != 3 {
		t.Errorf("len = %d after close", q.Len())
	}
	for i := 0; i < 3; i++ {
		it, sess, ok := q.TryPop()
		if !ok || sess != 2 || it < 200 {
			t.Fatalf("survivor pop %d: %v %v %v", i, it, sess, ok)
		}
	}
}

func TestFairQueueBlockingPopAndClose(t *testing.T) {
	q := NewFairQueue[int, int]()
	q.Open(1, 1, 0)
	got := make(chan int, 1)
	go func() {
		v, _, ok := q.Pop()
		if ok {
			got <- v
		}
		close(got)
	}()
	q.Push(1, 1, 0, 42)
	if v := <-got; v != 42 {
		t.Fatalf("blocking pop got %d", v)
	}
	done := make(chan struct{})
	go func() {
		if _, _, ok := q.Pop(); ok {
			t.Error("pop after close on empty queue should report !ok")
		}
		close(done)
	}()
	q.Close()
	<-done
}
