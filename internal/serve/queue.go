package serve

import (
	"container/heap"
	"sync"

	"dopencl/internal/cl"
)

// FairQueue is a weighted fair queue with per-session admission control
// and constant-ish-time batch harvesting, generic over the batch-group
// key K (the daemon groups serve jobs by compiled kernel and device;
// tests use small scalar groups) and the queued item type T.
//
// Scheduling is finish-time weighted fair queueing: each pushed item is
// tagged with a virtual finish time vf = max(globalVirtual,
// session.lastFinish) + cost/weight, and Pop always returns the smallest
// tag. A session pushing cheap jobs with high weight drains faster than a
// heavy low-weight one, but no session starves: its tags keep advancing
// relative to its own backlog only, so a flood from one tenant cannot
// push another tenant's tags backwards.
//
// Every item lives in two min-heaps over the same (vfinish, seq) order:
// the global heap that Pop serves, and its group's heap that
// HarvestGroup serves. Removal is lazy — taking an item through one heap
// marks it taken, and the other heap discards the stale entry when it
// surfaces — so Pop and HarvestGroup are both O(log n) per item no
// matter how deep the backlog runs. (An eager cross-heap delete or a
// predicate scan per harvest is O(n) per batch, which turns quadratic
// under a sustained flood of small jobs — exactly the serve plane's
// design load.)
//
// Admission control bounds each session's in-flight jobs (pushed and not
// yet Finished): Push refuses the excess with cl.Busy instead of letting
// one tenant buffer unboundedly — backpressure travels to the submitter,
// which is the only place it can shed load.
type FairQueue[K comparable, T any] struct {
	mu       sync.Mutex
	cond     *sync.Cond
	sessions map[uint64]*fqSession
	items    fqHeap[K, T]
	groups   map[K]*fqHeap[K, T]
	live     int // queued and not yet taken
	virt     float64
	seq      uint64
	closed   bool
}

type fqSession struct {
	weight     float64
	maxPending int
	pending    int // pushed and not yet Finished
	queued     int // pushed and not yet popped
	lastFinish float64
}

type fqItem[K comparable, T any] struct {
	vfinish float64
	seq     uint64
	session uint64
	group   K
	taken   bool // removed through the other heap; discard on surfacing
	item    T
}

// NewFairQueue returns an empty queue with no sessions.
func NewFairQueue[K comparable, T any]() *FairQueue[K, T] {
	q := &FairQueue[K, T]{
		sessions: make(map[uint64]*fqSession),
		groups:   make(map[K]*fqHeap[K, T]),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Open registers a session. weight 0 means 1; maxPending 0 means 256.
// Re-opening an existing ID updates its weight and cap in place.
func (q *FairQueue[K, T]) Open(session uint64, weight uint32, maxPending uint32) {
	q.mu.Lock()
	defer q.mu.Unlock()
	w := float64(weight)
	if w <= 0 {
		w = 1
	}
	mp := int(maxPending)
	if mp <= 0 {
		mp = 256
	}
	if s, ok := q.sessions[session]; ok {
		s.weight, s.maxPending = w, mp
		return
	}
	q.sessions[session] = &fqSession{weight: w, maxPending: mp}
}

// CloseSession drops a session and returns its still-queued items (in
// push order) so the caller can fail them. In-flight items already popped
// are the caller's to finish.
func (q *FairQueue[K, T]) CloseSession(session uint64) []T {
	q.mu.Lock()
	defer q.mu.Unlock()
	s, ok := q.sessions[session]
	if !ok {
		return nil
	}
	delete(q.sessions, session)
	if s.queued == 0 {
		return nil
	}
	var orphans []*fqItem[K, T]
	for _, it := range q.items {
		if !it.taken && it.session == session {
			orphans = append(orphans, it)
		}
	}
	// Push order = seq order.
	for i := 1; i < len(orphans); i++ {
		for j := i; j > 0 && orphans[j].seq < orphans[j-1].seq; j-- {
			orphans[j], orphans[j-1] = orphans[j-1], orphans[j]
		}
	}
	out := make([]T, len(orphans))
	var zero T
	for i, it := range orphans {
		out[i] = it.item
		it.taken = true
		it.item = zero
		q.live--
	}
	return out
}

// Push admits one item with the given cost for the session, tagged with
// its batch group. It returns a cl.Busy error when the session's
// in-flight share is full, and cl.InvalidValue for an unknown session.
func (q *FairQueue[K, T]) Push(session uint64, cost float64, group K, item T) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	s, ok := q.sessions[session]
	if !ok {
		return cl.Errf(cl.InvalidValue, "serve: unknown session %d", session)
	}
	if s.pending >= s.maxPending {
		return cl.Errf(cl.Busy, "serve: session %d has %d jobs in flight (share %d)",
			session, s.pending, s.maxPending)
	}
	if cost < 1 {
		cost = 1
	}
	start := q.virt
	if s.lastFinish > start {
		start = s.lastFinish
	}
	vf := start + cost/s.weight
	s.lastFinish = vf
	s.pending++
	s.queued++
	q.seq++
	it := &fqItem[K, T]{vfinish: vf, seq: q.seq, session: session, group: group, item: item}
	heap.Push(&q.items, it)
	g := q.groups[group]
	if g == nil {
		g = &fqHeap[K, T]{}
		q.groups[group] = g
	}
	heap.Push(g, it)
	q.live++
	q.cond.Signal()
	return nil
}

// Pop blocks until an item is available and returns the one with the
// smallest virtual finish time, plus its session. ok is false only after
// Close drains the queue empty.
func (q *FairQueue[K, T]) Pop() (item T, session uint64, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.live == 0 && !q.closed {
		q.cond.Wait()
	}
	return q.popLocked()
}

// TryPop is Pop without blocking.
func (q *FairQueue[K, T]) TryPop() (item T, session uint64, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.popLocked()
}

func (q *FairQueue[K, T]) popLocked() (item T, session uint64, ok bool) {
	it := q.items.popLive()
	if it == nil {
		var zero T
		return zero, 0, false
	}
	item, session = it.item, it.session
	q.takeLocked(it)
	q.scrubGroupLocked(it.group)
	return item, session, true
}

// HarvestGroup removes up to max queued items of one batch group, in
// fair (virtual finish time) order, without blocking. The coalescer
// calls it with the batch leader's group right after Pop hands it the
// leader.
func (q *FairQueue[K, T]) HarvestGroup(group K, max int) []T {
	q.mu.Lock()
	defer q.mu.Unlock()
	g := q.groups[group]
	if g == nil {
		return nil
	}
	var out []T
	for len(out) < max {
		it := g.popLive()
		if it == nil {
			break
		}
		out = append(out, it.item)
		q.takeLocked(it)
	}
	if g.Len() == 0 {
		delete(q.groups, group)
	}
	return out
}

// takeLocked marks an item consumed: it advances the global virtual
// time, releases the payload reference (the stale twin entry may sit in
// the other heap for a while) and drops the session's queued count.
func (q *FairQueue[K, T]) takeLocked(it *fqItem[K, T]) {
	it.taken = true
	var zero T
	it.item = zero
	q.live--
	if it.vfinish > q.virt {
		q.virt = it.vfinish
	}
	if s, ok := q.sessions[it.session]; ok {
		s.queued--
	}
}

// scrubGroupLocked drops stale (taken) entries from a group heap's head
// and deletes the group once empty, so the group map cannot grow
// unboundedly in a long-lived daemon.
func (q *FairQueue[K, T]) scrubGroupLocked(k K) {
	g := q.groups[k]
	if g == nil {
		return
	}
	for g.Len() > 0 && (*g)[0].taken {
		heap.Pop(g)
	}
	if g.Len() == 0 {
		delete(q.groups, k)
	}
}

// Finish releases one in-flight slot of the session (call once per
// popped-and-completed item).
func (q *FairQueue[K, T]) Finish(session uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if s, ok := q.sessions[session]; ok && s.pending > 0 {
		s.pending--
	}
}

// Len returns the number of queued (not yet popped) items.
func (q *FairQueue[K, T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.live
}

// Close wakes every blocked Pop; once the queue drains, Pop returns
// ok=false. Push keeps working (callers decide when to stop admitting).
func (q *FairQueue[K, T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// fqHeap is a min-heap on (vfinish, seq).
type fqHeap[K comparable, T any] []*fqItem[K, T]

func (h fqHeap[K, T]) Len() int { return len(h) }
func (h fqHeap[K, T]) Less(i, j int) bool {
	if h[i].vfinish != h[j].vfinish {
		return h[i].vfinish < h[j].vfinish
	}
	return h[i].seq < h[j].seq
}
func (h fqHeap[K, T]) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *fqHeap[K, T]) Push(x any)   { *h = append(*h, x.(*fqItem[K, T])) }
func (h *fqHeap[K, T]) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// popLive pops until a live entry surfaces, discarding stale entries
// left behind by the other heap's lazy removal.
func (h *fqHeap[K, T]) popLive() *fqItem[K, T] {
	for h.Len() > 0 {
		it := heap.Pop(h).(*fqItem[K, T])
		if !it.taken {
			return it
		}
	}
	return nil
}
