package serve

import "sync"

// Stamp snapshots one dependency's version at insert time. The client
// cache stamps every session-buffer range a job reads with the range's
// coherence generation (coherence.Dir): Valid reports whether the stamp
// still matches the live generation, so any write that bumps a range's
// generation silently invalidates every cached result derived from it.
// Buffer-free entries (the daemon cache's only kind) carry no stamps and
// are valid forever — their key already covers the full input content.
type Stamp interface {
	Valid() bool
}

// FuncStamp adapts a closure to Stamp.
type FuncStamp func() bool

// Valid implements Stamp.
func (f FuncStamp) Valid() bool { return f() }

// CacheStats are the cache's monotonic counters (snapshot under lock).
type CacheStats struct {
	Hits        int64
	Misses      int64
	Invalidated int64 // entries dropped because a stamp went stale
	Evicted     int64 // entries dropped by LRU pressure
	Entries     int
	Bytes       int64
}

// Cache is a content-addressed result cache with LRU eviction bounded by
// entry count and total payload bytes, plus stamp-based invalidation.
// A hit returns the stored output without any dispatch — on the client a
// warm hit ships zero wire bytes, on the daemon it skips the VM entirely.
//
// Entries live in one slice, linked into the LRU list by index; a
// removed entry's slot goes on a free list and the next Put reuses it, so
// once the cache has filled, a Put allocates nothing.
type Cache struct {
	mu         sync.Mutex
	index      map[Key]int32
	slots      []cacheEntry
	head, tail int32 // most and least recently used; -1 when empty
	free       int32 // first free slot, linked through next; -1 when none
	maxEntries int
	maxBytes   int64
	bytes      int64
	stats      CacheStats
}

type cacheEntry struct {
	key        Key
	output     []byte
	stamps     []Stamp
	prev, next int32
}

// NewCache returns a cache bounded to maxEntries entries and maxBytes
// total output bytes (0 picks defaults: 4096 entries, 64 MiB).
func NewCache(maxEntries int, maxBytes int64) *Cache {
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	return &Cache{
		index:      make(map[Key]int32),
		head:       -1,
		tail:       -1,
		free:       -1,
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
	}
}

// Get returns the cached output for key. A stale entry (any stamp
// invalid) is dropped and reported as a miss — invalidation is lazy, paid
// on the lookup that would have returned the wrong bytes.
func (c *Cache) Get(key Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	e := &c.slots[i]
	for _, s := range e.stamps {
		if !s.Valid() {
			c.removeLocked(i)
			c.stats.Invalidated++
			c.stats.Misses++
			return nil, false
		}
	}
	c.unlinkLocked(i)
	c.pushFrontLocked(i)
	c.stats.Hits++
	return e.output, true
}

// Put stores output under key with its dependency stamps. The caller
// must not mutate output afterwards. Oversized outputs (larger than the
// whole cache) are ignored.
func (c *Cache) Put(key Key, output []byte, stamps []Stamp) {
	if int64(len(output)) > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.index[key]; ok {
		e := &c.slots[i]
		c.bytes += int64(len(output)) - int64(len(e.output))
		e.output, e.stamps = output, stamps
		c.unlinkLocked(i)
		c.pushFrontLocked(i)
	} else {
		i := c.free
		if i >= 0 {
			c.free = c.slots[i].next
		} else {
			i = int32(len(c.slots))
			c.slots = append(c.slots, cacheEntry{})
		}
		c.slots[i] = cacheEntry{key: key, output: output, stamps: stamps}
		c.index[key] = i
		c.pushFrontLocked(i)
		c.bytes += int64(len(output))
	}
	for (len(c.index) > c.maxEntries || c.bytes > c.maxBytes) && len(c.index) > 1 {
		c.removeLocked(c.tail)
		c.stats.Evicted++
	}
}

// Drop removes key if present (explicit invalidation).
func (c *Cache) Drop(key Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.index[key]; ok {
		c.removeLocked(i)
	}
}

// removeLocked unlinks slot i, forgets its key and output, and puts the
// slot on the free list.
func (c *Cache) removeLocked(i int32) {
	c.unlinkLocked(i)
	e := &c.slots[i]
	delete(c.index, e.key)
	c.bytes -= int64(len(e.output))
	*e = cacheEntry{next: c.free}
	c.free = i
}

func (c *Cache) unlinkLocked(i int32) {
	e := &c.slots[i]
	if e.prev >= 0 {
		c.slots[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.slots[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

func (c *Cache) pushFrontLocked(i int32) {
	e := &c.slots[i]
	e.prev, e.next = -1, c.head
	if c.head >= 0 {
		c.slots[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.index)
	s.Bytes = c.bytes
	return s
}
