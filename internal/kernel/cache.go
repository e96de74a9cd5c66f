package kernel

import (
	"container/list"
	"sync"
	"unsafe"
)

// Bounds of the process's program cache: how many programs it keeps, and
// how many bytes of source text and lowered IR they may add up to. A
// tenant can push other tenants' programs out of it — they compile again,
// the cost every build paid before there was a cache — and never grow it
// past these.
const (
	cacheMaxEntries = 256
	cacheMaxBytes   = 8 << 20
)

// programCache keeps compiled programs by the source text they were
// compiled from, least recently used out first.
//
// The key is the text itself, compared byte for byte by the map — never a
// digest of it: two texts that collided would run one tenant's kernel for
// another. Build options are not part of the key because nothing that
// builds (native.Program.Build) looks at them; the day an option changes
// what Compile produces it joins the key.
type programCache struct {
	maxEntries, maxBytes int

	mu           sync.Mutex
	entries      map[string]*list.Element // of lru
	lru          *list.List               // of *Program, most recently used first
	bytes        int
	hits, misses uint64
}

func newProgramCache(maxEntries, maxBytes int) *programCache {
	return &programCache{maxEntries: maxEntries, maxBytes: maxBytes,
		entries: map[string]*list.Element{}, lru: list.New()}
}

var shared = newProgramCache(cacheMaxEntries, cacheMaxBytes)

// Shared returns the process's one compiled program for src, compiling it
// the first time the text is seen: every session of a daemon and every
// program object of a client that builds the same text gets the same
// *Program, and with it the optimized plans (WorkGroup) and the plans'
// runner free lists. A *Program is immutable once compiled, so sharing it
// needs no further care; a runner keeps nothing of a launch it ran.
//
// A source that does not compile is compiled again, and refused with the
// same text, every time it is built; one too large for the cache is
// compiled and returned but not kept. Compile itself stays the pure
// compiler: the cold path, for whoever measures or tests it.
func Shared(src string) (*Program, error) { return shared.get(src) }

// SharedCounts reports how many Shared calls found their program compiled
// and how many compiled it.
func SharedCounts() (hits, misses uint64) {
	shared.mu.Lock()
	defer shared.mu.Unlock()
	return shared.hits, shared.misses
}

func (c *programCache) lookup(src string) *Program {
	el, ok := c.entries[src]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*Program)
}

func (c *programCache) get(src string) (*Program, error) {
	c.mu.Lock()
	prog := c.lookup(src)
	if prog != nil {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	if prog != nil {
		return prog, nil
	}
	// No lock is held across a compile: builds of other texts go on, and
	// two first builds of one text both compile.
	prog, err := Compile(src)
	if err != nil {
		return nil, err
	}
	size := prog.footprint()
	if size > c.maxBytes {
		return prog, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if first := c.lookup(src); first != nil {
		return first, nil // the other first build won: its program is the shared one
	}
	c.entries[src] = c.lru.PushFront(prog)
	c.bytes += size
	for c.lru.Len() > c.maxEntries || c.bytes > c.maxBytes {
		old := c.lru.Remove(c.lru.Back()).(*Program)
		delete(c.entries, old.Source)
		c.bytes -= old.footprint()
	}
	return prog, nil
}

// footprint is what a program is charged against cacheMaxBytes: its text,
// and the IR of its kernels twice over (as lowered and as optimized) —
// helpers inline, so a short text can lower to a long program.
func (p *Program) footprint() int {
	instrs := 0
	for _, f := range p.Funcs {
		instrs += len(f.raw.Prologue) + len(f.raw.Code)
	}
	return len(p.Source) + 2*instrs*int(unsafe.Sizeof(RInstr{}))
}
