package kernel

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// cacheSource is the i-th of a family of distinct, compilable programs.
func cacheSource(i int) string {
	return fmt.Sprintf("kernel void k%d(global int* p) { p[get_global_id(0)] = %d; }", i, i)
}

// held checks the cache's books and returns the sources it holds, most
// recently used first.
func (c *programCache) held(t *testing.T) []string {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	sum := 0
	for el := c.lru.Front(); el != nil; el = el.Next() {
		p := el.Value.(*Program)
		if c.entries[p.Source] != el {
			t.Fatalf("the list holds a program the map does not find")
		}
		out = append(out, p.Source)
		sum += p.footprint()
	}
	if len(out) != len(c.entries) || sum != c.bytes {
		t.Fatalf("%d listed, %d mapped; %d bytes listed, %d booked", len(out), len(c.entries), sum, c.bytes)
	}
	if len(out) > c.maxEntries || sum > c.maxBytes {
		t.Fatalf("cache holds %d programs and %d bytes, bounds are %d and %d", len(out), sum, c.maxEntries, c.maxBytes)
	}
	return out
}

// Under 1,000 distinct sources neither bound is ever exceeded, and what
// survives is what was used last — one old program kept alive by being
// asked for among them.
func TestProgramCacheBounds(t *testing.T) {
	one, err := Compile(cacheSource(0))
	if err != nil {
		t.Fatal(err)
	}
	per := one.footprint() + 8 // the family's sources differ by a few digits
	for _, tc := range []struct {
		name                 string
		maxEntries, maxBytes int
		keeps                int
	}{
		{"entries", 32, 1 << 30, 32},
		{"bytes", 1 << 30, 20 * per, 20},
		{"the process's", cacheMaxEntries, cacheMaxBytes, cacheMaxEntries},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newProgramCache(tc.maxEntries, tc.maxBytes)
			hot, err := c.get(cacheSource(0))
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < 1000; i++ {
				if _, err := c.get(cacheSource(i)); err != nil {
					t.Fatal(err)
				}
				if i%8 == 0 {
					if p, _ := c.get(cacheSource(0)); p != hot {
						t.Fatalf("after %d sources the one asked for every 8 was compiled again", i)
					}
				}
				c.held(t)
			}
			got := c.held(t)
			if len(got) < tc.keeps-1 || len(got) > tc.keeps {
				t.Fatalf("%d programs survive, want about %d", len(got), tc.keeps)
			}
			// 999 was used last, 0 right after 992, the rest in order.
			want := []string{cacheSource(999)}
			for i := 998; len(want) < len(got); i-- {
				if i == 992 {
					want = append(want, cacheSource(0))
				}
				want = append(want, cacheSource(i))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("survivor %d is %q, want %q", i, got[i], want[i])
				}
			}
			// One that was pushed out compiles again, and is kept again.
			p1, err := c.get(cacheSource(1))
			if err != nil {
				t.Fatal(err)
			}
			if p2, _ := c.get(cacheSource(1)); p2 != p1 {
				t.Fatal("a program compiled again after eviction was not kept")
			}
			c.held(t)
		})
	}
}

func TestProgramCacheOversizeSourceNotKept(t *testing.T) {
	src := cacheSource(1) + "\n// " + strings.Repeat("x", 4096)
	c := newProgramCache(8, 4096)
	keep, err := c.get(cacheSource(2))
	if err != nil {
		t.Fatal(err)
	}
	p1, err := c.get(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p1.Kernel("k1"); !ok {
		t.Fatal("the oversize source did not compile to its kernel")
	}
	p2, _ := c.get(src)
	if p1 == p2 {
		t.Fatal("a source larger than the cache was kept")
	}
	if got := c.held(t); len(got) != 1 || got[0] != keep.Source {
		t.Fatalf("the oversize source disturbed the cache: it holds %q", got)
	}
}

func TestProgramCacheFailuresNotKept(t *testing.T) {
	c := newProgramCache(8, 1<<20)
	const bad = "kernel void k(global float* o) { o[0] = }"
	_, want := Compile(bad)
	if want == nil {
		t.Fatal("the bad source compiled")
	}
	for i := 0; i < 3; i++ {
		p, err := c.get(bad)
		if p != nil || err == nil || err.Error() != want.Error() {
			t.Fatalf("build %d of the bad source = %v, %v; want the compiler's %q", i, p, err, want)
		}
	}
	if got := c.held(t); len(got) != 0 {
		t.Fatalf("a failed compile occupies the cache: %q", got)
	}
}

// 16 goroutines build 4 sources at once: first builds of one text may
// both compile, and still everybody gets the one program that was kept.
func TestSharedConcurrentBuilds(t *testing.T) {
	const sources, builders = 4, 16
	var got [builders]*Program
	var wg sync.WaitGroup
	for g := 0; g < builders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := Shared(cacheSource(5000 + g%sources))
			if err != nil {
				t.Error(err)
				return
			}
			for _, fn := range p.Funcs {
				p.WorkGroup(fn)
			}
			got[g] = p
		}()
	}
	wg.Wait()
	for g := sources; g < builders; g++ {
		if got[g] == nil || got[g] != got[g%sources] {
			t.Fatalf("builders %d and %d of one source got programs %p and %p", g%sources, g, got[g%sources], got[g])
		}
	}
	for g := 1; g < sources; g++ {
		if got[g] == got[0] {
			t.Fatalf("sources 0 and %d share a program", g)
		}
	}
}
