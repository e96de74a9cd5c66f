package devmgr

import (
	"container/heap"
	"sort"

	"dopencl/internal/cl"
	"dopencl/internal/protocol"
)

// devIndex is the free-device index: per-(device class, server) free
// lists behind per-class min-heaps over server load.
//
// A device's class is its exact cl.DeviceType value (a request's type
// mask matches a class when the bit sets intersect — there are only a
// handful of distinct class values in any real fleet). For each class
// the index keeps a lazy min-heap of (load, server) entries; a fresh
// entry is pushed whenever a server's load or free list changes, and
// stale entries are discarded when they surface, the same lazy-removal
// discipline as the serve plane's dual-heap fair queue. An unconstrained
// pick is therefore O(log n): peek the least-loaded server with a free
// device of the class and take its smallest-unit device.
//
// Property-constrained requests (vendor, name, min compute units, min
// memory) still walk the chosen server's free list — and fall through to
// the next-least-loaded server when nothing on it matches — so they
// degrade toward the linear scan only in proportion to how selective the
// constraint is, never paying it on the common path.
//
// Pick order is deterministic: least-loaded server first, ties broken on
// the lexicographically smallest server address, then the smallest unit
// ID on that server — so an assignment is a pure function of the
// registered fleet and the load, not of registration order or map
// iteration. index_test.go holds the linear reference model of this
// contract.
type devIndex struct {
	servers map[string]*idxServer
	classes map[cl.DeviceType]*classHeap
}

// idxServer is one registered daemon's slice of the index.
type idxServer struct {
	addr string
	load int // leased devices on this server (including tentative picks)
	// free holds the unleased devices per class, sorted by unit ID so the
	// deterministic smallest-unit pick is a head read.
	free map[cl.DeviceType][]*managedDevice
}

// classEntry is one lazy heap entry: valid only while the server's load
// still equals the recorded load and the class free list is non-empty.
type classEntry struct {
	load int
	srv  *idxServer
}

type classHeap []classEntry

func (h classHeap) Len() int { return len(h) }
func (h classHeap) Less(i, j int) bool {
	if h[i].load != h[j].load {
		return h[i].load < h[j].load
	}
	return h[i].srv.addr < h[j].srv.addr
}
func (h classHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *classHeap) Push(x any)   { *h = append(*h, x.(classEntry)) }
func (h *classHeap) Pop() (x any) {
	old := *h
	n := len(old)
	x = old[n-1]
	*h = old[:n-1]
	return x
}

func newDevIndex() *devIndex {
	return &devIndex{
		servers: map[string]*idxServer{},
		classes: map[cl.DeviceType]*classHeap{},
	}
}

func (x *devIndex) server(addr string) *idxServer {
	s := x.servers[addr]
	if s == nil {
		s = &idxServer{addr: addr, free: map[cl.DeviceType][]*managedDevice{}}
		x.servers[addr] = s
	}
	return s
}

// refresh pushes a fresh heap entry for every class the server still has
// free devices in. Called after any load or free-list change; older
// entries for the server go stale and are skipped when they surface.
func (x *devIndex) refresh(s *idxServer) {
	for class, devs := range s.free {
		if len(devs) == 0 {
			continue
		}
		h := x.classes[class]
		if h == nil {
			h = &classHeap{}
			x.classes[class] = h
		}
		heap.Push(h, classEntry{load: s.load, srv: s})
	}
}

// addFree inserts a newly registered (or released) device into its
// server's class free list, keeping unit-ID order.
func (x *devIndex) addFree(d *managedDevice) {
	s := x.server(d.server)
	devs := s.free[d.info.Type]
	i := sort.Search(len(devs), func(i int) bool { return devs[i].unitID >= d.unitID })
	devs = append(devs, nil)
	copy(devs[i+1:], devs[i:])
	devs[i] = d
	s.free[d.info.Type] = devs
	x.refresh(s)
}

// lease removes a device from the free lists and counts it against its
// server's load.
func (x *devIndex) lease(d *managedDevice) {
	s := x.servers[d.server]
	if s == nil {
		return
	}
	devs := s.free[d.info.Type]
	for i, fd := range devs {
		if fd == d {
			s.free[d.info.Type] = append(devs[:i], devs[i+1:]...)
			break
		}
	}
	s.load++
	x.refresh(s)
}

// release returns a leased device to the free lists.
func (x *devIndex) release(d *managedDevice) {
	s := x.servers[d.server]
	if s == nil {
		return
	}
	s.load--
	x.addFree(d) // refreshes
}

// removeServer drops a server and all its devices; its stale heap
// entries are discarded lazily as they surface.
func (x *devIndex) removeServer(addr string) {
	delete(x.servers, addr)
}

// pick returns the free device the least-loaded contract chooses for
// the request, or nil when no free device matches. The caller leases or
// skips it; pick itself does not mutate free lists.
func (x *devIndex) pick(req protocol.DeviceRequest) *managedDevice {
	var best *managedDevice
	var bestLoad int
	for class, h := range x.classes {
		if class&req.Type == 0 {
			continue
		}
		// Pop entries until a live one with a matching device surfaces.
		// Entries that are live but whose server has no *matching* device
		// (constrained request) are stashed and re-pushed — they must stay
		// visible to later, less picky requests.
		var stash []classEntry
		for h.Len() > 0 {
			e := (*h)[0]
			if x.servers[e.srv.addr] != e.srv || e.load != e.srv.load || len(e.srv.free[class]) == 0 {
				heap.Pop(h) // stale: dropped for good, a fresher entry exists if needed
				continue
			}
			d := firstMatch(e.srv.free[class], req)
			if d == nil {
				stash = append(stash, heap.Pop(h).(classEntry))
				continue
			}
			if best == nil || e.load < bestLoad || (e.load == bestLoad && better(d, best)) {
				best, bestLoad = d, e.load
			}
			break
		}
		for _, e := range stash {
			heap.Push(h, e)
		}
	}
	return best
}

// better breaks the cross-class tie at equal load: smaller server
// address, then smaller unit ID, mirroring the within-class order.
func better(a, b *managedDevice) bool {
	if a.server != b.server {
		return a.server < b.server
	}
	return a.unitID < b.unitID
}

// firstMatch returns the smallest-unit free device satisfying the
// request's property constraints, or nil.
func firstMatch(devs []*managedDevice, req protocol.DeviceRequest) *managedDevice {
	for _, d := range devs {
		if matches(d, req) {
			return d
		}
	}
	return nil
}
