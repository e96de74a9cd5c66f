package devmgr

import (
	"fmt"
	"math/rand"
	"testing"

	"dopencl/internal/cl"
	"dopencl/internal/protocol"
)

// churnFleet builds a deterministic mixed fleet: nServers servers,
// devsPer devices each, alternating GPU/CPU.
func churnFleet(nServers, devsPer int) []*managedDevice {
	var devs []*managedDevice
	for s := 0; s < nServers; s++ {
		addr := fmt.Sprintf("srv-%02d", s)
		for u := 0; u < devsPer; u++ {
			typ := cl.DeviceTypeGPU
			if u%2 == 1 {
				typ = cl.DeviceTypeCPU
			}
			devs = append(devs, &managedDevice{
				server: addr, unitID: uint32(u),
				info: cl.DeviceInfo{Name: fmt.Sprintf("d%d", u), Vendor: "acme", Type: typ, ComputeUnits: 4 + u, GlobalMemSize: 1 << 30},
			})
		}
	}
	return devs
}

// linearModel is the reference for the index's placement contract: a
// linear scan over every device picking the least-loaded server,
// lexicographically smallest address on ties, smallest unit ID on that
// server.
type linearModel struct {
	devices []*managedDevice
	leases  map[string][]*managedDevice
	next    int
}

func (l *linearModel) pick(req protocol.DeviceRequest) *managedDevice {
	load := map[string]int{}
	for _, d := range l.devices {
		if d.leased != "" {
			load[d.server]++
		}
	}
	var best *managedDevice
	for _, d := range l.devices {
		if d.leased != "" || !matches(d, req) {
			continue
		}
		switch {
		case best == nil || load[d.server] < load[best.server]:
			best = d
		case load[d.server] > load[best.server]:
		case d.server < best.server || (d.server == best.server && d.unitID < best.unitID):
			best = d
		}
	}
	return best
}

// assign places every requested device or none, like Manager.assign.
func (l *linearModel) assign(req protocol.DeviceRequest) (string, []*managedDevice) {
	l.next++
	id := fmt.Sprintf("lease-%d", l.next)
	var chosen []*managedDevice
	for i := 0; i < req.Count; i++ {
		d := l.pick(req)
		if d == nil {
			for _, c := range chosen {
				c.leased = ""
			}
			return "", nil
		}
		d.leased = id
		chosen = append(chosen, d)
	}
	l.leases[id] = chosen
	return id, chosen
}

func (l *linearModel) release(id string) {
	for _, d := range l.leases[id] {
		d.leased = ""
	}
	delete(l.leases, id)
}

func (l *linearModel) free() int {
	n := 0
	for _, d := range l.devices {
		if d.leased == "" {
			n++
		}
	}
	return n
}

// TestIndexMatchesLinearUnderChurn drives the index and the linear
// reference model through an identical deterministic lease/release churn
// and requires identical placement decisions, so tie-breaks stay stable
// under churn.
func TestIndexMatchesLinearUnderChurn(t *testing.T) {
	indexed := New()
	inject(indexed, churnFleet(8, 6))
	linear := &linearModel{devices: churnFleet(8, 6), leases: map[string][]*managedDevice{}}

	type placed struct {
		a *leaseView
		b string
	}
	rng := rand.New(rand.NewSource(7))
	var live []placed
	reqKinds := []protocol.DeviceRequest{
		{Count: 1, Type: cl.DeviceTypeGPU},
		{Count: 1, Type: cl.DeviceTypeCPU},
		{Count: 2, Type: cl.DeviceTypeAll},
		{Count: 1, Type: cl.DeviceTypeGPU, MinComputeUnits: 6},
	}
	for op := 0; op < 2000; op++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(live))
			indexed.ReleaseLease(live[i].a.AuthID())
			linear.release(live[i].b)
			live = append(live[:i], live[i+1:]...)
			continue
		}
		req := reqKinds[rng.Intn(len(reqKinds))]
		la, errA := indexed.Assign([]protocol.DeviceRequest{req})
		idB, devsB := linear.assign(req)
		if (errA == nil) != (devsB != nil) {
			t.Fatalf("op %d: indexed err=%v, linear placed %d devices", op, errA, len(devsB))
		}
		if errA != nil {
			continue
		}
		ka, kb := placeKey(la.devices), placeKey(devsB)
		if ka != kb {
			t.Fatalf("op %d (%+v): indexed placed %s, linear placed %s", op, req, ka, kb)
		}
		live = append(live, placed{la, idB})
	}
	if indexed.FreeDevices() != linear.free() {
		t.Fatalf("free counts diverged: indexed %d, linear %d", indexed.FreeDevices(), linear.free())
	}
}

// placeKey canonicalizes placed devices as "server/unit,server/unit".
func placeKey(devs []*managedDevice) string {
	out := ""
	for _, d := range devs {
		out += fmt.Sprintf("%s/%d,", d.server, d.unitID)
	}
	return out
}

// TestIndexConstrainedFallthrough: a property-constrained request walks
// past least-loaded servers that can't satisfy it without hiding them
// from later unconstrained requests.
func TestIndexConstrainedFallthrough(t *testing.T) {
	m := New()
	m.AddDevices("a", []protocol.DeviceRecord{
		{UnitID: 0, Info: cl.DeviceInfo{Name: "small", Vendor: "acme", Type: cl.DeviceTypeGPU, ComputeUnits: 2}},
	})
	m.AddDevices("b", []protocol.DeviceRecord{
		{UnitID: 0, Info: cl.DeviceInfo{Name: "big", Vendor: "acme", Type: cl.DeviceTypeGPU, ComputeUnits: 32}},
	})

	// Constrained request skips server a (least loaded, lexicographically
	// first, but too small) and lands on b.
	ls, err := m.Assign([]protocol.DeviceRequest{{Count: 1, Type: cl.DeviceTypeGPU, MinComputeUnits: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if ls.devices[0].server != "b" {
		t.Fatalf("constrained pick landed on %s, want b", ls.devices[0].server)
	}
	// Server a must still be visible to an unconstrained request.
	ls2, err := m.Assign([]protocol.DeviceRequest{{Count: 1, Type: cl.DeviceTypeGPU}})
	if err != nil {
		t.Fatal(err)
	}
	if ls2.devices[0].server != "a" {
		t.Fatalf("unconstrained pick landed on %s, want a", ls2.devices[0].server)
	}
}

// TestIndexServerRemoval: dropping a server removes its devices from
// placement; stale heap entries must not resurface.
func TestIndexServerRemoval(t *testing.T) {
	m := New()
	m.AddDevices("a", []protocol.DeviceRecord{{UnitID: 0, Info: cl.DeviceInfo{Type: cl.DeviceTypeGPU}}})
	m.AddDevices("b", []protocol.DeviceRecord{{UnitID: 0, Info: cl.DeviceInfo{Type: cl.DeviceTypeGPU}}})
	m.mu.Lock()
	kept := m.devices[:0]
	for _, d := range m.devices {
		if d.server != "a" {
			kept = append(kept, d)
		} else {
			m.freeCount--
			d.gone = true
		}
	}
	m.devices = kept
	m.idx.removeServer("a")
	m.mu.Unlock()

	for i := 0; i < 2; i++ {
		ls, err := m.Assign([]protocol.DeviceRequest{{Count: 1, Type: cl.DeviceTypeGPU}})
		if i == 0 {
			if err != nil {
				t.Fatal(err)
			}
			if ls.devices[0].server != "b" {
				t.Fatalf("placed on removed server %s", ls.devices[0].server)
			}
			continue
		}
		if err == nil {
			t.Fatal("placement succeeded beyond remaining capacity")
		}
	}
}
