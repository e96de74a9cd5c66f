package devmgr

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dopencl/internal/cl"
	"dopencl/internal/protocol"
)

// heldManager returns a manager whose single placement worker is parked
// until release is called, so a test can fill the grant queue to exactly
// its admission bounds before anything drains.
func heldManager(quota uint32, shed int) (m *Manager, release func()) {
	m = New()
	m.place.workers = 1
	m.place.quota = quota
	m.place.shed = shed
	m.place.hold = make(chan struct{})
	return m, func() { close(m.place.hold) }
}

var oneGPU = []protocol.DeviceRequest{{Count: 1, Type: cl.DeviceTypeGPU}}

// TestTenantQuotaRefusesWithBusy: one tenant flooding placement requests
// past its queued-grant quota is refused with typed cl.Busy; the
// refusals never enter the queue.
func TestTenantQuotaRefusesWithBusy(t *testing.T) {
	const n, quota = 60, 8
	m, release := heldManager(quota, shedLimit)
	defer m.Close()
	inject(m, churnFleet(4, 8)) // 16 GPUs: every admitted request places

	var granted, busy, other atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		m.placeLeaseAsync("flooder", 0, oneGPU, func(ls *leaseView, err error) {
			defer wg.Done()
			switch {
			case err == nil:
				granted.Add(1)
			case cl.CodeOf(err) == cl.Busy:
				busy.Add(1)
			default:
				other.Add(1)
			}
		})
	}
	if got := m.place.q.Len(); got != quota {
		t.Fatalf("%d grants queued with the worker held, want exactly the quota %d", got, quota)
	}
	release()
	wg.Wait()
	if granted.Load() != quota || busy.Load() != n-quota || other.Load() != 0 {
		t.Fatalf("granted=%d busy=%d other=%d, want %d/%d/0", granted.Load(), busy.Load(), other.Load(), quota, n-quota)
	}
}

// TestShedLimitRefusesAllTenants: past the global queue depth even
// distinct tenants are shed with cl.Busy.
func TestShedLimitRefusesAllTenants(t *testing.T) {
	const n, shed = 40, 4
	m, release := heldManager(1000, shed)
	defer m.Close()
	inject(m, churnFleet(2, 4))

	var granted, busy atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		m.placeLeaseAsync(fmt.Sprintf("tenant-%d", i), 0, oneGPU, func(ls *leaseView, err error) {
			defer wg.Done()
			switch {
			case err == nil:
				granted.Add(1)
			case cl.CodeOf(err) == cl.Busy:
				busy.Add(1)
			}
		})
	}
	release()
	wg.Wait()
	if granted.Load() != shed || busy.Load() != n-shed {
		t.Fatalf("granted=%d shed=%d, want %d/%d", granted.Load(), busy.Load(), shed, n-shed)
	}
}

// TestFairDrainInterleavesTenants: with the queue pre-filled by two
// equal-weight tenants (heavy pushed all its jobs first), the weighted
// fair queue drains them strictly alternating — FIFO would run all of
// heavy's jobs before any of light's.
func TestFairDrainInterleavesTenants(t *testing.T) {
	m, release := heldManager(tenantQuota, shedLimit)
	defer m.Close()
	inject(m, churnFleet(4, 8))

	var order []string // appended by the single worker only
	var wg sync.WaitGroup
	record := func(tenant string) func(*leaseView, error) {
		return func(ls *leaseView, err error) {
			order = append(order, tenant)
			wg.Done()
		}
	}
	for _, tenant := range []string{"heavy", "light"} {
		for i := 0; i < 4; i++ {
			wg.Add(1)
			m.placeLeaseAsync(tenant, 0, oneGPU, record(tenant))
		}
	}
	release()
	wg.Wait()

	want := []string{"heavy", "light", "heavy", "light", "heavy", "light", "heavy", "light"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("drain order %v, want %v", order, want)
	}
}

// TestConcurrentPlaceReleaseRace hammers placement, direct assignment
// and release from many goroutines; run under -race this is the lease
// bookkeeping race check, and the end state must balance exactly.
func TestConcurrentPlaceReleaseRace(t *testing.T) {
	m := New()
	defer m.Close()
	inject(m, churnFleet(4, 8)) // 32 devices

	const workers = 16
	const iters = 120
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", w%5)
			for i := 0; i < iters; i++ {
				var ls *leaseView
				var err error
				if w%2 == 0 {
					ls, err = m.PlaceLease(tenant, uint32(w%3), []protocol.DeviceRequest{{Count: 1 + i%2, Type: cl.DeviceTypeAll}})
				} else {
					ls, err = m.Assign([]protocol.DeviceRequest{{Count: 1, Type: cl.DeviceTypeGPU}})
				}
				if err != nil {
					continue
				}
				if i%3 == 0 {
					m.ReleaseLease(ls.AuthID())
				} else {
					// Interleave with other goroutines before releasing.
					m.ReleaseLease(ls.AuthID())
				}
			}
		}(w)
	}
	wg.Wait()

	if got := m.ActiveLeases(); got != 0 {
		t.Fatalf("leases leaked: %d active after all releases", got)
	}
	if got := m.FreeDevices(); got != 32 {
		t.Fatalf("device accounting drifted: %d free, want 32", got)
	}
	// The index must still place deterministically after the churn.
	ls, err := m.Assign([]protocol.DeviceRequest{{Count: 1, Type: cl.DeviceTypeGPU}})
	if err != nil {
		t.Fatal(err)
	}
	if ls.devices[0].server != "srv-00" || ls.devices[0].unitID != 0 {
		t.Fatalf("post-churn pick %s/%d, want srv-00/0", ls.devices[0].server, ls.devices[0].unitID)
	}
}

// TestReleaseDuringGrantChurn races ReleaseLease of freshly granted
// leases against new grants targeting the same narrow fleet: the free
// count must return to capacity and no device may end double-leased.
func TestReleaseDuringGrantChurn(t *testing.T) {
	m := New()
	m.place.workers = 2
	defer m.Close()
	m.AddDevices("only", []protocol.DeviceRecord{
		{UnitID: 0, Info: cl.DeviceInfo{Type: cl.DeviceTypeGPU}},
		{UnitID: 1, Info: cl.DeviceInfo{Type: cl.DeviceTypeGPU}},
	})
	var granted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ls, err := m.PlaceLease(fmt.Sprintf("t%d", w), 0, []protocol.DeviceRequest{{Count: 1, Type: cl.DeviceTypeGPU}})
				if err != nil {
					continue
				}
				granted.Add(1)
				m.ReleaseLease(ls.AuthID())
			}
		}(w)
	}
	wg.Wait()
	if granted.Load() == 0 {
		t.Fatal("no grants succeeded")
	}
	if m.FreeDevices() != 2 || m.ActiveLeases() != 0 {
		t.Fatalf("end state free=%d leases=%d, want 2/0", m.FreeDevices(), m.ActiveLeases())
	}
}
