package devmgr

import (
	"strings"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/client"
	"dopencl/internal/daemon"
	"dopencl/internal/device"
	"dopencl/internal/native"
	"dopencl/internal/protocol"
	"dopencl/internal/simnet"
)

// managedWorld wires a manager, a managed daemon and a client network.
type managedWorld struct {
	nw      *simnet.Network
	manager *Manager
	daemons map[string]*daemon.Daemon
}

func newManagedWorld(t *testing.T, servers map[string][]device.Config) *managedWorld {
	t.Helper()
	w := &managedWorld{
		nw:      simnet.NewNetwork(simnet.Unlimited()),
		manager: New(),
		daemons: map[string]*daemon.Daemon{},
	}
	ml, err := w.nw.Listen("devmgr")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := w.manager.Serve(ml); err != nil {
			_ = err
		}
	}()
	for addr, cfgs := range servers {
		plat := native.NewPlatform("native-"+addr, "test", cfgs)
		d, err := daemon.New(daemon.Config{
			Name: addr, Platform: plat, Managed: true,
			// Announce a peer data-plane address so registration carries
			// it to the manager (asserted by TestRegistrationCarriesPeerAddr).
			PeerAddr: addr + "/peer",
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := w.nw.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			if err := d.Serve(l); err != nil {
				_ = err
			}
		}()
		conn, err := w.nw.Dial("devmgr")
		if err != nil {
			t.Fatal(err)
		}
		if err := d.AttachManager(conn, addr); err != nil {
			t.Fatal(err)
		}
		w.daemons[addr] = d
	}
	return w
}

func (w *managedWorld) client(name string) *client.Platform {
	return client.NewPlatform(client.Options{Dialer: w.nw.Dial, ClientName: name})
}

// inject registers test devices through the indexed registration path
// (AddDevices), the same bookkeeping a daemon registration runs.
func inject(m *Manager, devs []*managedDevice) {
	for _, d := range devs {
		m.AddDevices(d.server, []protocol.DeviceRecord{{UnitID: d.unitID, Info: d.info}})
	}
}

func TestAssignMatchesProperties(t *testing.T) {
	m := New()
	inject(m, []*managedDevice{
		{server: "a", unitID: 0, info: cl.DeviceInfo{Name: "gpu-big", Vendor: "NVIDIA", Type: cl.DeviceTypeGPU, ComputeUnits: 30, GlobalMemSize: 4 << 30}},
		{server: "a", unitID: 1, info: cl.DeviceInfo{Name: "cpu", Vendor: "Intel", Type: cl.DeviceTypeCPU, ComputeUnits: 12, GlobalMemSize: 24 << 30}},
		{server: "b", unitID: 0, info: cl.DeviceInfo{Name: "gpu-small", Vendor: "NVIDIA", Type: cl.DeviceTypeGPU, ComputeUnits: 2, GlobalMemSize: 512 << 20}},
	})

	// Type + min compute units narrows to the big GPU.
	ls, err := m.Assign([]protocol.DeviceRequest{{Count: 1, Type: cl.DeviceTypeGPU, MinComputeUnits: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if ls.DeviceCount() != 1 || ls.devices[0].info.Name != "gpu-big" {
		t.Fatalf("assigned %+v", ls.devices)
	}
	// The assigned device is no longer free.
	if _, err := m.Assign([]protocol.DeviceRequest{{Count: 1, Type: cl.DeviceTypeGPU, MinComputeUnits: 10}}); err == nil {
		t.Fatal("double assignment of an exclusive device")
	}
	// Vendor matching is case-insensitive substring.
	ls2, err := m.Assign([]protocol.DeviceRequest{{Count: 1, Type: cl.DeviceTypeAll, Vendor: "intel"}})
	if err != nil {
		t.Fatal(err)
	}
	if ls2.devices[0].info.Name != "cpu" {
		t.Fatalf("vendor match picked %q", ls2.devices[0].info.Name)
	}
	// Releasing returns devices to the pool.
	m.ReleaseLease(ls.AuthID())
	if m.FreeDevices() != 2 {
		t.Fatalf("free = %d, want 2", m.FreeDevices())
	}
	// Unsatisfiable memory constraint.
	if _, err := m.Assign([]protocol.DeviceRequest{{Count: 1, MinGlobalMem: 1 << 40, Type: cl.DeviceTypeAll}}); err == nil {
		t.Fatal("impossible request satisfied")
	}
}

// TestPlacementSpreadsLoad: consecutive leases land on distinct servers
// while a less-loaded one has a free device, which keeps concurrent
// applications on distinct devices (the behaviour evaluated in Fig. 6).
func TestPlacementSpreadsLoad(t *testing.T) {
	m := New()
	inject(m, []*managedDevice{
		{server: "a", unitID: 0, info: cl.DeviceInfo{Type: cl.DeviceTypeGPU}},
		{server: "a", unitID: 1, info: cl.DeviceInfo{Type: cl.DeviceTypeGPU}},
		{server: "b", unitID: 0, info: cl.DeviceInfo{Type: cl.DeviceTypeGPU}},
		{server: "b", unitID: 1, info: cl.DeviceInfo{Type: cl.DeviceTypeGPU}},
	})
	req := []protocol.DeviceRequest{{Count: 1, Type: cl.DeviceTypeGPU}}
	ls1, err := m.Assign(req)
	if err != nil {
		t.Fatal(err)
	}
	ls2, err := m.Assign(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := []string{ls1.devices[0].server, ls2.devices[0].server}; got[0] != "a" || got[1] != "b" {
		t.Fatalf("assigned %v, want [a b] (least-loaded with deterministic ties)", got)
	}
}

// TestLeastLoadedTieBreakDeterministic pins the tie rule: with equal
// load, placement picks the lexicographically smallest server address
// regardless of registration order, so assignments are reproducible.
func TestLeastLoadedTieBreakDeterministic(t *testing.T) {
	gpu := func(server string, unit uint32) *managedDevice {
		return &managedDevice{server: server, unitID: unit, info: cl.DeviceInfo{Type: cl.DeviceTypeGPU}}
	}
	req := []protocol.DeviceRequest{{Count: 1, Type: cl.DeviceTypeGPU}}
	pick := func(m *Manager) string {
		t.Helper()
		ls, err := m.Assign(req)
		if err != nil {
			t.Fatal(err)
		}
		return ls.devices[0].server
	}
	for _, order := range [][]string{
		{"srv-b", "srv-a", "srv-c"},
		{"srv-c", "srv-b", "srv-a"},
		{"srv-a", "srv-c", "srv-b"},
	} {
		m := New()
		for _, srv := range order {
			inject(m, []*managedDevice{gpu(srv, 0), gpu(srv, 1), gpu(srv, 2)})
		}
		if got := pick(m); got != "srv-a" {
			t.Fatalf("registration order %v: tie at zero load picked %s, want srv-a", order, got)
		}
		// Load dominates the tie rule: srv-a is loaded now, so the
		// smallest address among the least-loaded remainder wins.
		if got := pick(m); got != "srv-b" {
			t.Fatalf("registration order %v: loaded srv-a: picked %s, want srv-b", order, got)
		}
		if got := pick(m); got != "srv-c" {
			t.Fatalf("registration order %v: picked %s, want srv-c", order, got)
		}
		// Equal nonzero load: still lexicographic.
		if got := pick(m); got != "srv-a" {
			t.Fatalf("registration order %v: equal load 1 picked %s, want srv-a", order, got)
		}
	}
}

func TestEndToEndManagedAssignment(t *testing.T) {
	w := newManagedWorld(t, map[string][]device.Config{
		"gpuserver": {
			device.TestGPU("tesla0"), device.TestGPU("tesla1"),
			device.TestGPU("tesla2"), device.TestGPU("tesla3"),
		},
	})
	if w.manager.FreeDevices() != 4 {
		t.Fatalf("registered %d devices", w.manager.FreeDevices())
	}

	// Direct connection without a lease is rejected in managed mode.
	direct := w.client("direct")
	if _, err := direct.ConnectServer("gpuserver"); err == nil {
		t.Fatal("managed daemon accepted unauthenticated client")
	}

	// Two clients get distinct devices via the manager.
	seen := map[string]bool{}
	var leases []*client.Lease
	for i := 0; i < 2; i++ {
		app := w.client("tenant")
		lease, err := app.RequestFromManager(client.ManagerConfig{
			Manager:  "devmgr",
			Requests: []protocol.DeviceRequest{{Count: 1, Type: cl.DeviceTypeGPU}},
		})
		if err != nil {
			t.Fatalf("lease %d: %v", i, err)
		}
		devs, err := app.Devices(cl.DeviceTypeGPU)
		if err != nil || len(devs) != 1 {
			t.Fatalf("client %d sees %d devices (%v)", i, len(devs), err)
		}
		if seen[devs[0].Name()] {
			t.Fatalf("device %s assigned twice", devs[0].Name())
		}
		seen[devs[0].Name()] = true
		leases = append(leases, lease)
	}
	if w.manager.FreeDevices() != 2 || w.manager.ActiveLeases() != 2 {
		t.Fatalf("free=%d leases=%d", w.manager.FreeDevices(), w.manager.ActiveLeases())
	}

	// Releasing a lease returns its devices.
	if err := leases[0].Release(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return w.manager.FreeDevices() == 3 }, "lease release")

	// Abnormal client termination: disconnect without release — the
	// daemon reports the invalidated auth ID (Section IV-C).
	app2 := w.client("crasher")
	_, err := app2.RequestFromManager(client.ManagerConfig{
		Manager:  "devmgr",
		Requests: []protocol.DeviceRequest{{Count: 1, Type: cl.DeviceTypeGPU}},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return w.manager.FreeDevices() == 2 }, "crasher assignment")
	for _, s := range app2.Servers() {
		if derr := app2.DisconnectServer(s); derr != nil {
			t.Fatal(derr)
		}
	}
	waitFor(t, func() bool { return w.manager.FreeDevices() == 3 }, "disconnect-triggered release")
}

// TestRegistrationCarriesPeerAddr: daemons announce their peer
// data-plane address when registering, and the manager records it per
// server, so lease-holding clients can be routed across the bulk plane.
func TestRegistrationCarriesPeerAddr(t *testing.T) {
	w := newManagedWorld(t, map[string][]device.Config{
		"srvA": {device.TestGPU("g0")},
		"srvB": {device.TestCPU("c0")},
	})
	for _, addr := range []string{"srvA", "srvB"} {
		if got := w.manager.ServerPeerAddr(addr); got != addr+"/peer" {
			t.Fatalf("ServerPeerAddr(%s) = %q, want %q", addr, got, addr+"/peer")
		}
	}
	if got := w.manager.ServerPeerAddr("unknown"); got != "" {
		t.Fatalf("ServerPeerAddr(unknown) = %q, want empty", got)
	}
}

func TestManagedRequestExceedingCapacity(t *testing.T) {
	w := newManagedWorld(t, map[string][]device.Config{
		"s": {device.TestGPU("g0")},
	})
	app := w.client("greedy")
	_, err := app.RequestFromManager(client.ManagerConfig{
		Manager:  "devmgr",
		Requests: []protocol.DeviceRequest{{Count: 2, Type: cl.DeviceTypeGPU}},
	})
	if err == nil || !strings.Contains(err.Error(), "no free device") {
		t.Fatalf("expected capacity rejection, got %v", err)
	}
	// The failed partial assignment must not leak devices.
	if w.manager.FreeDevices() != 1 {
		t.Fatalf("free = %d after failed request", w.manager.FreeDevices())
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestAuthIDUniqueness(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := newAuthID()
		if len(id) != 32 {
			t.Fatalf("auth ID %q has wrong length", id)
		}
		if seen[id] {
			t.Fatal("duplicate auth ID")
		}
		seen[id] = true
	}
}
