package testbed

import (
	"runtime"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/client"
	"dopencl/internal/device"
	"dopencl/internal/protocol"
)

const clientID = "client"

// start starts a testbed and a platform dialing it, both closed when the
// test ends.
func start(t *testing.T, spec Spec) (*Testbed, *client.Platform) {
	t.Helper()
	tb := StartTest(t, spec)
	p := client.NewPlatform(client.Options{Dialer: tb.Dialer(clientID), ClientName: "testbed"})
	t.Cleanup(p.Close)
	return tb, p
}

func TestClusterConstruction(t *testing.T) {
	tb, plat := start(t, Spec{Nodes: map[string][]device.Config{
		"b": {device.TestGPU("gpu")},
		"a": {device.TestCPU("cpu")},
	}})
	for _, addr := range tb.Addrs() {
		if _, err := plat.ConnectServer(addr); err != nil {
			t.Fatal(err)
		}
	}
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil || len(devs) != 2 || devs[0].Name() != "cpu" {
		t.Fatalf("cluster devices: %v, %v", devs, err)
	}
}

func TestManagedClusterConstruction(t *testing.T) {
	tb, _ := start(t, Spec{
		Nodes:  map[string][]device.Config{"srv": {device.TestGPU("g")}},
		Shards: []string{"devmgr"},
	})
	if err := tb.Ready(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if m := tb.Manager("devmgr"); m == nil || m.FreeDevices() != 1 {
		t.Fatalf("manager state: %+v", m)
	}
}

// connected is a one-node testbed that retains detached sessions, and a
// platform connected to the node.
func connected(t *testing.T) (*Testbed, *client.Server) {
	t.Helper()
	tb, plat := start(t, Spec{Nodes: map[string][]device.Config{"n0": {device.TestCPU("cpu")}}, Retain: time.Minute})
	srv, err := plat.ConnectServer("n0")
	if err != nil {
		t.Fatal(err)
	}
	return tb, srv
}

// TestKillRestartBringsUpEmptyDaemon: a killed node refuses dials until
// its restart, which is a new incarnation with nothing of the old one's.
func TestKillRestartBringsUpEmptyDaemon(t *testing.T) {
	tb, srv := connected(t)
	old := tb.Daemon("n0")
	tb.Kill("n0")
	<-srv.Down()
	if _, err := tb.Dialer(clientID)("n0"); err == nil || tb.Daemon("n0") != nil {
		t.Fatalf("a killed node is up: dial error %v", err)
	}
	if err := tb.Restart("n0"); err != nil {
		t.Fatal(err)
	}
	if err := tb.Restart("n0"); err == nil {
		t.Fatal("restarting a running node succeeded")
	}
	if d := tb.Daemon("n0"); d == nil || d == old || tb.nodes["n0"].incarnation != 2 {
		t.Fatalf("restart brought up %p (incarnation %d), the old daemon was %p", d, tb.nodes["n0"].incarnation, old)
	}
	if retained, err := srv.Reattach(); err != nil || retained {
		t.Fatalf("reattach to the restarted node: retained=%v, %v", retained, err)
	}
}

// TestSeverHealClientLink: a sever drops the client's link and refuses
// its dials while the daemon keeps running; after the heal the client
// re-attaches to the session the daemon retained.
func TestSeverHealClientLink(t *testing.T) {
	tb, srv := connected(t)
	d := tb.Daemon("n0")
	tb.Sever(clientID, "n0")
	<-srv.Down()
	if _, err := tb.Dialer(clientID)("n0"); err == nil || tb.Daemon("n0") != d {
		t.Fatalf("after the sever: dial error %v, daemon %p (was %p)", err, tb.Daemon("n0"), d)
	}
	tb.Heal(clientID, "n0")
	if retained, err := srv.Reattach(); err != nil || !retained {
		t.Fatalf("reattach after the heal: retained=%v, %v", retained, err)
	}
}

// TestReady: every device reaches the managers, whether one unsharded
// manager or three gossiping shards, each device held by its owner.
func TestReady(t *testing.T) {
	for _, shards := range [][]string{{"m0"}, {"m0", "m1", "m2"}} {
		tb, _ := start(t, Spec{
			Nodes: map[string][]device.Config{
				"n0": {device.TestGPU("g0"), device.TestGPU("g1")},
				"n1": {device.TestGPU("g0"), device.TestGPU("g1")},
			},
			Shards: shards,
		})
		if err := tb.Ready(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		held := 0
		for _, s := range shards {
			for _, id := range tb.Manager(s).DeviceIDs() {
				if owner := protocol.Owner(shards, id); len(shards) > 1 && owner != s {
					t.Errorf("shard %s holds %s, owned by %s", s, id, owner)
				}
				held++
			}
		}
		if held != 4 {
			t.Fatalf("%d shards hold %d devices, want 4", len(shards), held)
		}
	}
}

// TestCloseStopsEverything: after a lease on a managed testbed, Close
// leaves no goroutine behind — no placement worker, no manager link, no
// control-plane loop. The only timeout is the failure bound.
func TestCloseStopsEverything(t *testing.T) {
	base := runtime.NumGoroutine()
	tb, err := Start(Spec{
		Nodes:  map[string][]device.Config{"srv": {device.TestGPU("g0"), device.TestGPU("g1")}},
		Shards: []string{"devmgr"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Ready(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	plat := client.NewPlatform(client.Options{Dialer: tb.Dialer(clientID), ClientName: "teardown"})
	lease, err := plat.RequestFromManager(client.ManagerConfig{
		Manager:  "devmgr",
		Requests: []protocol.DeviceRequest{{Count: 1, Type: cl.DeviceTypeGPU}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := lease.Release(); err != nil {
		t.Fatal(err)
	}
	plat.Close()
	tb.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want at most %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
