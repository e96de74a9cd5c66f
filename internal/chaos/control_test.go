package chaos

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/client"
	"dopencl/internal/device"
	"dopencl/internal/protocol"
	"dopencl/internal/testbed"
)

// controlShards are the standard control-plane topology's shards.
var controlShards = []string{"shard-a", "shard-b", "shard-c"}

// newControlWorld is the standard control-plane chaos topology: three
// shards, three daemons, four GPUs each.
func newControlWorld(t *testing.T) *testbed.Testbed {
	t.Helper()
	return startTestbed(t, testbed.Spec{
		Shards: controlShards,
		Nodes: map[string][]device.Config{
			"node1": {device.TestGPU("g0"), device.TestGPU("g1"), device.TestGPU("g2"), device.TestGPU("g3")},
			"node2": {device.TestGPU("g0"), device.TestGPU("g1"), device.TestGPU("g2"), device.TestGPU("g3")},
			"node3": {device.TestGPU("g0"), device.TestGPU("g1"), device.TestGPU("g2"), device.TestGPU("g3")},
		},
	})
}

// aliveShards returns the running shards of the standard topology.
func aliveShards(tb *testbed.Testbed) []string {
	var out []string
	for _, a := range controlShards {
		if tb.Manager(a) != nil {
			out = append(out, a)
		}
	}
	return out
}

// controlPlatform builds a client platform whose manager config spans the
// standard topology's shards.
func controlPlatform(tb *testbed.Testbed, name string) (*client.Platform, client.ManagerConfig) {
	p := client.NewPlatform(client.Options{Dialer: tb.Dialer(ClientID), ClientName: name})
	return p, client.ManagerConfig{Managers: append([]string(nil), controlShards...), Tenant: name}
}

// dumpPartition prints both sides of the registration state: the devices
// each live shard holds, and for each daemon the membership view it
// partitions by and the units it believes each shard has of it. Where the
// two disagree is where a partition that does not converge is stuck.
func dumpPartition(cc *testbed.Testbed) string {
	var b strings.Builder
	for _, addr := range controlShards {
		if m := cc.Manager(addr); m != nil {
			fmt.Fprintf(&b, "shard %s holds %v\n", addr, m.DeviceIDs())
		}
	}
	for _, addr := range cc.Addrs() {
		if d := cc.Daemon(addr); d != nil {
			fmt.Fprintf(&b, "daemon %s: %s\n", addr, d.ControlPlaneView())
		}
	}
	return b.String()
}

// totalFree sums FreeDevices across the given shards.
func totalFree(cc *testbed.Testbed, shards []string) int {
	n := 0
	for _, a := range shards {
		if m := cc.Manager(a); m != nil {
			n += m.FreeDevices()
		}
	}
	return n
}

func waitCond(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestShardKillRehomesDevicesExactly is the control-plane resilience
// guarantee: kill one of three devmgr shards and every device it owned
// re-homes to exactly the shard the rendezvous hash names — no devices
// lost, none duplicated, leases carried — and a restarted shard is
// resurrected into the view with the partition converging back.
func TestShardKillRehomesDevicesExactly(t *testing.T) {
	cc := newControlWorld(t)
	all := controlShards

	// Initial convergence: all 12 devices exactly partitioned by owner.
	if !WaitPartition(cc, all, 10*time.Second) {
		t.Fatalf("initial partition did not converge: want %v", ExpectedPartition(cc, all))
	}

	// Grant two leases through the client path.
	p1, mc1 := controlPlatform(cc, "tenant-one")
	lease1, err := p1.RequestFromManager(withRequests(mc1, 2))
	if err != nil {
		t.Fatal(err)
	}
	p2, mc2 := controlPlatform(cc, "tenant-two")
	lease2, err := p2.RequestFromManager(withRequests(mc2, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "3 devices leased", 5*time.Second, func() bool {
		return totalFree(cc, all) == 12-3
	})

	// Kill the shard holding lease1's record (the interesting case: its
	// lease state dies with it and must be reconstructed from the
	// daemons' carry-over), or shard-a if no shard holds it.
	victim := all[0]
	for _, a := range all {
		if m := cc.Manager(a); m != nil && m.ActiveLeases() > 0 {
			victim = a
			break
		}
	}
	cc.Kill(victim)

	survivors := aliveShards(cc)
	if len(survivors) != 2 {
		t.Fatalf("survivors = %v", survivors)
	}

	// Exact re-homing: every device the victim owned moves to precisely
	// the shard the rendezvous hash names over the survivor set, and the
	// survivors' combined holdings are the full fleet.
	if !WaitPartition(cc, survivors, 15*time.Second) {
		t.Fatalf("post-kill partition did not converge: want %v\n%s", ExpectedPartition(cc, survivors), dumpPartition(cc))
	}
	totalDevs := 0
	for _, a := range survivors {
		totalDevs += len(cc.Manager(a).DeviceIDs())
	}
	if totalDevs != 12 {
		t.Fatalf("survivors hold %d devices, want 12", totalDevs)
	}

	// Leases survived the re-homing: still 3 devices accounted leased.
	waitCond(t, "leases carried over", 10*time.Second, func() bool {
		return totalFree(cc, survivors) == 12-3
	})

	// Releasing lease1 — whose granting shard may be dead — frees its
	// devices via the broadcast fallback and the carried lease records.
	if err := lease1.Release(); err != nil {
		t.Logf("release after shard kill: %v (devices must still free)", err)
	}
	waitCond(t, "lease1 released", 10*time.Second, func() bool {
		return totalFree(cc, survivors) == 12-1
	})

	// Placement still works on the surviving control plane.
	p3, mc3 := controlPlatform(cc, "tenant-three")
	lease3, err := p3.RequestFromManager(withRequests(mc3, 1))
	if err != nil {
		t.Fatalf("placement after shard kill: %v", err)
	}
	waitCond(t, "post-kill lease placed", 5*time.Second, func() bool {
		return totalFree(cc, survivors) == 12-2
	})

	// Resurrection: restart the victim; gossip readmits it (epoch bump)
	// and the daemons re-partition onto all three shards again.
	if err := cc.Restart(victim); err != nil {
		t.Fatal(err)
	}
	if !WaitPartition(cc, all, 15*time.Second) {
		t.Fatalf("post-restart partition did not converge: want %v", ExpectedPartition(cc, all))
	}
	waitCond(t, "leases intact after restart", 10*time.Second, func() bool {
		return totalFree(cc, all) == 12-2
	})

	if err := lease2.Release(); err != nil {
		t.Logf("release lease2: %v", err)
	}
	if err := lease3.Release(); err != nil {
		t.Logf("release lease3: %v", err)
	}
	waitCond(t, "all leases released", 10*time.Second, func() bool {
		return totalFree(cc, all) == 12
	})
}

// withRequests sets a GPU device request of the given count on the
// manager config.
func withRequests(mc client.ManagerConfig, n int) client.ManagerConfig {
	mc.Requests = []protocol.DeviceRequest{{Count: n, Type: cl.DeviceTypeGPU}}
	return mc
}
