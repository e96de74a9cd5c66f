package chaos

import (
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/device"
	"dopencl/internal/gcf"
	"dopencl/internal/protocol"
	"dopencl/internal/rpc"
	"dopencl/internal/testbed"
)

// bindWindow is how long the grant tests' daemons wait for a session to
// bind a lease: their session retention.
const bindWindow = 200 * time.Millisecond

// TestUnboundGrantIsGivenBack: a client that dies between its grant and
// its first Hello holds nothing. The lease covers both GPUs of one daemon,
// the client's manager link closes before any Hello, and after the bind
// window the daemon gives the lease back to the manager.
func TestUnboundGrantIsGivenBack(t *testing.T) {
	cc := startTestbed(t, testbed.Spec{
		Nodes:  map[string][]device.Config{"node1": {device.TestGPU("g0"), device.TestGPU("g1")}},
		Shards: keptLinkShards,
		Retain: bindWindow,
	})
	if err := cc.Ready(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	conn, err := cc.Dialer(ClientID)("shard-a")
	if err != nil {
		t.Fatal(err)
	}
	c := rpc.New(gcf.NewEndpoint(conn, true))
	c.Start(rpc.Routes{}, func(error) {})
	resp, err := c.Call(protocol.MsgDMRequestDevices, 0, func(w *protocol.Writer) {
		protocol.PlaceRequest{Tenant: "dies", Requests: []protocol.DeviceRequest{{Count: 2, Type: cl.DeviceTypeGPU}}}.Put(w)
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	waitGivenBack(t, cc, resp.String(), 2)
}

// TestUnboundGrantOnKeptLinkIsGivenBack: a lease bound on a kept daemon
// link outlives the bind window, and the next lease on that link, whose
// one-way Hello never arrives, is given back after it.
func TestUnboundGrantOnKeptLinkIsGivenBack(t *testing.T) {
	cc, p, mc, _ := keptLinkWorld(t, bindWindow)
	lease := acquire(t, cc, p, mc)
	time.Sleep(3 * bindWindow)
	if !cc.Daemon("node1").HasLease(lease.AuthID) || cc.Manager("shard-a").ActiveLeases() != 1 {
		t.Fatal("a bound lease was given back")
	}
	if err := lease.Release(); err != nil {
		t.Fatal(err)
	}
	// The link stays up, but what the client sends on it from here on is
	// held back: the next lease's Hello among it.
	cc.Net.SetExtraDelay(ClientID, "node1", time.Hour)
	waitGivenBack(t, cc, acquire(t, cc, p, mc).AuthID, 1)
}

// waitGivenBack checks that node1 and shard-a hold the granted lease, then
// waits for the daemon to give it back and the manager to free all its
// devices.
func waitGivenBack(t *testing.T, cc *testbed.Testbed, authID string, devices int) {
	t.Helper()
	d, m := cc.Daemon("node1"), cc.Manager("shard-a")
	if !d.HasLease(authID) || m.FreeDevices() != 0 || m.ActiveLeases() != 1 {
		t.Fatalf("after the grant: daemon holds it %v, free %d, leases %d", d.HasLease(authID), m.FreeDevices(), m.ActiveLeases())
	}
	waitCond(t, "the unbound grant to be given back", 5*time.Second, func() bool {
		return m.FreeDevices() == devices && m.ActiveLeases() == 0
	})
	if d.HasLease(authID) {
		t.Fatal("the daemon still holds the unbound lease")
	}
}
