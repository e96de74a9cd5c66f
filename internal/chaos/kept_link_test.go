package chaos

import (
	"encoding/binary"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/client"
	"dopencl/internal/device"
	"dopencl/internal/testbed"
)

// keptLinkShards is the kept-link world's one device manager.
var keptLinkShards = []string{"shard-a"}

// keptLinkWorld is one managed daemon with one GPU behind one shard, and a
// platform that counts its dials to the daemon. Detached sessions are
// retained for retain, so a blip can be recovered from.
func keptLinkWorld(t *testing.T, retain time.Duration) (*testbed.Testbed, *client.Platform, client.ManagerConfig, *atomic.Int32) {
	t.Helper()
	cc := startTestbed(t, testbed.Spec{
		Nodes:  map[string][]device.Config{"node1": {device.TestGPU("g0")}},
		Shards: keptLinkShards,
		Retain: retain,
	})
	if !WaitPartition(cc, keptLinkShards, 10*time.Second) {
		t.Fatal("the daemon never registered")
	}
	var daemonDials atomic.Int32
	p := client.NewPlatform(client.Options{ClientName: "kept", Dialer: func(addr string) (net.Conn, error) {
		if addr == "node1" {
			daemonDials.Add(1)
		}
		return cc.Net.DialFrom(ClientID, addr)
	}})
	t.Cleanup(p.Close)
	mc := withRequests(client.ManagerConfig{Managers: keptLinkShards, Tenant: "kept"}, 1)
	return cc, p, mc, &daemonDials
}

// acquire requests the world's one GPU once the previous lease has freed it.
func acquire(t *testing.T, cc *testbed.Testbed, p *client.Platform, mc client.ManagerConfig) *client.Lease {
	t.Helper()
	waitCond(t, "the GPU to be free", 5*time.Second, func() bool { return totalFree(cc, keptLinkShards) == 1 })
	lease, err := p.RequestFromManager(mc)
	if err != nil {
		t.Fatal(err)
	}
	return lease
}

// leaseBuffer is a scale kernel and a buffer of 0..n-1 on a lease's GPU,
// written and finished.
type leaseBuffer struct {
	ctx cl.Context
	q   cl.Queue
	k   cl.Kernel
	buf cl.Buffer
}

const leaseN = 16

func newLeaseBuffer(t *testing.T, p *client.Platform) *leaseBuffer {
	t.Helper()
	devs, err := p.Devices(cl.DeviceTypeGPU)
	if err != nil || len(devs) != 1 {
		t.Fatalf("lease devices: %v, %v", devs, err)
	}
	ctx, err := p.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.CreateProgramWithSource(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(nil, ""); err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("scale")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4*leaseN)
	for i := 0; i < leaseN; i++ {
		binary.LittleEndian.PutUint32(data[4*i:], math.Float32bits(float32(i)))
	}
	buf, err := ctx.CreateBuffer(cl.MemReadWrite, len(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueWriteBuffer(buf, false, 0, data, nil); err != nil {
		t.Fatal(err)
	}
	if err := q.Finish(); err != nil {
		t.Fatalf("finish after the write: %v", err)
	}
	return &leaseBuffer{ctx: ctx, q: q, k: k, buf: buf}
}

// scaleAndCheck doubles the buffer on the device and checks the read-back.
func (lb *leaseBuffer) scaleAndCheck(t *testing.T) {
	t.Helper()
	for i, v := range []any{lb.buf, float32(2), int32(leaseN)} {
		if err := lb.k.SetArg(i, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := lb.q.EnqueueNDRangeKernel(lb.k, []int{leaseN}, nil, nil); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4*leaseN)
	if _, err := lb.q.EnqueueReadBuffer(lb.buf, true, 0, got, nil); err != nil {
		t.Fatalf("read-back: %v", err)
	}
	for i := 0; i < leaseN; i++ {
		if v := math.Float32frombits(binary.LittleEndian.Uint32(got[4*i:])); v != float32(2*i) {
			t.Fatalf("data[%d] = %v, want %v", i, v, 2*i)
		}
	}
}

// A daemon link cut while it sits idle between leases is forgotten: the
// next lease dials the daemon again and works on the new link, and the
// daemon, whose session had ended its lease, retains nothing.
func TestIdleDaemonLinkCutRedials(t *testing.T) {
	cc, p, mc, daemonDials := keptLinkWorld(t, time.Minute)
	lease := acquire(t, cc, p, mc)
	srv := lease.Servers[0]
	if err := lease.Release(); err != nil {
		t.Fatal(err)
	}
	// A request answered behind the one-way Goodbye: the daemon has ended
	// the lease's session before the cut.
	if _, err := p.GetServerInfo(srv); err != nil {
		t.Fatalf("the idle link: %v", err)
	}
	cc.Sever(ClientID, "node1")
	waitDown(t, srv)
	cc.Heal(ClientID, "node1")

	lease = acquire(t, cc, p, mc)
	defer lease.Release()
	if lease.Servers[0] == srv {
		t.Fatal("the lease after the cut bound to the dead link")
	}
	if n := daemonDials.Load(); n != 2 {
		t.Errorf("the daemon was dialed %d times, want 2: once per link", n)
	}
	newLeaseBuffer(t, p).scaleAndCheck(t)
	if n := cc.Daemon("node1").RetainedSessions(); n != 0 {
		t.Errorf("%d daemon sessions retained after the idle link's cut", n)
	}
}

// A blip during a lease on a kept link is recovered like one on a fresh
// link: Reattach presents the session ID and the auth ID of the lease the
// link is bound to now — not the one that dialed it — and the daemon hands
// back that lease's objects, buffer contents included. A context the
// previous lease left unreleased died with that lease: the re-attach does
// not re-create it in the current lease's session.
func TestBlipOnKeptLinkReattachesCurrentLease(t *testing.T) {
	cc, p, mc, daemonDials := keptLinkWorld(t, time.Minute)
	first := acquire(t, cc, p, mc)
	newLeaseBuffer(t, p) // left unreleased
	if err := first.Release(); err != nil {
		t.Fatal(err)
	}
	lease := acquire(t, cc, p, mc)
	defer lease.Release()
	if lease.AuthID == first.AuthID {
		t.Fatal("two leases got one auth ID")
	}
	if n := daemonDials.Load(); n != 1 {
		t.Fatalf("the second lease dialed the daemon: %d dials, want 1", n)
	}
	srv := lease.Servers[0]
	lb := newLeaseBuffer(t, p)

	d := cc.Daemon("node1")
	cc.Sever(ClientID, "node1")
	waitDown(t, srv)
	waitCond(t, "the daemon to park the session", 5*time.Second, func() bool { return d.RetainedSessions() == 1 })
	parked := d.SessionObjects()
	cc.Heal(ClientID, "node1")
	if retained, err := srv.Reattach(); err != nil || !retained {
		t.Fatalf("reattach on the kept link: retained=%v, %v", retained, err)
	}
	if n := d.SessionObjects(); n != parked {
		t.Errorf("the re-attached session holds %d objects, the parked one held %d", n, parked)
	}
	lb.scaleAndCheck(t)
}
