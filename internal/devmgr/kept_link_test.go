package devmgr

import (
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dopencl/internal/cl"
	"dopencl/internal/client"
	"dopencl/internal/device"
	"dopencl/internal/protocol"
)

// One kept daemon link carries lease after lease, and each lease's objects
// die with it: after 200 lease-shaped sessions — each of which releases
// its context but not its queue, buffers, program or kernel — the daemon
// was dialed once, its sessions hold nothing, and no goroutine is left
// over (a native queue that outlived its lease would keep one).
func TestKeptDaemonLinkCarriesManyLeases(t *testing.T) {
	w := newManagedWorld(t, map[string][]device.Config{"gpuserver": {device.TestGPU("g0")}})
	d := w.daemons["gpuserver"]
	var daemonDials atomic.Int32
	app := client.NewPlatform(client.Options{ClientName: "many", Dialer: func(addr string) (net.Conn, error) {
		if addr == "gpuserver" {
			daemonDials.Add(1)
		}
		return w.nw.Dial(addr)
	}})
	defer app.Close()
	session := func() {
		t.Helper()
		waitFor(t, func() bool { return w.manager.FreeDevices() == 1 }, "lease release")
		leaseShapedSession(t, app, "devmgr")
	}
	session()
	waitFor(t, func() bool { return d.SessionObjects() == 0 }, "the first lease's objects to be released")
	base := runtime.NumGoroutine()
	const sessions = 200
	for i := 0; i < sessions; i++ {
		session()
	}
	waitFor(t, func() bool { return d.SessionObjects() == 0 }, "every lease's objects to be released")
	waitFor(t, func() bool { return runtime.NumGoroutine() <= base }, "the goroutine count to return to its level after one lease")
	if n := daemonDials.Load(); n != 1 {
		t.Errorf("%d lease sessions dialed the daemon %d times, want 1", sessions+1, n)
	}
	if n := d.RetainedSessions(); n != 0 {
		t.Errorf("%d daemon sessions retained", n)
	}
}

// An idle daemon link lives as long as a manager link does: a lease can
// only come through one. With the platform's last manager link cut, the
// idle link closes — which is what ends a platform's links to a world torn
// down by closing its manager — and the next lease dials both again.
func TestIdleDaemonLinkEndsWithLastManagerLink(t *testing.T) {
	w := newManagedWorld(t, map[string][]device.Config{"gpuserver": {device.TestGPU("g0")}})
	var mu sync.Mutex
	var managerLinks []net.Conn
	app := client.NewPlatform(client.Options{ClientName: "idle", Dialer: func(addr string) (net.Conn, error) {
		conn, err := w.nw.Dial(addr)
		if err == nil && addr == "devmgr" {
			mu.Lock()
			managerLinks = append(managerLinks, conn)
			mu.Unlock()
		}
		return conn, err
	}})
	defer app.Close()
	lease, err := app.RequestFromManager(client.ManagerConfig{
		Manager:  "devmgr",
		Requests: []protocol.DeviceRequest{{Count: 1, Type: cl.DeviceTypeGPU}},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := lease.Servers[0]
	if err := lease.Release(); err != nil {
		t.Fatal(err)
	}
	if !srv.Connected() {
		t.Fatal("the released lease's daemon link was not kept")
	}
	if err := lease.Release(); err == nil {
		t.Error("a second release of the lease ended a session again")
	}
	mu.Lock()
	managerLinks[0].Close()
	mu.Unlock()
	waitFor(t, func() bool { return !srv.Connected() }, "the idle daemon link to close with the last manager link")
	waitFor(t, func() bool { return w.manager.FreeDevices() == 1 }, "lease release")
	leaseShapedSession(t, app, "devmgr")
	mu.Lock()
	defer mu.Unlock()
	if len(managerLinks) != 2 {
		t.Errorf("the manager was dialed %d times, want 2", len(managerLinks))
	}
}

// A kept link is bound to its next lease by a one-way Hello. When the
// daemon refuses it, the refusal is reported like a refused create's: once,
// under its own code, by the next call that waits on that server. Here the
// daemon refuses because the granting manager never told it of the lease:
// the second manager places the daemon's device from an injected record,
// with no link to push the assignment on.
func TestRefusedKeptLinkHelloSurfacesOnce(t *testing.T) {
	w := newManagedWorld(t, map[string][]device.Config{"gpuserver": {device.TestGPU("g0")}})
	other := New()
	t.Cleanup(other.Close)
	ol, err := w.nw.Listen("devmgr-2")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = other.Serve(ol) }() // returns when the listener closes
	t.Cleanup(func() { ol.Close() })
	other.AddDevices("gpuserver", w.daemons["gpuserver"].Records())

	app := w.client("refused")
	defer app.Close()
	w.leaseCycle(t, app) // leaves the daemon link idle
	lease, err := app.RequestFromManager(client.ManagerConfig{
		Manager:  "devmgr-2",
		Requests: []protocol.DeviceRequest{{Count: 1, Type: cl.DeviceTypeGPU}},
	})
	if err != nil {
		t.Fatalf("the grant on the kept link: %v", err)
	}
	defer lease.Release()
	devs, err := app.Devices(cl.DeviceTypeGPU)
	if err != nil || len(devs) != 1 {
		t.Fatalf("devices from the grant: %v, %v", devs, err)
	}
	ctx, err := app.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Release()
	q, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	err = q.Finish()
	if cl.CodeOf(err) != cl.InvalidServer || !strings.Contains(err.Error(), "Hello") {
		t.Fatalf("first wait after the refused hello: %v, want the Hello's CL_INVALID_SERVER", err)
	}
	if err := q.Finish(); err == nil || strings.Contains(err.Error(), "Hello") {
		t.Fatalf("second wait: %v, want the queue's own failure and not the Hello's again", err)
	}
}
