package chaos

import (
	"testing"
	"time"

	"dopencl/internal/apps/heat"
	"dopencl/internal/cl"
	"dopencl/internal/client"
	"dopencl/internal/device"
	"dopencl/internal/testbed"
)

// TestJacobiRecoversFromDaemonKillMidIteration: a daemon holding the
// middle partition of a distributed Jacobi run is killed while an
// iteration is in flight. The checkpoint/restart path must detect the
// failure, re-partition the array over the two survivors, replay the
// lost iterations from the last checkpoint, and converge to a final
// state bit-identical to the fault-free oracle — recomputation is
// deterministic, so the crash leaves no numerical trace.
func TestJacobiRecoversFromDaemonKillMidIteration(t *testing.T) {
	cluster := startTestbed(t, testbed.Spec{Nodes: map[string][]device.Config{
		"hx0": {device.TestGPU("g0")},
		"hx1": {device.TestGPU("g1")},
		"hx2": {device.TestGPU("g2")},
	}})
	plat := newPlatform(cluster)
	for _, addr := range cluster.Addrs() {
		if _, err := plat.ConnectServer(addr); err != nil {
			t.Fatalf("connect %s: %v", addr, err)
		}
	}

	p := heat.Params{W: 24, H: 24, Iters: 30, Alpha: 0.2}
	init := heat.InitialState(p.W, p.H)

	aliveDevices := func() []cl.Device {
		devs, err := plat.Devices(cl.DeviceTypeAll)
		if err != nil {
			return nil
		}
		var alive []cl.Device
		for _, d := range devs {
			if cd, ok := d.(*client.Device); ok && cd.Available() {
				alive = append(alive, d)
			}
		}
		return alive
	}
	killed := false
	provide := func() (cl.Context, []cl.Device, error) {
		// After a kill the client may not have noticed yet; wait for the
		// dead daemon's devices to drop out before re-partitioning.
		want := 3
		if killed {
			want = 2
		}
		devs := aliveDevices()
		deadline := time.Now().Add(5 * time.Second)
		for len(devs) != want && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			devs = aliveDevices()
		}
		ctx, err := plat.CreateContext(devs)
		return ctx, devs, err
	}
	onIter := func(iter int) error {
		// Kill mid-chunk (checkpoints land every 5 iterations): the
		// in-flight replay frames against hx1 fail, and iterations 11-13
		// must be recomputed from the checkpoint at 10.
		if iter == 13 && !killed {
			killed = true
			cluster.Kill("hx1")
		}
		return nil
	}

	got, restarts, err := heat.RunRecoverable(provide, p, init, 5, onIter)
	if err != nil {
		t.Fatalf("recoverable run: %v", err)
	}
	if !killed {
		t.Fatal("kill hook never fired")
	}
	if restarts == 0 {
		t.Fatal("daemon kill caused no restart: fault was not exercised")
	}
	if n := len(aliveDevices()); n != 2 {
		t.Fatalf("%d devices alive after kill, want 2", n)
	}

	want := heat.Reference(p, init)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell (%d,%d): recovered %v != fault-free oracle %v",
				i%p.W, i/p.W, got[i], want[i])
		}
	}
	t.Logf("recovered after %d restart(s), final state bit-identical to oracle", restarts)
}
