package heat_test

import (
	"testing"

	"dopencl/internal/apps/heat"
	"dopencl/internal/cl"
	"dopencl/internal/client"
	"dopencl/internal/device"
	"dopencl/internal/native"
	"dopencl/internal/testbed"
)

// newDistPlatform spins up one single-GPU daemon per addr on an
// in-memory network (peer data plane enabled) and connects a platform.
func newDistPlatform(t *testing.T, addrs ...string) *client.Platform {
	t.Helper()
	nodes := map[string][]device.Config{}
	for _, addr := range addrs {
		nodes[addr] = []device.Config{device.TestGPU("gpu-" + addr)}
	}
	tb := testbed.StartTest(t, testbed.Spec{Nodes: nodes, Peers: true})
	plat := client.NewPlatform(client.Options{Dialer: tb.Dialer("client"), ClientName: "heat-test"})
	for _, addr := range addrs {
		if _, err := plat.ConnectServer(addr); err != nil {
			t.Fatal(err)
		}
	}
	return plat
}

func contextOver(t *testing.T, plat cl.Platform) (cl.Context, []cl.Device) {
	t.Helper()
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := plat.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	return ctx, devs
}

func assertBitIdentical(t *testing.T, got, want []float32, gotName, wantName string, w int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s has %d cells, %s has %d", gotName, len(got), wantName, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell (%d,%d): %s %v != %s %v", i%w, i/w, gotName, got[i], wantName, want[i])
		}
	}
}

// TestRunMatchesReferenceNative: the solver on the single-node native
// runtime is bit-identical to the pure-Go reference.
func TestRunMatchesReferenceNative(t *testing.T) {
	p := heat.Params{W: 24, H: 18, Iters: 10, Alpha: 0.2}
	init := heat.InitialState(p.W, p.H)
	plat := native.NewPlatform("test", "test", []device.Config{device.TestCPU("cpu")})
	ctx, devs := contextOver(t, plat)
	defer ctx.Release()
	got, err := heat.Run(ctx, devs, p, init)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, got, heat.Reference(p, init), "native run", "reference", p.W)
}

// TestRunMatchesReferenceDistributed: the distributed run — three
// daemons, inferred halos, recorded replay — is bit-identical to the
// reference too.
func TestRunMatchesReferenceDistributed(t *testing.T) {
	p := heat.Params{W: 32, H: 27, Iters: 14, Alpha: 0.25}
	init := heat.InitialState(p.W, p.H)
	plat := newDistPlatform(t, "node0", "node1", "node2")
	ctx, devs := contextOver(t, plat)
	defer ctx.Release()
	got, err := heat.Run(ctx, devs, p, init)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, got, heat.Reference(p, init), "distributed run", "reference", p.W)
}

// TestRunRecoverableFaultFree: with no faults, the checkpoint/restart
// path takes zero restarts and produces the same bits as Run.
func TestRunRecoverableFaultFree(t *testing.T) {
	p := heat.Params{W: 20, H: 20, Iters: 11, Alpha: 0.2}
	init := heat.InitialState(p.W, p.H)
	plat := newDistPlatform(t, "node0", "node1")
	provide := func() (cl.Context, []cl.Device, error) {
		devs, err := plat.Devices(cl.DeviceTypeAll)
		if err != nil {
			return nil, nil, err
		}
		ctx, err := plat.CreateContext(devs)
		return ctx, devs, err
	}
	got, restarts, err := heat.RunRecoverable(provide, p, init, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restarts != 0 {
		t.Fatalf("fault-free run took %d restarts", restarts)
	}
	assertBitIdentical(t, got, heat.Reference(p, init), "recoverable run", "reference", p.W)
}
