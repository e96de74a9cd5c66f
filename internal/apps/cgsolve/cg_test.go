package cgsolve_test

import (
	"math/rand"
	"testing"

	"dopencl/internal/apps/cgsolve"
	"dopencl/internal/cl"
	"dopencl/internal/client"
	"dopencl/internal/device"
	"dopencl/internal/native"
	"dopencl/internal/testbed"
)

// rhs builds a deterministic right-hand side, zero on the boundary.
func rhs(w, h int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float32, w*h)
	for y := 1; y < h-1; y++ {
		for x := 1; x < w-1; x++ {
			b[y*w+x] = rng.Float32() - 0.5
		}
	}
	return b
}

func newDistPlatform(t *testing.T, addrs ...string) *client.Platform {
	t.Helper()
	nodes := map[string][]device.Config{}
	for _, addr := range addrs {
		nodes[addr] = []device.Config{device.TestGPU("gpu-" + addr)}
	}
	tb := testbed.StartTest(t, testbed.Spec{Nodes: nodes, Peers: true})
	plat := client.NewPlatform(client.Options{Dialer: tb.Dialer("client"), ClientName: "cg-test"})
	for _, addr := range addrs {
		if _, err := plat.ConnectServer(addr); err != nil {
			t.Fatal(err)
		}
	}
	return plat
}

func solveOn(t *testing.T, plat cl.Platform, p cgsolve.Params, b []float32) cgsolve.Result {
	t.Helper()
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := plat.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Release()
	res, err := cgsolve.Solve(ctx, devs, p, b)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSolveMatchesReference: native single-device CG is bit-identical
// to the pure-Go reference — solution and the whole residual history.
func TestSolveMatchesReference(t *testing.T) {
	p := cgsolve.Params{W: 18, H: 15, Iters: 25}
	b := rhs(p.W, p.H, 9)
	plat := native.NewPlatform("test", "test", []device.Config{device.TestCPU("cpu")})
	got := solveOn(t, plat, p, b)
	want := cgsolve.Reference(p, b)
	if len(got.Residuals) != len(want.Residuals) {
		t.Fatalf("%d iterations, reference did %d", len(got.Residuals), len(want.Residuals))
	}
	for i := range want.Residuals {
		if got.Residuals[i] != want.Residuals[i] {
			t.Fatalf("iteration %d: residual %v != reference %v", i, got.Residuals[i], want.Residuals[i])
		}
	}
	for i := range want.X {
		if got.X[i] != want.X[i] {
			t.Fatalf("x[%d]: %v != reference %v", i, got.X[i], want.X[i])
		}
	}
}

// TestSolveDistributedBitIdentical: the same solve over three daemons
// follows the exact same trajectory — the row-partial dot reduction
// makes every CG scalar independent of the partition.
func TestSolveDistributedBitIdentical(t *testing.T) {
	p := cgsolve.Params{W: 22, H: 19, Iters: 20}
	b := rhs(p.W, p.H, 13)
	want := cgsolve.Reference(p, b)
	got := solveOn(t, newDistPlatform(t, "node0", "node1", "node2"), p, b)
	if len(got.Residuals) != len(want.Residuals) {
		t.Fatalf("%d iterations, reference did %d", len(got.Residuals), len(want.Residuals))
	}
	for i := range want.Residuals {
		if got.Residuals[i] != want.Residuals[i] {
			t.Fatalf("iteration %d: residual %v != reference %v", i, got.Residuals[i], want.Residuals[i])
		}
	}
	for i := range want.X {
		if got.X[i] != want.X[i] {
			t.Fatalf("x[%d]: %v != reference %v", i, got.X[i], want.X[i])
		}
	}
}

// TestSolveConverges: CG actually solves the system — the residual
// after the iteration budget is far below where it started.
func TestSolveConverges(t *testing.T) {
	p := cgsolve.Params{W: 16, H: 16, Iters: 40}
	b := rhs(p.W, p.H, 21)
	res := cgsolve.Reference(p, b)
	first, last := res.Residuals[0], res.Residuals[len(res.Residuals)-1]
	if last >= first/1000 {
		t.Fatalf("residual %v after %d iterations (started at %v): not converging", last, len(res.Residuals), first)
	}
}
