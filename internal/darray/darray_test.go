package darray_test

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/client"
	"dopencl/internal/daemon"
	"dopencl/internal/darray"
	"dopencl/internal/device"
	"dopencl/internal/native"
	"dopencl/internal/simnet"
)

// jacobiSrc is the canonical 5-point stencil: fixed (Dirichlet)
// boundary, interior relaxed towards the neighbour average. It follows
// the darray stencil convention, so the halo is inferred.
const jacobiSrc = `
kernel void step(global float* out, const global float* in, int w, int h, int inBase, float alpha) {
	int gid = get_global_id(0);
	int x = gid % w;
	int y = gid / w;
	float c = in[gid - inBase];
	if (x == 0 || x == w - 1 || y == 0 || y == h - 1) {
		out[gid - get_global_offset(0)] = c;
		return;
	}
	float n = in[gid - w - inBase];
	float s = in[gid + w - inBase];
	float e = in[gid + 1 - inBase];
	float m = in[gid - 1 - inBase];
	out[gid - get_global_offset(0)] = c + alpha * (n + s + e + m - 4.0 * c);
}

kernel void axpy(global float* x, const global float* p, int w, int h, float alpha) {
	int l = get_global_id(0) - get_global_offset(0);
	x[l] = x[l] + alpha * p[l];
}

kernel void dotrows(global float* part, const global float* x, const global float* y, int w, int h) {
	int lr = get_global_id(0) - get_global_offset(0);
	float acc = 0.0;
	for (int c = 0; c < w; c++) {
		acc = acc + x[lr * w + c] * y[lr * w + c];
	}
	part[lr] = acc;
}
`

// world is a simnet cluster with the peer data plane up plus a
// connected platform, the substrate every darray test runs on.
type world struct {
	net  *simnet.Network
	plat *client.Platform
}

const clientID = "client"

func peerOf(addr string) string { return addr + "/peer" }

// newWorld starts one daemon per addr, each exposing one GPU, with peer
// links between all daemons, and connects a platform to all of them.
func newWorld(t *testing.T, link simnet.LinkConfig, addrs ...string) *world {
	t.Helper()
	return newWorldOf(t, link, device.TestGPU, addrs...)
}

// newWorldOf is newWorld with the device each daemon exposes built by
// mkDev from the device's name.
func newWorldOf(t *testing.T, link simnet.LinkConfig, mkDev func(name string) device.Config, addrs ...string) *world {
	t.Helper()
	nw := simnet.NewNetwork(link)
	for _, addr := range addrs {
		addr := addr
		np := native.NewPlatform("native-"+addr, "test", []device.Config{mkDev("gpu-" + addr)})
		d, err := daemon.New(daemon.Config{
			Name: addr, Platform: np,
			PeerAddr: peerOf(addr),
			PeerDial: func(a string) (net.Conn, error) { return nw.DialFrom(addr, a) },
		})
		if err != nil {
			t.Fatalf("daemon %s: %v", addr, err)
		}
		l, err := nw.Listen(addr)
		if err != nil {
			t.Fatalf("listen %s: %v", addr, err)
		}
		go func() { _ = d.Serve(l) }()
		pl, err := nw.Listen(peerOf(addr))
		if err != nil {
			t.Fatalf("peer listen %s: %v", addr, err)
		}
		go func() { _ = d.ServePeers(pl) }()
	}
	plat := client.NewPlatform(client.Options{
		Dialer:     func(addr string) (net.Conn, error) { return nw.DialFrom(clientID, addr) },
		ClientName: "darray-test",
	})
	for _, addr := range addrs {
		if _, err := plat.ConnectServer(addr); err != nil {
			t.Fatalf("connect %s: %v", addr, err)
		}
	}
	return &world{net: nw, plat: plat}
}

// grid builds a grid over every device of the world.
func (w *world) grid(t *testing.T, src string, gw, gh int) (*darray.Grid, cl.Context) {
	t.Helper()
	devs, err := w.plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := w.plat.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	g, err := darray.NewGrid(ctx, devs, src, gw, gh)
	if err != nil {
		t.Fatal(err)
	}
	return g, ctx
}

func randomState(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	vs := make([]float32, n)
	for i := range vs {
		vs[i] = rng.Float32()
	}
	return vs
}

// jacobiRef is the pure-Go float32 oracle for one step of jacobiSrc,
// mirroring the kernel's operation order exactly.
func jacobiRef(w, h int, alpha float32, src []float32) []float32 {
	dst := make([]float32, len(src))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			c := src[i]
			if x == 0 || x == w-1 || y == 0 || y == h-1 {
				dst[i] = c
				continue
			}
			dst[i] = c + alpha*(src[i-w]+src[i+w]+src[i+1]+src[i-1]-4*c)
		}
	}
	return dst
}

// helperTapSrc reads the row above through a helper: the tap is only in
// the kernel once the helper is inlined.
const helperTapSrc = `
float up(const global float* in, int i, int w) { return in[i - w]; }

kernel void smooth(global float* out, const global float* in, int w, int h, int inBase) {
	int gid = get_global_id(0);
	float c = in[gid - inBase];
	if (gid >= w) {
		c = 0.5 * (c + up(in, gid - inBase, w));
	}
	out[gid - get_global_offset(0)] = c;
}

kernel void overrun(global float* o, const global float* x, const global float* y, int w, int h) {
	o[get_global_id(0) - get_global_offset(0)] = x[get_global_id(0) * w * h] + y[0];
}`

// smoothRef is the pure-Go float32 oracle for one step of helperTapSrc.
func smoothRef(w int, src []float32) []float32 {
	dst := append([]float32(nil), src...)
	for i := w; i < len(src); i++ {
		dst[i] = 0.5 * (src[i] + src[i-w])
	}
	return dst
}

// TestInferHalo: every halo inferred is at least what the kernel reads.
// Where the index is out of reach of the analysis it must refuse (errOK
// marks a row where refusing is allowed instead of the exact halo), and
// never report less.
func TestInferHalo(t *testing.T) {
	cases := []struct {
		name, src, kernel string
		want              darray.Halo
		wantErr, errOK    bool
	}{
		{"five-point", jacobiSrc, "step", darray.Halo{Lo: 1, Hi: 1}, false, false},
		{"down-only", `
kernel void shift(global float* out, const global float* in, int w, int h, int inBase) {
	int gid = get_global_id(0);
	out[gid - get_global_offset(0)] = in[gid + w - inBase];
}`, "shift", darray.Halo{Lo: 0, Hi: 1}, false, false},
		{"nine-point-diagonals", `
kernel void nine(global float* out, const global float* in, int w, int h, int inBase) {
	int gid = get_global_id(0);
	out[gid - get_global_offset(0)] = in[gid - w - 1 - inBase] + in[gid + w + 1 - inBase];
}`, "nine", darray.Halo{Lo: 2, Hi: 2}, false, false},
		{"radius-two-via-local", `
kernel void r2(global float* out, const global float* in, int w, int h, int inBase) {
	int gid = get_global_id(0);
	int up2 = gid - 2 * w;
	out[gid - get_global_offset(0)] = in[up2 - inBase];
}`, "r2", darray.Halo{Lo: 2, Hi: 0}, false, false},
		{"non-affine", `
kernel void bad(global float* out, const global float* in, int w, int h, int inBase) {
	int gid = get_global_id(0);
	int x = gid % w;
	out[gid - get_global_offset(0)] = in[x - inBase];
}`, "bad", darray.Halo{}, true, false},
		{"missing-base", `
kernel void nobase(global float* out, const global float* in, int w, int h, int inBase) {
	int gid = get_global_id(0);
	out[gid - get_global_offset(0)] = in[gid];
}`, "nobase", darray.Halo{}, true, false},
		{"helper-tap", helperTapSrc, "smooth", darray.Halo{Lo: 1, Hi: 0}, false, false},
		{"shadowed-local", `
kernel void shadow(global float* out, const global float* in, int w, int h, int inBase) {
	int gid = get_global_id(0);
	int i = gid - w;
	{
		int i = gid;
		out[i - get_global_offset(0)] = 0.0;
	}
	out[gid - get_global_offset(0)] = in[i - inBase];
}`, "shadow", darray.Halo{Lo: 1, Hi: 0}, false, false},
		{"loop-carried-index", `
kernel void walk(global float* out, const global float* in, int w, int h, int inBase) {
	int gid = get_global_id(0);
	int i = gid;
	float acc = 0.0;
	for (int k = 0; k < 2; k++) {
		acc = acc + in[i - inBase];
		i += w;
	}
	out[gid - get_global_offset(0)] = acc;
}`, "walk", darray.Halo{}, true, false},
		{"if-else-reassigns-index", `
kernel void pick(global float* out, const global float* in, int w, int h, int inBase) {
	int gid = get_global_id(0);
	int i = gid;
	if (h > 2) {
		i = gid + w;
	} else {
		i = gid - 1;
	}
	out[gid - get_global_offset(0)] = in[i - inBase];
}`, "pick", darray.Halo{Lo: 1, Hi: 1}, false, true},
		{"parameter-reassigned-under-if", `
kernel void lift(global float* out, const global float* in, int w, int h, int inBase) {
	int gid = get_global_id(0);
	if (h < 0) {
		w = 0;
	}
	out[gid - get_global_offset(0)] = in[gid + w - inBase];
}`, "lift", darray.Halo{Lo: 0, Hi: 1}, false, true},
		{"index-uses-h", `
kernel void tall(global float* out, const global float* in, int w, int h, int inBase) {
	int gid = get_global_id(0);
	out[gid - get_global_offset(0)] = in[gid + h - inBase];
}`, "tall", darray.Halo{}, true, false},
		{"straight-line-advance", `
kernel void next(global float* out, const global float* in, int w, int h, int inBase) {
	int gid = get_global_id(0);
	int i = gid;
	i += w;
	out[gid - get_global_offset(0)] = in[i - inBase];
}`, "next", darray.Halo{Lo: 0, Hi: 1}, false, false},
	}
	for _, tc := range cases {
		h, err := darray.InferHalo(tc.src, tc.kernel)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: inferred %+v, want error", tc.name, h)
			}
			t.Logf("%s: %v", tc.name, err)
			continue
		}
		if err != nil {
			if !tc.errOK {
				t.Errorf("%s: %v", tc.name, err)
			}
			t.Logf("%s: %v", tc.name, err)
			continue
		}
		if h != tc.want {
			t.Errorf("%s: halo %+v, want %+v", tc.name, h, tc.want)
		}
	}
}

// TestHelperTapStencilDistributed runs the helper-tap stencil through Step
// with its inferred halo on 2 and 3 daemons: every cell must match the
// pure-Go reference bit for bit.
func TestHelperTapStencilDistributed(t *testing.T) {
	const gw, gh, iters = 6, 12, 3
	halo, err := darray.InferHalo(helperTapSrc, "smooth")
	if err != nil {
		t.Fatal(err)
	}
	init := randomState(gw*gh, 9)
	want := init
	for it := 0; it < iters; it++ {
		want = smoothRef(gw, want)
	}
	for _, addrs := range [][]string{{"node0", "node1"}, {"node0", "node1", "node2"}} {
		g, _ := newWorld(t, simnet.Unlimited(), addrs...).grid(t, helperTapSrc, gw, gh)
		a, _ := g.NewArray()
		b, _ := g.NewArray()
		if err := a.Scatter(init); err != nil {
			t.Fatal(err)
		}
		src, dst := a, b
		for it := 0; it < iters; it++ {
			if err := g.Step("smooth", dst, src, halo); err != nil {
				t.Fatalf("%d daemons: %v", len(addrs), err)
			}
			src, dst = dst, src
		}
		got, err := src.Gather()
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d daemons, cell (%d,%d): %v, want %v", len(addrs), i%gw, i/gw, got[i], want[i])
			}
		}
		g.Release()
	}
}

// TestFailedLaunchIsReported: a launch that traps on its daemon is the
// error of the call that made it, not a nil over stale rows. With a halo
// smaller than the stencil reads, Step's launches past the first partition
// index below their input view; overrun indexes past its view under Map
// and DotRows alike.
func TestFailedLaunchIsReported(t *testing.T) {
	const gw, gh = 6, 12
	g, _ := newWorld(t, simnet.Unlimited(), "node0", "node1").grid(t, helperTapSrc, gw, gh)
	defer g.Release()
	a, _ := g.NewArray()
	b, _ := g.NewArray()
	c, _ := g.NewArray()
	if err := a.Scatter(randomState(gw*gh, 4)); err != nil {
		t.Fatal(err)
	}
	if err := g.Step("smooth", b, a, darray.Halo{}); err == nil {
		t.Error("Step with a too-small halo returned nil")
	}
	if err := g.Map("overrun", []*darray.Array{c, a, b}); err == nil {
		t.Error("Map of a kernel that traps returned nil")
	}
	if _, err := g.DotRows("overrun", a, b); err == nil {
		t.Error("DotRows of a kernel that traps returned nil")
	}
}

func TestScatterGatherRoundTrip(t *testing.T) {
	w := newWorld(t, simnet.Unlimited(), "node0", "node1", "node2")
	g, _ := w.grid(t, jacobiSrc, 17, 23)
	defer g.Release()
	a, err := g.NewArray()
	if err != nil {
		t.Fatal(err)
	}
	vals := randomState(17*23, 7)
	if err := a.Scatter(vals); err != nil {
		t.Fatal(err)
	}
	got, err := a.Gather()
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("cell %d: %v, want %v", i, got[i], vals[i])
		}
	}
}

// runJacobi runs iters Jacobi steps on the world via the recorded
// ping-pong loop and returns the final state.
func runJacobi(t *testing.T, w *world, gw, gh, iters int, init []float32) []float32 {
	t.Helper()
	g, _ := w.grid(t, jacobiSrc, gw, gh)
	defer g.Release()
	halo, err := darray.InferHalo(jacobiSrc, "step")
	if err != nil {
		t.Fatal(err)
	}
	a, err := g.NewArray()
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.NewArray()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Scatter(init); err != nil {
		t.Fatal(err)
	}
	loop, err := g.RecordPingPong("step", a, b, halo, float32(0.2))
	if err != nil {
		t.Fatal(err)
	}
	defer loop.Release()
	if err := loop.Iterate(iters, nil); err != nil {
		t.Fatal(err)
	}
	out, err := loop.Result().Gather()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestJacobiOracleEquivalence is the tentpole's correctness contract:
// the distributed run — partitions, inferred halos, recorded replay —
// must be bit-identical to a single-device run of the same kernel, and
// both to the pure-Go float32 reference.
func TestJacobiOracleEquivalence(t *testing.T) {
	const gw, gh, iters = 31, 29, 12
	init := randomState(gw*gh, 42)

	single := runJacobi(t, newWorld(t, simnet.Unlimited(), "solo"), gw, gh, iters, init)
	multi := runJacobi(t, newWorld(t, simnet.Unlimited(), "node0", "node1", "node2"), gw, gh, iters, init)
	for i := range single {
		if single[i] != multi[i] {
			t.Fatalf("cell (%d,%d): distributed %v != single-device %v",
				i%gw, i/gw, multi[i], single[i])
		}
	}

	ref := append([]float32(nil), init...)
	for it := 0; it < iters; it++ {
		ref = jacobiRef(gw, gh, 0.2, ref)
	}
	for i := range ref {
		if single[i] != ref[i] {
			t.Fatalf("cell (%d,%d): device %v != Go reference %v", i%gw, i/gw, single[i], ref[i])
		}
	}
}

// TestStepMatchesRecordedLoop: the unrecorded Step path and the
// recorded replay path must produce identical states.
func TestStepMatchesRecordedLoop(t *testing.T) {
	const gw, gh, iters = 19, 16, 5
	init := randomState(gw*gh, 11)

	viaLoop := runJacobi(t, newWorld(t, simnet.Unlimited(), "node0", "node1"), gw, gh, iters, init)

	w := newWorld(t, simnet.Unlimited(), "node0", "node1")
	g, _ := w.grid(t, jacobiSrc, gw, gh)
	defer g.Release()
	halo := darray.Halo{Lo: 1, Hi: 1}
	a, _ := g.NewArray()
	b, _ := g.NewArray()
	if err := a.Scatter(init); err != nil {
		t.Fatal(err)
	}
	src, dst := a, b
	for it := 0; it < iters; it++ {
		if err := g.Step("step", dst, src, halo, float32(0.2)); err != nil {
			t.Fatal(err)
		}
		src, dst = dst, src
	}
	viaStep, err := src.Gather()
	if err != nil {
		t.Fatal(err)
	}
	for i := range viaLoop {
		if viaLoop[i] != viaStep[i] {
			t.Fatalf("cell %d: loop %v != step %v", i, viaLoop[i], viaStep[i])
		}
	}
}

// TestDotRowsPartitionIndependent: DotRows over 1 and 3 devices must
// agree bit-exactly (row partials summed in row order on the host).
func TestDotRowsPartitionIndependent(t *testing.T) {
	const gw, gh = 13, 21
	x := randomState(gw*gh, 5)
	y := randomState(gw*gh, 6)
	dot := func(w *world) float32 {
		g, _ := w.grid(t, jacobiSrc, gw, gh)
		defer g.Release()
		ax, _ := g.NewArray()
		ay, _ := g.NewArray()
		if err := ax.Scatter(x); err != nil {
			t.Fatal(err)
		}
		if err := ay.Scatter(y); err != nil {
			t.Fatal(err)
		}
		v, err := g.DotRows("dotrows", ax, ay)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	single := dot(newWorld(t, simnet.Unlimited(), "solo"))
	multi := dot(newWorld(t, simnet.Unlimited(), "node0", "node1", "node2"))
	if single != multi {
		t.Fatalf("dot over 3 devices %v != single device %v", multi, single)
	}
}

// TestDotRowsOneColumn: on a one-column grid every array has the same
// row size as the row-partials vector, which must not be mistaken for
// one of them. Two calls both equal the host dot, and x and y are left
// as scattered.
func TestDotRowsOneColumn(t *testing.T) {
	const gh = 8
	x := randomState(gh, 7)
	y := randomState(gh, 8)
	var want float32
	for i := range x {
		want += float32(x[i] * y[i]) // rounded as the kernel rounds it
	}
	w := newWorld(t, simnet.Unlimited(), "node0", "node1")
	g, _ := w.grid(t, jacobiSrc, 1, gh)
	defer g.Release()
	ax, _ := g.NewArray()
	ay, _ := g.NewArray()
	if err := ax.Scatter(x); err != nil {
		t.Fatal(err)
	}
	if err := ay.Scatter(y); err != nil {
		t.Fatal(err)
	}
	for call := 1; call <= 2; call++ {
		got, err := g.DotRows("dotrows", ax, ay)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("call %d: DotRows = %v, want %v", call, got, want)
		}
	}
	for _, c := range []struct {
		name string
		a    *darray.Array
		want []float32
	}{{"x", ax, x}, {"y", ay, y}} {
		got, err := c.a.Gather()
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Fatalf("%s[%d] = %v after DotRows, want %v", c.name, i, got[i], c.want[i])
			}
		}
	}
}

// TestMapAxpy: Map applies an elementwise kernel across partitions;
// verify against the host computation.
func TestMapAxpy(t *testing.T) {
	const gw, gh = 9, 12
	w := newWorld(t, simnet.Unlimited(), "node0", "node1")
	g, _ := w.grid(t, jacobiSrc, gw, gh)
	defer g.Release()
	xs := randomState(gw*gh, 1)
	ps := randomState(gw*gh, 2)
	ax, _ := g.NewArray()
	ap, _ := g.NewArray()
	if err := ax.Scatter(xs); err != nil {
		t.Fatal(err)
	}
	if err := ap.Scatter(ps); err != nil {
		t.Fatal(err)
	}
	if err := g.Map("axpy", []*darray.Array{ax, ap}, float32(0.5)); err != nil {
		t.Fatal(err)
	}
	got, err := ax.Gather()
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		want := xs[i] + float32(0.5)*ps[i]
		if got[i] != want {
			t.Fatalf("cell %d: %v, want %v", i, got[i], want)
		}
	}
}

// TestHaloTrafficIsSurfaceNotVolume is the tentpole's performance
// contract: in steady state, per-iteration traffic between the two
// daemons is the halo surface (one row each way plus framing), not the
// partition volume, and the client sends only replay delta frames.
func TestHaloTrafficIsSurfaceNotVolume(t *testing.T) {
	const gw, gh, warm, measured = 64, 64, 4, 16
	w := newWorld(t, simnet.Unlimited(), "node0", "node1")
	g, _ := w.grid(t, jacobiSrc, gw, gh)
	defer g.Release()
	a, _ := g.NewArray()
	b, _ := g.NewArray()
	if err := a.Scatter(randomState(gw*gh, 3)); err != nil {
		t.Fatal(err)
	}
	loop, err := g.RecordPingPong("step", a, b, darray.Halo{Lo: 1, Hi: 1}, float32(0.2))
	if err != nil {
		t.Fatal(err)
	}
	defer loop.Release()
	if err := loop.Iterate(warm, nil); err != nil {
		t.Fatal(err)
	}

	peerBytes := func() int64 {
		var n int64
		for _, pair := range [][2]string{
			{"node0", peerOf("node1")}, {"node1", peerOf("node0")},
			{peerOf("node1"), "node0"}, {peerOf("node0"), "node1"},
		} {
			n += w.net.BytesSent(pair[0], pair[1])
		}
		return n
	}
	clientBytes := func() int64 {
		return w.net.BytesSent(clientID, "node0") + w.net.BytesSent(clientID, "node1")
	}

	p0, c0 := peerBytes(), clientBytes()
	if err := loop.Iterate(measured, nil); err != nil {
		t.Fatal(err)
	}
	peerPerIter := (peerBytes() - p0) / measured
	clientPerIter := (clientBytes() - c0) / measured

	// Surface: each iteration each daemon pulls one halo row (gw cells
	// of 4 bytes) from its neighbour. Allow generous protocol framing;
	// the point is the volume bound: a partition is gh/2 rows.
	surface := int64(2 * gw * 4)
	volume := int64(gw * gh * 4 / 2)
	if peerPerIter > 4*surface {
		t.Fatalf("steady-state peer traffic %d B/iter exceeds 4x surface (%d B): halo exchange is not O(surface)",
			peerPerIter, surface)
	}
	if peerPerIter >= volume {
		t.Fatalf("steady-state peer traffic %d B/iter is O(volume) (%d B)", peerPerIter, volume)
	}
	if peerPerIter == 0 {
		t.Fatal("no peer traffic at all: halos are not flowing over the data plane")
	}
	// Replay delta frames: a few hundred bytes per daemon per
	// iteration, never a re-send of the recorded graph or the payload.
	if clientPerIter > 2048 {
		t.Fatalf("client sends %d B/iter in steady state, want small replay delta frames", clientPerIter)
	}
	t.Logf("steady state: peer %d B/iter (surface %d), client %d B/iter", peerPerIter, surface, clientPerIter)
}

// TestSecondDaemonHalvesTheIteration is the scaling contract of the
// recorded loop: on the same grid, two daemons finish an iteration in
// about half the time one does, because each computes its half while its
// halo row travels to the neighbour. Kernel time is slept, not computed
// (device.ExecModeled: ~49 ms for the whole grid, so ~24 ms per half), so
// the verdict holds on a 1-core host; results are not checked — a modeled
// device runs sampled groups only, the bit-identity suites above run on
// real ones. A halo read that queues behind the source device's running
// kernel serializes the two daemons and reads 1.0x here.
func TestSecondDaemonHalvesTheIteration(t *testing.T) {
	const gw, gh, warm, timed = 64, 64, 2, 8
	modeled := func(name string) device.Config {
		cfg := device.TestGPU(name)
		cfg.ComputeUnits = 1
		cfg.Mode = device.ExecModeled
		cfg.InstrPerSec = 1e6
		return cfg
	}
	iterate := func(addrs ...string) time.Duration {
		w := newWorldOf(t, simnet.Unlimited(), modeled, addrs...)
		g, _ := w.grid(t, jacobiSrc, gw, gh)
		defer g.Release()
		a, _ := g.NewArray()
		b, _ := g.NewArray()
		if err := a.Scatter(randomState(gw*gh, 5)); err != nil {
			t.Fatal(err)
		}
		loop, err := g.RecordPingPong("step", a, b, darray.Halo{Lo: 1, Hi: 1}, float32(0.2))
		if err != nil {
			t.Fatal(err)
		}
		defer loop.Release()
		// Warm-up: graph registration, the kernel's cost sample, the peer
		// connections and the first halo forwards.
		if err := loop.Iterate(warm, nil); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if err := loop.Iterate(timed, nil); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	one := iterate("solo")
	two := iterate("node0", "node1")
	t.Logf("%d iterations of %dx%d: 1 daemon %v, 2 daemons %v (%.2fx)", timed, gw, gh, one, two, float64(two)/float64(one))
	if two > one*3/4 {
		t.Errorf("2 daemons took %v against %v on 1 (%.2fx), want <= 0.75x: the daemons are not computing at the same time",
			two, one, float64(two)/float64(one))
	}
}
