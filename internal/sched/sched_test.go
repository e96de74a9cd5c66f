package sched

import (
	"encoding/binary"
	"net"
	"testing"

	"dopencl/internal/cl"
	"dopencl/internal/client"
	"dopencl/internal/daemon"
	"dopencl/internal/device"
	"dopencl/internal/native"
	"dopencl/internal/simnet"
)

// fillSource writes out[gid] = gid*3+1 for every global coordinate of the
// chunk: the partitioned-argument convention (chunk-relative indexing via
// get_global_offset) with globally-meaningful values, so a stitched
// read-back proves both the offset plumbing and the region coherence.
const fillSource = `
kernel void fill(global int* out, int n) {
	int gid = get_global_id(0);
	if (gid >= n) {
		return;
	}
	out[gid - get_global_offset(0)] = gid * 3 + 1;
}
`

func checkFilled(t *testing.T, out []byte, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		got := int32(binary.LittleEndian.Uint32(out[4*i:]))
		if want := int32(i*3 + 1); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

// nativeSetup builds a 2-device native context with queues.
func nativeSetup(t *testing.T) (cl.Context, cl.Program, []Worker, cl.Buffer, int) {
	t.Helper()
	plat := native.NewPlatform("sched-test", "test", []device.Config{
		device.TestCPU("cpu0"), device.TestCPU("cpu1"),
	})
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := plat.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.CreateProgramWithSource(fillSource)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(nil, ""); err != nil {
		t.Fatal(err)
	}
	var workers []Worker
	for _, d := range devs {
		q, err := ctx.CreateQueue(d)
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, Worker{Queue: q})
	}
	const n = 1024
	buf, err := ctx.CreateBuffer(cl.MemReadWrite, 4*n, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ctx, prog, workers, buf, n
}

func runPolicy(t *testing.T, p Policy) {
	t.Helper()
	ctx, prog, workers, buf, n := nativeSetup(t)
	defer ctx.Release()
	reports, err := Run(Launch{
		Program: prog,
		Kernel:  "fill",
		Args:    []any{nil, int32(n)},
		Parts:   []Part{{Arg: 0, Buffer: buf, BytesPerItem: 4}},
		Global:  n,
	}, workers, p)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range reports {
		total += r.Items
	}
	if total != n {
		t.Fatalf("reports cover %d items, want %d", total, n)
	}
	out := make([]byte, 4*n)
	if _, err := workers[0].Queue.EnqueueReadBuffer(buf, true, 0, out, nil); err != nil {
		t.Fatal(err)
	}
	checkFilled(t, out, n)
}

func TestStaticNative(t *testing.T)  { runPolicy(t, Static{}) }
func TestDynamicNative(t *testing.T) { runPolicy(t, Dynamic{}) }

// TestStaticWeights pins the proportional split: a 3:1 weighting gives
// the heavy worker three quarters of the range.
func TestStaticWeights(t *testing.T) {
	ctx, prog, workers, buf, n := nativeSetup(t)
	defer ctx.Release()
	workers[0].Weight = 3
	workers[1].Weight = 1
	reports, err := Run(Launch{
		Program: prog,
		Kernel:  "fill",
		Args:    []any{nil, int32(n)},
		Parts:   []Part{{Arg: 0, Buffer: buf, BytesPerItem: 4}},
		Global:  n,
	}, workers, Static{})
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].Items != 3*n/4 || reports[1].Items != n/4 {
		t.Fatalf("3:1 split gave %d/%d items, want %d/%d", reports[0].Items, reports[1].Items, 3*n/4, n/4)
	}
	if reports[0].Chunks != 1 || reports[1].Chunks != 1 {
		t.Fatalf("static policy launched %d/%d chunks, want 1/1", reports[0].Chunks, reports[1].Chunks)
	}
}

// TestDynamicCoversRangeWithChunks pins that the dynamic policy issues
// multiple chunks and covers the range exactly once.
func TestDynamicCoversRangeWithChunks(t *testing.T) {
	ctx, prog, workers, buf, n := nativeSetup(t)
	defer ctx.Release()
	reports, err := Run(Launch{
		Program: prog,
		Kernel:  "fill",
		Args:    []any{nil, int32(n)},
		Parts:   []Part{{Arg: 0, Buffer: buf, BytesPerItem: 4}},
		Global:  n,
		Local:   32,
	}, workers, Dynamic{Chunk: 64})
	if err != nil {
		t.Fatal(err)
	}
	total, chunks := 0, 0
	for _, r := range reports {
		total += r.Items
		chunks += r.Chunks
	}
	if total != n {
		t.Fatalf("chunks cover %d items, want %d", total, n)
	}
	if chunks < 2 {
		t.Fatalf("dynamic policy used %d chunks, want several", chunks)
	}
	out := make([]byte, 4*n)
	if _, err := workers[0].Queue.EnqueueReadBuffer(buf, true, 0, out, nil); err != nil {
		t.Fatal(err)
	}
	checkFilled(t, out, n)
}

// TestValidation pins the launch validation errors.
func TestValidation(t *testing.T) {
	ctx, prog, workers, buf, n := nativeSetup(t)
	defer ctx.Release()
	cases := []struct {
		name string
		l    Launch
		code cl.ErrorCode
	}{
		{"no kernel", Launch{Program: prog, Global: n}, cl.InvalidKernelName},
		{"bad global", Launch{Program: prog, Kernel: "fill", Global: 0}, cl.InvalidWorkGroupSize},
		{"indivisible local", Launch{Program: prog, Kernel: "fill", Global: n, Local: 7}, cl.InvalidWorkGroupSize},
		{"part without buffer", Launch{Program: prog, Kernel: "fill", Global: n,
			Parts: []Part{{Arg: 0, BytesPerItem: 4}}}, cl.InvalidMemObject},
		{"undersized buffer", Launch{Program: prog, Kernel: "fill", Global: 2 * n,
			Parts: []Part{{Arg: 0, Buffer: buf, BytesPerItem: 4}}}, cl.InvalidBufferSize},
	}
	for _, tc := range cases {
		if _, err := Run(tc.l, workers, Static{}); cl.CodeOf(err) != tc.code {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.code)
		}
	}
	if _, err := Run(Launch{Program: prog, Kernel: "fill", Global: n}, nil, Static{}); cl.CodeOf(err) != cl.DeviceNotFound {
		t.Fatalf("no workers: got %v, want DeviceNotFound", err)
	}
}

// TestPartitionedAcrossDaemons runs the scheduler against a real
// 2-daemon simnet cluster: each daemon computes half the range into ITS
// region of one shared buffer, and a single whole-buffer read stitches
// the halves. Simnet byte accounting proves the stitched read moved each
// half from its own daemon without any daemon-to-daemon traffic.
func TestPartitionedAcrossDaemons(t *testing.T) {
	nw := simnet.NewNetwork(simnet.Unlimited())
	for _, addr := range []string{"s0", "s1"} {
		addr := addr
		np := native.NewPlatform("native-"+addr, "test", []device.Config{device.TestCPU("cpu")})
		d, err := daemon.New(daemon.Config{
			Name: addr, Platform: np,
			PeerAddr: addr + "/peer",
			PeerDial: func(a string) (net.Conn, error) { return nw.DialFrom(addr, a) },
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := nw.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = d.Serve(l) }()
		pl, err := nw.Listen(addr + "/peer")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = d.ServePeers(pl) }()
	}
	plat := client.NewPlatform(client.Options{Dialer: nw.Dial, ClientName: "sched-test"})
	for _, addr := range []string{"s0", "s1"} {
		if _, err := plat.ConnectServer(addr); err != nil {
			t.Fatal(err)
		}
	}
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(devs) != 2 {
		t.Fatalf("got %d devices, want 2", len(devs))
	}
	ctx, err := plat.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Release()
	prog, err := ctx.CreateProgramWithSource(fillSource)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(nil, ""); err != nil {
		t.Fatal(err)
	}
	var workers []Worker
	for _, d := range devs {
		q, err := ctx.CreateQueue(d)
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, Worker{Queue: q, Weight: 1})
	}
	const n = 4096
	buf, err := ctx.CreateBuffer(cl.MemReadWrite, 4*n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Launch{
		Program: prog,
		Kernel:  "fill",
		Args:    []any{nil, int32(n)},
		Parts:   []Part{{Arg: 0, Buffer: buf, BytesPerItem: 4}},
		Global:  n,
	}, workers, Static{}); err != nil {
		t.Fatal(err)
	}

	// Each daemon must now hold Modified on its own half — the refactor's
	// signature state, impossible under the whole-buffer directory.
	regions := buf.(*client.Buffer).RegionStates()
	if len(regions) != 2 {
		t.Fatalf("directory has %d regions, want 2: %+v", len(regions), regions)
	}
	if regions[0].Servers["s0"] != "M" || regions[0].Servers["s1"] != "I" ||
		regions[1].Servers["s1"] != "M" || regions[1].Servers["s0"] != "I" {
		t.Fatalf("unexpected region states: %+v", regions)
	}

	c0, c1 := nw.BytesSent("s0", "client:s0"), nw.BytesSent("s1", "client:s1")
	peer01 := nw.BytesSent("s0", "s1/peer") + nw.BytesSent("s1", "s0/peer")
	out := make([]byte, 4*n)
	if _, err := workers[0].Queue.EnqueueReadBuffer(buf, true, 0, out, nil); err != nil {
		t.Fatal(err)
	}
	checkFilled(t, out, n)
	// The stitched read pulls each half from its holder: both daemons
	// ship ~half the buffer to the client, and no bytes cross the
	// daemon-to-daemon plane.
	d0, d1 := nw.BytesSent("s0", "client:s0")-c0, nw.BytesSent("s1", "client:s1")-c1
	half := int64(2 * n)
	for i, d := range []int64{d0, d1} {
		if d < half || d > half+4096 {
			t.Fatalf("daemon s%d shipped %d bytes for the stitched read, want ~%d (its half)", i, d, half)
		}
	}
	if dp := nw.BytesSent("s0", "s1/peer") + nw.BytesSent("s1", "s0/peer") - peer01; dp != 0 {
		t.Fatalf("stitched read moved %d bytes daemon-to-daemon, want 0", dp)
	}
}

// The reference partitions below are the inline loops the three cuts
// replaced, kept verbatim so any drift in the cuts' arithmetic shows.

// refProportional is Static's proportional bounds loop.
func refProportional(n int, weights []float64, align int) []int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	bounds := make([]int, len(weights)+1)
	acc := 0.0
	for i, w := range weights {
		acc += w
		b := int(float64(n) * acc / total)
		b = alignUp(b, align, n)
		if b < bounds[i] {
			b = bounds[i]
		}
		bounds[i+1] = b
	}
	bounds[len(weights)] = n
	return bounds
}

// refSubsets is osem's subset loop.
func refSubsets(n, subsets int) [][2]int {
	var out [][2]int
	subsetSize := (n + subsets - 1) / subsets
	for s := 0; s < subsets; s++ {
		lo := s * subsetSize
		if lo >= n {
			break
		}
		hi := lo + subsetSize
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// refRowsFor is mandelbrot's row count under row-cyclic distribution.
func refRowsFor(height, d, n int) int {
	rows := height / n
	if d < height%n {
		rows++
	}
	return rows
}

// indices lists a span's indices in order.
func indices(s Span) []int {
	var out []int
	for i := s.Lo; i < s.Hi; i += max(s.Step, 1) {
		out = append(out, i)
	}
	return out
}

// checkCovers fails unless the spans hold every index of [0, n) exactly
// once and each span's Len counts its indices.
func checkCovers(t *testing.T, what string, spans []Span, n int) {
	t.Helper()
	seen := make([]int, n)
	for _, s := range spans {
		idx := indices(s)
		if len(idx) != s.Len() {
			t.Fatalf("%s: %+v has %d indices, Len %d", what, s, len(idx), s.Len())
		}
		for _, i := range idx {
			if i < 0 || i >= n {
				t.Fatalf("%s: %+v holds %d outside [0, %d)", what, s, i, n)
			}
			seen[i]++
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("%s: index %d held %d times", what, i, c)
		}
	}
}

// TestPartitionCuts pins Split, Chunks and Cyclic to the reference
// arithmetic over a grid of sizes, part counts, weights and alignments,
// and checks that every cut covers its range exactly once.
func TestPartitionCuts(t *testing.T) {
	// Equal weights: span i starts at i*n/k, for every n ≤ 5,000, k ≤ 64.
	for k := 1; k <= 64; k++ {
		equal := make([]float64, k)
		for i := range equal {
			equal[i] = 1
		}
		for n := 0; n <= 5000; n++ {
			spans := Split(n, equal, 1)
			for i, s := range spans {
				if s.Lo != i*n/k || s.Hi != (i+1)*n/k || s.Step != 0 {
					t.Fatalf("Split(%d, %d equal, 1)[%d] = %+v, want [%d, %d)", n, k, i, s, i*n/k, (i+1)*n/k)
				}
			}
		}
	}

	// Proportional: equal, 3:1, device-spec-like (compute units × clock
	// MHz) and sign-alternating weights, unaligned and aligned to a
	// 64-item work-group.
	specs := []float64{8 * 2400, 4 * 1500, 16 * 1100, 2 * 3000, 30 * 1400}
	weightSets := map[string]func(k int) []float64{
		"equal": func(k int) []float64 {
			w := make([]float64, k)
			for i := range w {
				w[i] = 1
			}
			return w
		},
		"3:1": func(k int) []float64 {
			w := make([]float64, k)
			for i := range w {
				w[i] = float64(3 - 2*(i%2))
			}
			return w
		},
		"spec": func(k int) []float64 {
			w := make([]float64, k)
			for i := range w {
				w[i] = specs[i%len(specs)]
			}
			return w
		},
		// A negative weight is the only way a boundary can fall below
		// the one before it, which the cut must clamp.
		"2:-1": func(k int) []float64 {
			w := make([]float64, k)
			for i := range w {
				w[i] = float64(2 - 3*(i%2))
			}
			return w
		},
	}
	for name, mk := range weightSets {
		for k := 1; k <= 9; k++ {
			weights := mk(k)
			for _, align := range []int{1, 64} {
				for n := 0; n <= 2048; n += 1 + n/64 {
					spans := Split(n, weights, align)
					bounds := refProportional(n, weights, align)
					for i, s := range spans {
						if s.Lo != bounds[i] || s.Hi != bounds[i+1] {
							t.Fatalf("Split(%d, %s×%d, %d)[%d] = %+v, want [%d, %d)", n, name, k, align, i, s, bounds[i], bounds[i+1])
						}
					}
					checkCovers(t, "Split", spans, n)
				}
			}
		}
	}

	// Chunks is osem's subset loop with size ceil(n/subsets).
	for n := 0; n <= 300; n++ {
		for subsets := 1; subsets <= 20; subsets++ {
			spans := Chunks(n, (n+subsets-1)/subsets)
			want := refSubsets(n, subsets)
			if len(spans) != len(want) {
				t.Fatalf("Chunks(%d, ceil/%d): %d spans, want %d", n, subsets, len(spans), len(want))
			}
			for i, s := range spans {
				if s.Lo != want[i][0] || s.Hi != want[i][1] || s.Step != 0 {
					t.Fatalf("Chunks(%d, ceil/%d)[%d] = %+v, want %v", n, subsets, i, s, want[i])
				}
			}
			checkCovers(t, "Chunks", spans, n)
		}
	}
	if spans := Chunks(0, 0); len(spans) != 0 {
		t.Fatalf("Chunks(0, 0) = %+v, want no spans", spans)
	}

	// Cyclic is mandelbrot's row-cyclic tiles: part d holds refRowsFor rows,
	// its r-th at image row d + r*k; parts past n are empty.
	for n := 0; n < 300; n++ {
		for k := 1; k < 20; k++ {
			spans := Cyclic(n, k)
			for d, s := range spans {
				if s.Len() != refRowsFor(n, d, k) {
					t.Fatalf("Cyclic(%d, %d)[%d].Len() = %d, want %d", n, k, d, s.Len(), refRowsFor(n, d, k))
				}
				for r, row := range indices(s) {
					if row != d+r*k {
						t.Fatalf("Cyclic(%d, %d)[%d] row %d = %d, want %d", n, k, d, r, row, d+r*k)
					}
				}
				if d >= n && s.Len() != 0 {
					t.Fatalf("Cyclic(%d, %d)[%d] = %+v is not empty", n, k, d, s)
				}
			}
			checkCovers(t, "Cyclic", spans, n)
		}
	}
}
