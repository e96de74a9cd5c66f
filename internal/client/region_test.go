package client

import (
	"testing"

	"dopencl/internal/cl"
	"dopencl/internal/device"
	"dopencl/internal/testbed"
)

// Region-coherence edge cases: the directory must split on overlapping
// sub-buffer writes, re-merge converged adjacent ranges, and stitch a
// whole-buffer read from disjoint per-daemon Modified regions without
// whole-buffer transfers. All run under -race in CI (no timing
// assertions).

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

// twoServerContext builds a 2-daemon context with one queue per daemon.
func twoServerContext(t *testing.T) (*testCluster, cl.Context, cl.Queue, cl.Queue) {
	t.Helper()
	tc := newTestCluster(t, map[string][]device.Config{
		"s0": {device.TestCPU("c0")},
		"s1": {device.TestCPU("c1")},
	})
	for _, addr := range []string{"s0", "s1"} {
		if _, err := tc.plat.ConnectServer(addr); err != nil {
			t.Fatal(err)
		}
	}
	devs, err := tc.plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := tc.plat.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := ctx.Release(); err != nil {
			_ = err
		}
	})
	q0, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	q1, err := ctx.CreateQueue(devs[1])
	if err != nil {
		t.Fatal(err)
	}
	return tc, ctx, q0, q1
}

// TestOverlappingSubBufferWrites: two overlapping sub-buffer views
// written through different daemons. The overlap must hold the later
// write's bytes, the exclusive ranges each writer's, and the directory
// must track exactly the surviving regions.
func TestOverlappingSubBufferWrites(t *testing.T) {
	const size = 1024
	_, ctx, q0, q1 := twoServerContext(t)
	buf, err := ctx.CreateBuffer(cl.MemReadWrite, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	subA, err := buf.CreateSubBuffer(0, 640) // [0, 640)
	if err != nil {
		t.Fatal(err)
	}
	subB, err := buf.CreateSubBuffer(384, 640) // [384, 1024)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := pattern(640, 1), pattern(640, 101)
	if _, err := q0.EnqueueWriteBuffer(subA, true, 0, pa, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q1.EnqueueWriteBuffer(subB, true, 0, pb, nil); err != nil {
		t.Fatal(err)
	}

	// Directory: [0,384) Modified on s0; [384,1024) Modified on s1 (the
	// second write claimed the overlap).
	regions := buf.(*Buffer).RegionStates()
	if len(regions) != 2 {
		t.Fatalf("directory has %d regions, want 2: %+v", len(regions), regions)
	}
	if regions[0].Off != 0 || regions[0].End != 384 ||
		regions[0].Servers["s0"] != "M" || regions[0].Servers["s1"] != "I" {
		t.Fatalf("region 0 = %+v, want [0,384) M on s0", regions[0])
	}
	if regions[1].Off != 384 || regions[1].End != 1024 ||
		regions[1].Servers["s1"] != "M" || regions[1].Servers["s0"] != "I" {
		t.Fatalf("region 1 = %+v, want [384,1024) M on s1", regions[1])
	}

	out := make([]byte, size)
	if _, err := q0.EnqueueReadBuffer(buf, true, 0, out, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 384; i++ {
		if out[i] != pa[i] {
			t.Fatalf("byte %d = %d, want writer A's %d", i, out[i], pa[i])
		}
	}
	for i := 384; i < size; i++ {
		if out[i] != pb[i-384] {
			t.Fatalf("byte %d = %d, want writer B's %d (overlap must hold the later write)", i, out[i], pb[i-384])
		}
	}
}

// TestAdjacentRangeMerge: two disjoint half-buffer writes on the same
// daemon fragment the directory; once their events settle and the states
// converge, the spans must re-merge into one.
func TestAdjacentRangeMerge(t *testing.T) {
	const size = 1024
	_, ctx, q0, _ := twoServerContext(t)
	buf, err := ctx.CreateBuffer(cl.MemReadWrite, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	cb := buf.(*Buffer)
	if _, err := q0.EnqueueWriteBuffer(buf, true, 0, pattern(512, 3), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q0.EnqueueWriteBuffer(buf, true, 512, pattern(512, 7), nil); err != nil {
		t.Fatal(err)
	}
	// Both halves are Modified on s0, but the two writes' gating events
	// pinned separate spans until they settled.
	if n := cb.SpanCount(); n < 1 || n > 2 {
		t.Fatalf("directory has %d spans after two adjacent writes, want 1 or 2", n)
	}
	// A whole-buffer read leaves every copy's state uniform; the next
	// directory mutation must coalesce the spans back to one.
	out := make([]byte, size)
	if _, err := q0.EnqueueReadBuffer(buf, true, 0, out, nil); err != nil {
		t.Fatal(err)
	}
	if n := cb.SpanCount(); n != 1 {
		t.Fatalf("directory has %d spans after states converged, want 1 (adjacent-range merge): %+v",
			n, cb.RegionStates())
	}
	host, servers := cb.States()
	if host != "S" || servers["s0"] != "S" {
		t.Fatalf("post-merge states host=%s servers=%v, want uniform S on host and s0", host, servers)
	}
}

// TestWholeBufferReadAfterDisjointDaemonWrites: each daemon writes its
// own half of one buffer; a whole-buffer read must return both halves
// correctly while moving each half only from its holder — no
// daemon-to-daemon traffic and no whole-buffer transfer anywhere.
func TestWholeBufferReadAfterDisjointDaemonWrites(t *testing.T) {
	const size = 256 << 10
	tc, ctx, q0, q1 := twoServerContext(t)
	buf, err := ctx.CreateBuffer(cl.MemReadWrite, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := pattern(size/2, 9), pattern(size/2, 33)
	if _, err := q0.EnqueueWriteBuffer(buf, true, 0, lo, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q1.EnqueueWriteBuffer(buf, true, size/2, hi, nil); err != nil {
		t.Fatal(err)
	}

	c0 := tc.Net.BytesSent("s0", testClientID)
	c1 := tc.Net.BytesSent("s1", testClientID)
	peer := tc.Net.BytesSent("s0", testbed.PeerAddr("s1")) + tc.Net.BytesSent("s1", testbed.PeerAddr("s0"))
	out := make([]byte, size)
	if _, err := q0.EnqueueReadBuffer(buf, true, 0, out, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < size/2; i++ {
		if out[i] != lo[i] {
			t.Fatalf("byte %d = %d, want s0's %d", i, out[i], lo[i])
		}
	}
	for i := size / 2; i < size; i++ {
		if out[i] != hi[i-size/2] {
			t.Fatalf("byte %d = %d, want s1's %d", i, out[i], hi[i-size/2])
		}
	}
	d0 := tc.Net.BytesSent("s0", testClientID) - c0
	d1 := tc.Net.BytesSent("s1", testClientID) - c1
	half := int64(size / 2)
	for i, d := range []int64{d0, d1} {
		if d < half || d > half+(16<<10) {
			t.Fatalf("daemon s%d shipped %d bytes for the stitched read, want ~%d (its own half only)", i, d, half)
		}
	}
	if dp := tc.Net.BytesSent("s0", testbed.PeerAddr("s1")) + tc.Net.BytesSent("s1", testbed.PeerAddr("s0")) - peer; dp != 0 {
		t.Fatalf("stitched read moved %d bytes daemon-to-daemon, want 0", dp)
	}

	// The read downgraded both owners: every copy of every region Shared
	// (or invalid where a daemon never held the range).
	regions := buf.(*Buffer).RegionStates()
	for _, r := range regions {
		if r.Host != "S" {
			t.Fatalf("region %+v host not Shared after whole read", r)
		}
	}
}

// TestStitchedReadHonoursWaitList: a stitched read whose ranges are
// served from the host cache must still wait for the caller's wait-list
// events before completing — serving bytes locally does not exempt the
// read from event ordering.
func TestStitchedReadHonoursWaitList(t *testing.T) {
	_, ctx, q0, _ := twoServerContext(t)
	buf, err := ctx.CreateBuffer(cl.MemReadWrite, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	gate, err := ctx.CreateUserEvent()
	if err != nil {
		t.Fatal(err)
	}
	// Never-written buffer: the whole range is host-cache-only, so the
	// read is served without touching the network.
	dst := make([]byte, 64)
	ev, err := q0.EnqueueReadBuffer(buf, false, 0, dst, []cl.Event{gate})
	if err != nil {
		t.Fatal(err)
	}
	if st := ev.Status(); st == cl.Complete {
		t.Fatal("host-served read completed before its wait-list event")
	}
	if err := gate.SetStatus(cl.Complete); err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	// A failed wait event must fail the read, not let it settle clean.
	gate2, err := ctx.CreateUserEvent()
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := q0.EnqueueReadBuffer(buf, false, 0, dst, []cl.Event{gate2})
	if err != nil {
		t.Fatal(err)
	}
	if err := gate2.SetStatus(cl.CommandStatus(cl.InvalidOperation)); err != nil {
		t.Fatal(err)
	}
	if err := ev2.Wait(); err == nil {
		t.Fatal("read completed cleanly despite a failed wait-list event")
	}
}

// TestSubBufferBasics pins the view contract: bounds validation,
// nested-view flattening, and data visibility through parent and view.
func TestSubBufferBasics(t *testing.T) {
	_, ctx, q0, _ := twoServerContext(t)
	buf, err := ctx.CreateBuffer(cl.MemReadWrite, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][2]int{{-1, 10}, {0, 0}, {0, -4}, {200, 100}, {256, 1}} {
		if _, err := buf.CreateSubBuffer(bad[0], bad[1]); cl.CodeOf(err) != cl.InvalidValue {
			t.Fatalf("CreateSubBuffer(%d,%d): got %v, want InvalidValue", bad[0], bad[1], err)
		}
	}
	sub, err := buf.CreateSubBuffer(64, 128)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Size() != 128 {
		t.Fatalf("sub size %d, want 128", sub.Size())
	}
	nested, err := sub.CreateSubBuffer(32, 64) // [96,160) of the root
	if err != nil {
		t.Fatal(err)
	}
	if nb := nested.(*Buffer); nb.parent != buf.(*Buffer) || nb.org != 96 {
		t.Fatalf("nested view has parent=%v org=%d, want root parent org=96", nb.parent, nb.org)
	}
	// Write through the nested view; read back through the root.
	p := pattern(64, 55)
	if _, err := q0.EnqueueWriteBuffer(nested, true, 0, p, nil); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 256)
	if _, err := q0.EnqueueReadBuffer(buf, true, 0, out, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if out[96+i] != p[i] {
			t.Fatalf("root byte %d = %d, want view write %d", 96+i, out[96+i], p[i])
		}
	}
	// The untouched head of the buffer reads as zero (host-cache range).
	for i := 0; i < 96; i++ {
		if out[i] != 0 {
			t.Fatalf("unwritten byte %d = %d, want 0", i, out[i])
		}
	}
	if err := sub.Release(); err != nil {
		t.Fatalf("view release: %v", err)
	}
	if err := buf.Release(); err != nil {
		t.Fatalf("root release: %v", err)
	}
	if _, err := buf.CreateSubBuffer(0, 16); cl.CodeOf(err) != cl.InvalidMemObject {
		t.Fatalf("sub-buffer of released buffer: got %v, want InvalidMemObject", err)
	}
}
