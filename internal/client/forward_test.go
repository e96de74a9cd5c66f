package client

import (
	"math"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/device"
	"dopencl/internal/simnet"
	"dopencl/internal/testbed"
)

// controlSlack is the per-link byte budget for control traffic in the
// "payload never touches the client" assertions: commands, notifications
// and event plumbing are a few hundred bytes each, so anything beyond
// this on a client link means payload leaked onto it.
const controlSlack = 16 << 10

// TestForwardMovesPayloadOverPeerLink is the headline data-plane check:
// a cross-daemon copy of S bytes must move ~1×S over exactly one
// daemon↔daemon link while the client's links carry only control
// messages (vs ~2×S through the client in the paper's Section III-F
// design).
func TestForwardMovesPayloadOverPeerLink(t *testing.T) {
	const size = 256 << 10
	tc, ctx, _, q0, q1 := twoNodeContext(t)
	defer ctx.Release()

	src, err := ctx.CreateBuffer(cl.MemReadWrite, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := ctx.CreateBuffer(cl.MemReadWrite, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	// Setup: the initial upload necessarily crosses the client's link.
	if _, err := q0.EnqueueWriteBuffer(src, true, 0, payload, nil); err != nil {
		t.Fatal(err)
	}

	base0 := tc.Net.BytesSent(testClientID, "node0")
	base1 := tc.Net.BytesSent(testClientID, "node1")
	basePeer := tc.Net.BytesSent("node0", testbed.PeerAddr("node1"))

	// Cross-daemon copy: src is Modified on node0, the copy runs on
	// node1, so the coherence layer must move the payload node0→node1.
	ev, err := q1.EnqueueCopyBuffer(src, dst, 0, 0, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := q1.(*Queue).Finish(); err != nil {
		t.Fatal(err)
	}

	d0 := tc.Net.BytesSent(testClientID, "node0") - base0
	d1 := tc.Net.BytesSent(testClientID, "node1") - base1
	peer := tc.Net.BytesSent("node0", testbed.PeerAddr("node1")) - basePeer
	if d0 > controlSlack || d1 > controlSlack {
		t.Fatalf("client links carried payload: client→node0 %d B, client→node1 %d B (want < %d B of control)", d0, d1, controlSlack)
	}
	if peer < size {
		t.Fatalf("peer link carried %d B, want ≥ %d B (payload not forwarded)", peer, size)
	}
	if peer > size+controlSlack {
		t.Fatalf("peer link carried %d B for a %d B payload (duplicate transfer?)", peer, size)
	}

	// Correctness: the forwarded bytes are the written bytes.
	out := make([]byte, size)
	if _, err := q1.EnqueueReadBuffer(dst, true, 0, out, nil); err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		if out[i] != payload[i] {
			t.Fatalf("byte %d = %d, want %d", i, out[i], payload[i])
		}
	}
}

// threeNodeCluster builds a 3-server context with one queue per server.
func threeNodeCluster(t *testing.T, peers bool, link simnet.LinkConfig) (*testCluster, cl.Context, []cl.Queue) {
	t.Helper()
	tc := newTestClusterOf(t, testbed.Spec{Link: link, Peers: peers, Nodes: map[string][]device.Config{
		"s0": {device.TestCPU("c0")},
		"s1": {device.TestCPU("c1")},
		"s2": {device.TestCPU("c2")},
	}})
	for _, addr := range []string{"s0", "s1", "s2"} {
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
	queues := make([]cl.Queue, len(devs))
	for i, d := range devs {
		q, err := ctx.CreateQueue(d)
		if err != nil {
			t.Fatal(err)
		}
		queues[i] = q
	}
	return tc, ctx, queues
}

const bumpSrc = `
kernel void bump(global int* data, int n) {
	int i = get_global_id(0);
	if (i < n) { data[i] = data[i] + 1; }
}`

// TestThreeNodeProducerConsumerChain runs a kernel-to-kernel
// producer/consumer chain across three daemons: s0 produces, s1 and s2
// each consume the predecessor's output and bump it. After the initial
// upload, the intermediate buffers must hop daemon→daemon only — the
// client's data path stays untouched.
func TestThreeNodeProducerConsumerChain(t *testing.T) {
	const n = 16 << 10 // ints
	const size = 4 * n
	tc, ctx, queues := threeNodeCluster(t, true, simnet.Unlimited())
	defer ctx.Release()

	prog, err := ctx.CreateProgramWithSource(bumpSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(nil, ""); err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("bump")
	if err != nil {
		t.Fatal(err)
	}
	buf, err := ctx.CreateBuffer(cl.MemReadWrite, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Setup: zero-initialize on s0 (crosses the client link once).
	if _, err := queues[0].EnqueueWriteBuffer(buf, true, 0, make([]byte, size), nil); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(1, int32(n)); err != nil {
		t.Fatal(err)
	}

	var base [3]int64
	for i, addr := range []string{"s0", "s1", "s2"} {
		base[i] = tc.Net.BytesSent(testClientID, addr)
	}

	// The chain: bump on s0, then s1, then s2 — each stage consumes the
	// previous stage's output, forwarded daemon-to-daemon.
	var last cl.Event
	for _, q := range queues {
		ev, err := q.EnqueueNDRangeKernel(k, []int{n}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		last = ev
	}
	if err := last.Wait(); err != nil {
		t.Fatal(err)
	}

	for i, addr := range []string{"s0", "s1", "s2"} {
		if d := tc.Net.BytesSent(testClientID, addr) - base[i]; d > controlSlack {
			t.Fatalf("client→%s carried %d B during the chain, want control only (< %d B)", addr, d, controlSlack)
		}
	}
	for _, hop := range [][2]string{{"s0", testbed.PeerAddr("s1")}, {"s1", testbed.PeerAddr("s2")}} {
		if got := tc.Net.BytesSent(hop[0], hop[1]); got < size {
			t.Fatalf("peer hop %s→%s carried %d B, want ≥ %d B", hop[0], hop[1], got, size)
		}
	}

	// Correctness: three bumps over the zero-initialized buffer.
	out := make([]byte, size)
	if _, err := queues[2].EnqueueReadBuffer(buf, true, 0, out, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if v := int32(out[4*i]) | int32(out[4*i+1])<<8 | int32(out[4*i+2])<<16 | int32(out[4*i+3])<<24; v != 3 {
			t.Fatalf("element %d = %d, want 3", i, v)
		}
	}
}

// TestForwardFallbackWithoutPeerPlane pins the fallback: a cluster whose
// daemons have no peer plane behaves exactly as the paper's design —
// transfers route through the client and still produce correct data.
func TestForwardFallbackWithoutPeerPlane(t *testing.T) {
	const size = 64 << 10
	tc, ctx, queues := threeNodeCluster(t, false, simnet.Unlimited())
	defer ctx.Release()

	buf, err := ctx.CreateBuffer(cl.MemReadWrite, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	if _, err := queues[0].EnqueueWriteBuffer(buf, true, 0, payload, nil); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, size)
	if _, err := queues[1].EnqueueReadBuffer(buf, true, 0, out, nil); err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		if out[i] != payload[i] {
			t.Fatalf("byte %d = %d, want %d", i, out[i], payload[i])
		}
	}
	// No peer plane, no peer traffic.
	if got := tc.Net.BytesSent("s0", testbed.PeerAddr("s1")); got != 0 {
		t.Fatalf("peer link carried %d B with forwarding disabled", got)
	}
}

// TestCrossServerCopyContract pins EnqueueCopyBuffer's error contract:
// buffers that cannot legally participate in a cross-server copy fail
// with cl.InvalidMemObject instead of misbehaving silently.
func TestCrossServerCopyContract(t *testing.T) {
	_, ctx, _, _, q1 := twoNodeContext(t)
	defer ctx.Release()
	buf, err := ctx.CreateBuffer(cl.MemReadWrite, 16, nil)
	if err != nil {
		t.Fatal(err)
	}

	// A buffer of a different context is rejected.
	tc2 := newTestCluster(t, map[string][]device.Config{"other": {device.TestCPU("c")}})
	if _, err := tc2.plat.ConnectServer("other"); err != nil {
		t.Fatal(err)
	}
	devs2, err := tc2.plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		t.Fatal(err)
	}
	ctx2, err := tc2.plat.CreateContext(devs2)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx2.Release()
	foreign, err := ctx2.CreateBuffer(cl.MemReadWrite, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q1.EnqueueCopyBuffer(foreign, buf, 0, 0, 16, nil); cl.CodeOf(err) != cl.InvalidMemObject {
		t.Fatalf("foreign source buffer: got %v, want InvalidMemObject", err)
	}
	if _, err := q1.EnqueueCopyBuffer(buf, foreign, 0, 0, 16, nil); cl.CodeOf(err) != cl.InvalidMemObject {
		t.Fatalf("foreign destination buffer: got %v, want InvalidMemObject", err)
	}

	dst, err := ctx.CreateBuffer(cl.MemReadWrite, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A range outside either buffer — a negative size and offset+size
	// overflow included — is rejected before anything reaches the daemon.
	for _, bad := range [][3]int{{8, 8, -8}, {0, 8, 16}, {-1, 0, 8}, {8, 0, math.MaxInt}} {
		if _, err := q1.EnqueueCopyBuffer(buf, dst, bad[0], bad[1], bad[2], nil); cl.CodeOf(err) != cl.InvalidValue {
			t.Fatalf("copy src+%d dst+%d size %d: got %v, want InvalidValue", bad[0], bad[1], bad[2], err)
		}
	}

	// A source with no valid copy anywhere (a directory wedged by
	// failures) is rejected explicitly rather than copied as garbage.
	cb := buf.(*Buffer)
	cb.mu.Lock()
	cb.coh.ForceInvalidate(0, cb.size)
	cb.mu.Unlock()
	if _, err := q1.EnqueueCopyBuffer(buf, dst, 0, 0, 16, nil); cl.CodeOf(err) != cl.InvalidMemObject {
		t.Fatalf("source without valid copy: got %v, want InvalidMemObject", err)
	}
}

// TestInFlightForwardDoesNotClobberNewerWrite: an overwrite issued
// while a forwarded payload is still in flight toward the same server
// must win — the late-landing payload may not clobber it. The slow peer
// link keeps the forward in flight long enough for the overwrite to be
// issued first.
func TestInFlightForwardDoesNotClobberNewerWrite(t *testing.T) {
	const size = 1 << 20
	tc := newTestClusterOf(t, testbed.Spec{Peers: true, Nodes: map[string][]device.Config{
		"s0": {device.TestCPU("c0")},
		"s1": {device.TestCPU("c1")},
	}})
	// ~50 ms for the forwarded megabyte: a wide in-flight window.
	tc.Net.SetLinkBetween("s0", testbed.PeerAddr("s1"), simnet.LinkConfig{BandwidthBps: 20e6})
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
	defer ctx.Release()
	q0, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Two independent queues on s1: in-order execution on a single queue
	// would mask the race, but OpenCL allows any number of queues per
	// device and the coherence layer must stay correct across them.
	q1a, err := ctx.CreateQueue(devs[1])
	if err != nil {
		t.Fatal(err)
	}
	q1b, err := ctx.CreateQueue(devs[1])
	if err != nil {
		t.Fatal(err)
	}

	old := make([]byte, size)
	fresh := make([]byte, size)
	for i := range old {
		old[i] = 0xAA
		fresh[i] = 0x55
	}
	buf, err := ctx.CreateBuffer(cl.MemReadWrite, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q0.EnqueueWriteBuffer(buf, true, 0, old, nil); err != nil {
		t.Fatal(err)
	}
	// A non-blocking read on q1a triggers the slow forward s0→s1 at
	// enqueue time. The user event keeps the read command itself parked
	// until the racing overwrite has finished, so the only unordered
	// pair under test is the in-flight peer payload vs the overwrite.
	ue, err := ctx.CreateUserEvent()
	if err != nil {
		t.Fatal(err)
	}
	sink := make([]byte, size)
	rdEv, err := q1a.EnqueueReadBuffer(buf, false, 0, sink, []cl.Event{ue})
	if err != nil {
		t.Fatal(err)
	}
	// The full overwrite on the sibling queue q1b races the in-flight
	// forwarded payload.
	if _, err := q1b.EnqueueWriteBuffer(buf, true, 0, fresh, nil); err != nil {
		t.Fatal(err)
	}
	if err := ue.SetStatus(cl.Complete); err != nil {
		t.Fatal(err)
	}
	if err := rdEv.Wait(); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, size)
	if _, err := q1b.EnqueueReadBuffer(buf, true, 0, out, nil); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != 0x55 {
			t.Fatalf("byte %d = %#x: in-flight forward clobbered the newer write", i, out[i])
		}
	}
}

// TestRewriteOnForwardSourceWaitsForItsRead: a consumer enqueued on
// another server before a range is rewritten must see the data from
// before the rewrite. The forward feeding it reads the source's copy on
// the coherence queue, which the rewrite's app queue is not ordered with:
// the user event parks the first write so that the forward's read and the
// rewrite become runnable at the same moment.
func TestRewriteOnForwardSourceWaitsForItsRead(t *testing.T) {
	const n = 256 << 10 // ints
	const size = 4 * n
	_, ctx, _, q0, q1 := twoNodeContext(t)
	defer ctx.Release()

	prog, err := ctx.CreateProgramWithSource(`
kernel void take(global int* out, global const int* in) {
	int i = get_global_id(0);
	out[i] = in[i];
}`)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(nil, ""); err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("take")
	if err != nil {
		t.Fatal(err)
	}
	r, err := ctx.CreateBuffer(cl.MemReadWrite, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen, err := ctx.CreateBuffer(cl.MemReadWrite, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	first, second := pattern(size, 1), pattern(size, 2)

	gate, err := ctx.CreateUserEvent()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q0.EnqueueWriteBuffer(r, false, 0, first, []cl.Event{gate}); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(0, seen); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(1, r); err != nil {
		t.Fatal(err)
	}
	consumed, err := q1.EnqueueNDRangeKernel(k, []int{n}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rewritten, err := q0.EnqueueWriteBuffer(r, false, 0, second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := gate.SetStatus(cl.Complete); err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitForEvents([]cl.Event{consumed, rewritten}); err != nil {
		t.Fatal(err)
	}

	got := make([]byte, size)
	if _, err := q1.EnqueueReadBuffer(seen, true, 0, got, nil); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != first[i] {
			t.Fatalf("consumer saw byte %d = %#x, want %#x: the forward carried the rewrite's data", i, got[i], first[i])
		}
	}
	if _, err := q0.EnqueueReadBuffer(r, true, 0, got, nil); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != second[i] {
			t.Fatalf("byte %d = %#x after the rewrite, want %#x", i, got[i], second[i])
		}
	}
}

// TestForwardGateFailsWhenSourceDiesAfterHandOff: the source daemon's
// completion event only says the payload was handed to its transport. If
// the source dies with the bytes still on the wire, the target's accept
// stays parked and no daemon will ever settle the gate — the client must,
// or every command behind it waits forever.
func TestForwardGateFailsWhenSourceDiesAfterHandOff(t *testing.T) {
	const size = 64 << 10
	tc, ctx, _, q0, q1 := twoNodeContext(t)
	defer ctx.Release()
	// 2 s on the wire: the payload is still in flight when node0 dies.
	tc.Net.SetLinkBetween("node0", testbed.PeerAddr("node1"), simnet.LinkConfig{LatencySec: 2})

	buf, err := ctx.CreateBuffer(cl.MemReadWrite, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q0.EnqueueWriteBuffer(buf, true, 0, pattern(size, 3), nil); err != nil {
		t.Fatal(err)
	}
	dst, err := ctx.CreateBuffer(cl.MemReadWrite, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	copied, err := q1.EnqueueCopyBuffer(buf, dst, 0, 0, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The forward's source-side event rides node0's coherence queue:
	// once that drains, node0 has reported the hand-off.
	cohQ, err := ctx.(*Context).coherenceQueue(q0.(*Queue).srv)
	if err != nil {
		t.Fatal(err)
	}
	if err := cohQ.Finish(); err != nil {
		t.Fatal(err)
	}
	tc.Kill("node0")

	done := make(chan error, 1)
	go func() { done <- copied.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("copy behind a lost forward completed successfully")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("copy behind a lost forward never completed: the gate was not failed")
	}
}

// TestSupersededForwardNeverLands: a write on another server
// invalidates a copy whose forwarded payload is still in flight; the
// stale payload must never be committed, even though it arrives after
// fresher data has been forwarded to the same server.
func TestSupersededForwardNeverLands(t *testing.T) {
	const size = 1 << 20
	tc := newTestClusterOf(t, testbed.Spec{Peers: true, Nodes: map[string][]device.Config{
		"s0": {device.TestCPU("c0")},
		"s1": {device.TestCPU("c1")},
		"s2": {device.TestCPU("c2")},
	}})
	// Slow s0→s1 bulk link: the stale payload stays in flight (~100 ms)
	// while the rest of the cluster moves on.
	tc.Net.SetLinkBetween("s0", testbed.PeerAddr("s1"), simnet.LinkConfig{BandwidthBps: 10e6})
	for _, addr := range []string{"s0", "s1", "s2"} {
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
	defer ctx.Release()
	queues := make([]cl.Queue, len(devs))
	for i, d := range devs {
		if queues[i], err = ctx.CreateQueue(d); err != nil {
			t.Fatal(err)
		}
	}

	stale := make([]byte, size)
	fresh := make([]byte, size)
	for i := range stale {
		stale[i] = 0xAA
		fresh[i] = 0x55
	}
	// scenario runs one superseded-forward interleaving on its own
	// buffer: a read on s1 starts the slow stale forward s0→s1, a write
	// on s2 supersedes it, and every later read on s1 must see fresh
	// data. waitStale selects whether the stale transfer is allowed to
	// land before the superseding write's data is pulled (exercising the
	// host-cache generation guard) or is still in flight then
	// (exercising the daemon's newest-commit-wins cancellation).
	scenario := func(name string, waitStale bool) {
		buf, err := ctx.CreateBuffer(cl.MemReadWrite, size, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := queues[0].EnqueueWriteBuffer(buf, true, 0, stale, nil); err != nil {
			t.Fatal(err)
		}
		sink := make([]byte, size)
		rdEv, err := queues[1].EnqueueReadBuffer(buf, false, 0, sink, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Fresh data written on s2 supersedes the in-flight forward.
		if _, err := queues[2].EnqueueWriteBuffer(buf, true, 0, fresh, nil); err != nil {
			t.Fatal(err)
		}
		if waitStale {
			// Let the raced stale read finish first (it may legally
			// return the old snapshot — or an error if cancelled).
			_ = rdEv.Wait()
		}
		out := make([]byte, size)
		if _, err := queues[1].EnqueueReadBuffer(buf, true, 0, out, nil); err != nil {
			t.Fatalf("%s: fresh read: %v", name, err)
		}
		for i := range out {
			if out[i] != 0x55 {
				t.Fatalf("%s: byte %d = %#x right after supersede, want fresh 0x55", name, i, out[i])
			}
		}
		// Wait out the stale payload's arrival, then re-read s1's copy:
		// the superseded transfer must not have been committed late.
		_ = rdEv.Wait()
		time.Sleep(300 * time.Millisecond)
		if _, err := queues[1].EnqueueReadBuffer(buf, true, 0, out, nil); err != nil {
			t.Fatalf("%s: re-read: %v", name, err)
		}
		for i := range out {
			if out[i] != 0x55 {
				t.Fatalf("%s: byte %d = %#x after stale payload arrived: superseded forward landed", name, i, out[i])
			}
		}
	}
	scenario("stale-read-completes-first", true)
	scenario("stale-still-in-flight", false)
}

// TestForwardedTransferThroughputWin measures the point of the peer
// plane on a symmetric bandwidth-limited 3-node topology: a
// cross-daemon transfer of S bytes takes ~S/BW forwarded vs ~2·S/BW
// client-mediated (download + upload in sequence on the client's
// links).
func TestForwardedTransferThroughputWin(t *testing.T) {
	if raceEnabled {
		t.Skip("timing assertion unreliable under the race detector")
	}
	const size = 4 << 20
	link := simnet.LinkConfig{BandwidthBps: 400e6, LatencySec: 100e-6}

	// Best-of-3 per mode: the modeled network bounds each measurement
	// from below, so the minimum reflects the transfer path while being
	// robust against scheduler noise on a loaded test machine.
	run := func(peers bool) time.Duration {
		_, ctx, queues := threeNodeCluster(t, peers, link)
		defer ctx.Release()
		src, err := ctx.CreateBuffer(cl.MemReadWrite, size, nil)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := ctx.CreateBuffer(cl.MemReadWrite, size, nil)
		if err != nil {
			t.Fatal(err)
		}
		best := time.Duration(0)
		for i := 0; i < 3; i++ {
			// Re-dirty the source on node 0 (untimed) so each round
			// forces a fresh cross-daemon transfer.
			if _, err := queues[0].EnqueueWriteBuffer(src, true, 0, make([]byte, size), nil); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			if _, err := queues[1].EnqueueCopyBuffer(src, dst, 0, 0, size, nil); err != nil {
				t.Fatal(err)
			}
			if err := queues[1].Finish(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best
	}

	// Nominal win is 2.0x; assert with margin, and re-measure once if a
	// starved test machine distorts an entire attempt.
	var ratio float64
	for attempt := 0; attempt < 2; attempt++ {
		mediated := run(false)
		forwarded := run(true)
		ratio = float64(mediated) / float64(forwarded)
		t.Logf("cross-daemon %d MiB transfer: client-mediated %v, forwarded %v (%.2fx)", size>>20, mediated, forwarded, ratio)
		if ratio >= 1.5 {
			return
		}
	}
	t.Fatalf("forwarding win %.2fx, want ≥ 1.5x", ratio)
}
