package client

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/device"
	"dopencl/internal/protocol"
	"dopencl/internal/simnet"
	"dopencl/internal/testbed"
)

// TestPipelinedEnqueueLatency asserts the headline property of the
// fire-and-forget command path (Section III-B): M non-blocking enqueues
// followed by one Finish cost ~1 round trip plus service time, not M
// round trips. Over a link with one-way latency L, the old blocking path
// needed M·2L; the pipeline must stay well under that.
func TestPipelinedEnqueueLatency(t *testing.T) {
	if raceEnabled {
		t.Skip("timing assertion unreliable under the race detector")
	}
	const oneWayLatency = 2 * time.Millisecond
	tc := newTestClusterOf(t, testbed.Spec{Link: simnet.LinkConfig{LatencySec: oneWayLatency.Seconds()}, Peers: true, Nodes: map[string][]device.Config{"node0": {device.TestCPU("cpu0")}}})
	if _, err := tc.plat.ConnectServer("node0"); err != nil {
		t.Fatal(err)
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
	q, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}

	const m = 100
	start := time.Now()
	events := make([]cl.Event, 0, m)
	for i := 0; i < m; i++ {
		ev, err := q.EnqueueMarker()
		if err != nil {
			t.Fatalf("marker %d: %v", i, err)
		}
		events = append(events, ev)
	}
	if err := q.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	elapsed := time.Since(start)

	serial := m * 2 * oneWayLatency // what M blocking round trips would cost
	budget := serial / 4
	if elapsed > budget {
		t.Fatalf("%d enqueues + Finish took %v; want < %v (serial round trips would be %v) — enqueue path is not pipelined", m, elapsed, budget, serial)
	}
	t.Logf("%d enqueues + Finish: %v (serial lower bound %v)", m, elapsed, serial)
	for i, ev := range events {
		if st := ev.Status(); st != cl.Complete {
			t.Fatalf("event %d status = %v after Finish", i, st)
		}
	}
}

// TestDeferredFailureFailsEventAndFinish drives the daemon's deferred
// error path directly: a one-way command against an unknown queue must
// come back as a MsgCommandFailed notification that (a) fails the
// command's event hook and (b) is surfaced by queue-level takeQueueError.
func TestDeferredFailureFailsEventAndFinish(t *testing.T) {
	tc := newTestCluster(t, map[string][]device.Config{"node0": {device.TestCPU("cpu0")}})
	srv, err := tc.plat.ConnectServer("node0")
	if err != nil {
		t.Fatal(err)
	}
	const bogusQueue = uint64(0xdeadbeef)
	evID := tc.plat.newID()
	status := make(chan cl.CommandStatus, 1)
	srv.registerHook(evID, func(st cl.CommandStatus) { status <- st })
	if err := srv.send(protocol.MsgEnqueueMarker, func(w *protocol.Writer) {
		protocol.PutEnqueue(w, protocol.Enqueue{QueueID: bogusQueue, EventID: evID,
			Cmd: protocol.GraphCommand{Op: protocol.GraphOpMarker}})
	}); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case st := <-status:
		if st >= 0 {
			t.Fatalf("hook fired with non-failure status %v", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("failure notification never fired the event hook")
	}
	waitFor(t, func() bool { return srv.peekQueueError(bogusQueue) != nil }, "deferred queue error")
	derr := srv.takeQueueError(bogusQueue)
	if cl.CodeOf(derr) != cl.InvalidCommandQueue {
		t.Fatalf("deferred error = %v, want InvalidCommandQueue", derr)
	}
	if srv.takeQueueError(bogusQueue) != nil {
		t.Fatal("takeQueueError did not consume the deferred error")
	}
}

// TestDeferredWriteFailureRollsBackCoherence: a write whose one-way
// enqueue the daemon rejects must not leave the MSI directory pointing at
// a Modified copy that never materialized — the host's valid copy has to
// survive the failure.
func TestDeferredWriteFailureRollsBackCoherence(t *testing.T) {
	tc := newTestCluster(t, map[string][]device.Config{"node0": {device.TestCPU("cpu0")}})
	if _, err := tc.plat.ConnectServer("node0"); err != nil {
		t.Fatal(err)
	}
	devs, _ := tc.plat.Devices(cl.DeviceTypeAll)
	ctx, err := tc.plat.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Release()
	q, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	init := make([]byte, 64)
	for i := range init {
		init[i] = byte(i)
	}
	buf, err := ctx.CreateBuffer(cl.MemReadWrite|cl.MemCopyHostPtr, 64, init)
	if err != nil {
		t.Fatal(err)
	}
	// Releasing the remote queue makes the daemon reject the next
	// enqueue; the client driver doesn't know yet and fires one-way.
	if err := q.(*Queue).Release(); err != nil {
		t.Fatal(err)
	}
	ev, err := q.EnqueueWriteBuffer(buf, false, 0, make([]byte, 64), nil)
	if err != nil {
		t.Fatalf("enqueue returned synchronous error %v", err)
	}
	if werr := ev.Wait(); werr == nil {
		t.Fatal("write event completed despite released remote queue")
	}
	// The rollback must restore the host copy's validity and keep the
	// server copy Invalid (nothing was written there).
	waitFor(t, func() bool {
		host, servers := buf.(*Buffer).States()
		return host == "S" && servers["node0"] == "I"
	}, "MSI rollback after deferred write failure")
}

// TestFailedClaimRolledBackBeforeWaitersWake: a command's failure must
// undo its directory claim before anything waiting on its event runs — a
// callback, or a Wait that returns the failure and then reads the range —
// or that reader trusts the Modified copy the command never made good.
// The callback here is registered before the claim, so it runs first
// among the latch's callbacks: if the rollback were one of them, it would
// still see the claim.
func TestFailedClaimRolledBackBeforeWaitersWake(t *testing.T) {
	tc := newTestCluster(t, map[string][]device.Config{"node0": {device.TestCPU("cpu0")}})
	if _, err := tc.plat.ConnectServer("node0"); err != nil {
		t.Fatal(err)
	}
	devs, _ := tc.plat.Devices(cl.DeviceTypeAll)
	ctx, err := tc.plat.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Release()
	q, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	buf, err := ctx.CreateBuffer(cl.MemReadWrite|cl.MemCopyHostPtr, 64, make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	cb, srv := buf.(*Buffer), q.(*Queue).srv
	ev := newRemoteEvent(ctx.(*Context), srv, tc.plat.newID())
	seen := make(chan string, 1)
	if err := ev.SetCallback(cl.Complete, func(cl.Event, cl.CommandStatus) {
		host, servers := cb.States()
		seen <- "host=" + host + " node0=" + servers["node0"]
	}); err != nil {
		t.Fatal(err)
	}
	cb.markRangeWrittenBy(srv, 0, 64, ev)
	if host, servers := cb.States(); host != "I" || servers["node0"] != "M" {
		t.Fatalf("after the claim: host=%s node0=%s, want I and M", host, servers["node0"])
	}
	ev.complete(cl.CommandStatus(cl.OutOfResources))
	if got, want := <-seen, "host=S node0=I"; got != want {
		t.Fatalf("the failed event's callback saw %s, want %s (rolled back)", got, want)
	}
}

// TestTrappedKernelRollsBackItsClaim is the deferred-failure rollback of
// a command-stream launch: a mix kernel that overruns its input traps on
// the daemon, its claim on work is withdrawn, and the next read of work
// returns the bytes from before the launch.
func TestTrappedKernelRollsBackItsClaim(t *testing.T) {
	const items, inFloats = 64, 256
	tc := newTestCluster(t, map[string][]device.Config{"node0": {device.TestCPU("cpu0")}})
	if _, err := tc.plat.ConnectServer("node0"); err != nil {
		t.Fatal(err)
	}
	devs, _ := tc.plat.Devices(cl.DeviceTypeAll)
	ctx, err := tc.plat.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Release()
	q, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	in, err := ctx.CreateBuffer(cl.MemReadWrite, 4*inFloats, nil)
	if err != nil {
		t.Fatal(err)
	}
	work, err := ctx.CreateBuffer(cl.MemReadWrite, 4*items, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.CreateProgramWithSource(`
kernel void mix_trap(global float* work, const global float* in, int off, float keep) {
	int i = get_global_id(0);
	work[i] = work[i] * keep + in[off + i];
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(nil, ""); err != nil {
		t.Fatal(err)
	}
	mix := func(off int32) cl.Event {
		t.Helper()
		k, err := prog.CreateKernel("mix_trap")
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range []any{work, in, off, float32(0)} {
			if err := k.SetArg(i, v); err != nil {
				t.Fatal(err)
			}
		}
		ev, err := q.EnqueueNDRangeKernel(k, []int{items}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	input := make([]byte, 4*inFloats)
	for i := 0; i < inFloats; i++ {
		binary.LittleEndian.PutUint32(input[4*i:], math.Float32bits(float32(i+1)))
	}
	if _, err := q.EnqueueWriteBuffer(in, false, 0, input, nil); err != nil {
		t.Fatal(err)
	}
	if err := mix(0).Wait(); err != nil {
		t.Fatal(err)
	}
	prior := make([]byte, 4*items)
	if _, err := q.EnqueueReadBuffer(work, true, 0, prior, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prior, input[:4*items]) {
		t.Fatal("the first mix did not copy its input")
	}
	if err := mix(inFloats - items/2).Wait(); err == nil {
		t.Fatal("a mix that overruns its input did not fail")
	}
	if host, servers := work.(*Buffer).States(); host != "S" || servers["node0"] != "I" {
		t.Fatalf("after the trap: host=%s node0=%s, want S and I (claim withdrawn)", host, servers["node0"])
	}
	got := make([]byte, 4*items)
	if _, err := q.EnqueueReadBuffer(work, true, 0, got, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, prior) {
		t.Fatal("read after the trapped launch does not return the bytes from before it")
	}
}

// TestBarrierAfterReleaseDeferredToFinish exercises the public-API shape
// of deferred errors: a barrier enqueued on a released queue fails on the
// daemon, and the error surfaces at the next Finish, naming the barrier
// (not just the failing Finish).
func TestBarrierAfterReleaseDeferredToFinish(t *testing.T) {
	tc := newTestCluster(t, map[string][]device.Config{"node0": {device.TestCPU("cpu0")}})
	if _, err := tc.plat.ConnectServer("node0"); err != nil {
		t.Fatal(err)
	}
	devs, _ := tc.plat.Devices(cl.DeviceTypeAll)
	ctx, err := tc.plat.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Release()
	cq, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	q := cq.(*Queue)
	if err := q.Release(); err != nil {
		t.Fatal(err)
	}
	// The enqueue itself reports no error (fire-and-forget)...
	if err := q.EnqueueBarrier(); err != nil {
		t.Fatalf("EnqueueBarrier returned synchronous error %v", err)
	}
	// ...the failure arrives at the synchronization point.
	err = q.Finish()
	if err == nil {
		t.Fatal("Finish succeeded after barrier on released queue")
	}
	if !strings.Contains(err.Error(), "EnqueueBarrier") {
		t.Fatalf("Finish error = %v; want the deferred EnqueueBarrier failure", err)
	}
}
