package client

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/device"
	"dopencl/internal/protocol"
	"dopencl/internal/testbed"
)

// failSetup builds a connected 1-buffer context for the failure tests.
func failSetup(t *testing.T, tc *testCluster, addrs ...string) (cl.Context, []*Server, []cl.Queue, cl.Buffer) {
	t.Helper()
	var servers []*Server
	for _, a := range addrs {
		s, err := tc.plat.ConnectServer(a)
		if err != nil {
			t.Fatalf("connect %s: %v", a, err)
		}
		servers = append(servers, s)
	}
	devs, err := tc.plat.Devices(cl.DeviceTypeAll)
	if err != nil || len(devs) != len(addrs) {
		t.Fatalf("devices: %v %v", devs, err)
	}
	ctx, err := tc.plat.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	var queues []cl.Queue
	for _, d := range devs {
		q, err := ctx.CreateQueue(d)
		if err != nil {
			t.Fatal(err)
		}
		queues = append(queues, q)
	}
	buf, err := ctx.CreateBuffer(cl.MemReadWrite, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ctx, servers, queues, buf
}

func waitServerDown(t *testing.T, s *Server) {
	t.Helper()
	select {
	case <-s.Down():
	case <-time.After(10 * time.Second):
		t.Fatal("server never noticed its connection died")
	}
}

// TestFinishBoundedAfterKill pins the satellite contract: Finish on a
// queue whose server died mid-pipeline returns promptly (bounded by the
// ServerDown signal, not by some orphaned wait) and reports ServerLost.
func TestFinishBoundedAfterKill(t *testing.T) {
	tc := newTestCluster(t, map[string][]device.Config{
		"node0": {device.TestCPU("cpu0")},
	})
	_, servers, queues, buf := failSetup(t, tc, "node0")
	q := queues[0]
	// Pipeline a burst of one-way writes, then kill the daemon while they
	// are conceptually in flight.
	data := make([]byte, 256)
	for i := 0; i < 50; i++ {
		if _, err := q.EnqueueWriteBuffer(buf, false, 0, data, nil); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	tc.Kill("node0")

	done := make(chan error, 1)
	go func() { done <- q.Finish() }()
	select {
	case err := <-done:
		if cl.CodeOf(err) != cl.ServerLost {
			t.Fatalf("Finish after kill = %v, want CL_SERVER_LOST_WWU", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Finish hung after the server died")
	}
	waitServerDown(t, servers[0])
	if servers[0].Connected() {
		t.Fatal("server still reports connected")
	}
}

// TestFinishBoundedOnSilentStall: with heartbeats enabled, a silently
// stalled link (no transport error — the case that used to hang until
// the stream close was noticed, i.e. forever on a true partition) bounds
// Finish by the heartbeat timeout and reports ServerLost.
func TestFinishBoundedOnSilentStall(t *testing.T) {
	tb := testbed.StartTest(t, testbed.Spec{Nodes: map[string][]device.Config{"stall0": {device.TestCPU("cpu0")}}})
	nw := tb.Net
	plat := NewPlatform(Options{
		Dialer:            tb.Dialer(testClientID),
		ClientName:        "stall-test",
		HeartbeatInterval: 5 * time.Millisecond,
		HeartbeatTimeout:  100 * time.Millisecond,
	})
	srv, err := plat.ConnectServer("stall0")
	if err != nil {
		t.Fatal(err)
	}
	devs, _ := plat.Devices(cl.DeviceTypeAll)
	ctx, err := plat.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	buf, err := ctx.CreateBuffer(cl.MemReadWrite, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueWriteBuffer(buf, false, 0, make([]byte, 64), nil); err != nil {
		t.Fatal(err)
	}
	// Stall both directions silently: nothing errors, nothing arrives.
	nw.SetExtraDelay(testClientID, "stall0", time.Hour)
	nw.SetExtraDelay("stall0", testClientID, time.Hour)

	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- q.Finish() }()
	select {
	case err := <-done:
		if cl.CodeOf(err) != cl.ServerLost {
			t.Fatalf("Finish on stalled link = %v, want CL_SERVER_LOST_WWU", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Finish hung on a silent partition despite heartbeats")
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("Finish took %v, not bounded by the heartbeat timeout", e)
	}
	waitServerDown(t, srv)
}

// TestInFlightEventsFailWithServerLost: commands pipelined to a dying
// server fail their events with ServerLost instead of parking forever.
func TestInFlightEventsFailWithServerLost(t *testing.T) {
	tc := newTestCluster(t, map[string][]device.Config{
		"node0": {device.TestCPU("cpu0")},
	})
	ctx, servers, queues, buf := failSetup(t, tc, "node0")
	q := queues[0]
	gate, err := ctx.CreateUserEvent()
	if err != nil {
		t.Fatal(err)
	}
	// The write can never execute: it waits on a gate we never complete,
	// so its event settles only through the failure path.
	ev, err := q.EnqueueWriteBuffer(buf, false, 0, make([]byte, 256), []cl.Event{gate})
	if err != nil {
		t.Fatal(err)
	}
	tc.Kill("node0")
	waitServerDown(t, servers[0])
	done := make(chan error, 1)
	go func() { done <- ev.Wait() }()
	select {
	case werr := <-done:
		if cl.CodeOf(werr) != cl.ServerLost {
			t.Fatalf("in-flight event failed with %v, want CL_SERVER_LOST_WWU", werr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight event never settled after the server died")
	}
}

// TestLostRangeReadsFailUntilRewritten: a range whose only (Modified)
// copy died with its daemon reads back as DataLost; rewriting exactly
// re-materializes it, and only it.
func TestLostRangeReadsFailUntilRewritten(t *testing.T) {
	tc := newTestCluster(t, map[string][]device.Config{
		"node0": {device.TestCPU("cpu0")},
		"node1": {device.TestCPU("cpu1")},
	})
	_, servers, queues, buf := failSetup(t, tc, "node0", "node1")
	q0, q1 := queues[0], queues[1]
	// node0 becomes the sole Modified holder of the whole buffer.
	want := bytes.Repeat([]byte{0xAB}, 256)
	if _, err := q0.EnqueueWriteBuffer(buf, true, 0, want, nil); err != nil {
		t.Fatal(err)
	}
	tc.Kill("node0")
	waitServerDown(t, servers[0])

	cb := buf.(*Buffer)
	if lr := cb.LostRanges(); len(lr) != 1 || lr[0] != [2]int{0, 256} {
		t.Fatalf("LostRanges = %v, want [[0 256]]", lr)
	}
	dst := make([]byte, 256)
	if _, err := q1.EnqueueReadBuffer(buf, true, 0, dst, nil); cl.CodeOf(err) != cl.DataLost {
		t.Fatalf("read of lost range = %v, want CL_DATA_LOST_WWU", err)
	}
	// Rewrite only the first half: it re-materializes, the second half
	// stays lost.
	if _, err := q1.EnqueueWriteBuffer(buf, true, 0, bytes.Repeat([]byte{0xCD}, 128), nil); err != nil {
		t.Fatalf("rewrite of lost range: %v", err)
	}
	if lr := cb.LostRanges(); len(lr) != 1 || lr[0] != [2]int{128, 256} {
		t.Fatalf("LostRanges after partial rewrite = %v, want [[128 256]]", lr)
	}
	if _, err := q1.EnqueueReadBuffer(buf, true, 0, dst[:128], nil); err != nil {
		t.Fatalf("read of rewritten range: %v", err)
	}
	if !bytes.Equal(dst[:128], bytes.Repeat([]byte{0xCD}, 128)) {
		t.Fatal("rewritten range reads back wrong data")
	}
	if _, err := q1.EnqueueReadBuffer(buf, true, 128, dst[:128], nil); cl.CodeOf(err) != cl.DataLost {
		t.Fatalf("read of still-lost range = %v, want CL_DATA_LOST_WWU", err)
	}
}

// TestRehomeFromSurvivingShared: when the dead daemon's copy was Shared
// with a survivor, nothing is lost — reads transparently re-home to the
// surviving holder (the PR 2 forward plane's Shared copies pay off as
// redundancy).
func TestRehomeFromSurvivingShared(t *testing.T) {
	tc := newTestCluster(t, map[string][]device.Config{
		"node0": {device.TestCPU("cpu0")},
		"node1": {device.TestCPU("cpu1")},
	})
	ctx, servers, queues, buf := failSetup(t, tc, "node0", "node1")
	q0, q1 := queues[0], queues[1]
	want := bytes.Repeat([]byte{0x5A}, 256)
	if _, err := q0.EnqueueWriteBuffer(buf, true, 0, want, nil); err != nil {
		t.Fatal(err)
	}
	// A cross-server copy forwards node0's copy to node1: both end up
	// Shared while the host cache stays Invalid.
	buf2, err := ctx.CreateBuffer(cl.MemReadWrite, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := q1.EnqueueCopyBuffer(buf, buf2, 0, 0, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	host, srvStates := buf.(*Buffer).States()
	if host != "I" || srvStates["node0"] != "S" || srvStates["node1"] != "S" {
		t.Fatalf("pre-kill states host=%s servers=%v, want I/S/S", host, srvStates)
	}
	tc.Kill("node0")
	waitServerDown(t, servers[0])
	if lr := buf.(*Buffer).LostRanges(); len(lr) != 0 {
		t.Fatalf("ranges with a surviving Shared holder marked lost: %v", lr)
	}
	dst := make([]byte, 256)
	if _, err := q1.EnqueueReadBuffer(buf, true, 0, dst, nil); err != nil {
		t.Fatalf("re-homed read: %v", err)
	}
	if !bytes.Equal(dst, want) {
		t.Fatal("re-homed read returned wrong data")
	}
}

// TestReattachRetainedRecoversData: a connection blip against a daemon
// with session retention — after re-attach the session's objects AND the
// Modified buffer data on the daemon are intact, so ranges recorded as
// Lost are restored without any retransfer.
func TestReattachRetainedRecoversData(t *testing.T) {
	tc := newTestClusterOf(t, testbed.Spec{Peers: true, Retain: time.Minute, Nodes: map[string][]device.Config{
		"node0": {device.TestCPU("cpu0")},
	}})
	_, servers, queues, buf := failSetup(t, tc, "node0")
	q, srv := queues[0], servers[0]
	want := bytes.Repeat([]byte{0x7E}, 256)
	if _, err := q.EnqueueWriteBuffer(buf, true, 0, want, nil); err != nil {
		t.Fatal(err)
	}
	// Blip the control link; the daemon keeps the session.
	tc.Net.Sever(testClientID, "node0")
	waitServerDown(t, srv)
	cb := buf.(*Buffer)
	if lr := cb.LostRanges(); len(lr) != 1 {
		t.Fatalf("LostRanges after blip = %v, want the whole buffer", lr)
	}
	// The daemon notices the dead connection on its own goroutines; give
	// the detach a moment rather than asserting instantly.
	waitFor(t, func() bool { return tc.Daemon("node0").RetainedSessions() == 1 }, "session detach")
	tc.Net.Heal(testClientID, "node0")
	retained, err := srv.Reattach()
	if err != nil {
		t.Fatalf("reattach: %v", err)
	}
	if !retained {
		t.Fatal("daemon with retention did not retain the session")
	}
	if lr := cb.LostRanges(); len(lr) != 0 {
		t.Fatalf("lost ranges not restored by retained reattach: %v", lr)
	}
	dst := make([]byte, 256)
	if _, err := q.EnqueueReadBuffer(buf, true, 0, dst, nil); err != nil {
		t.Fatalf("read after retained reattach: %v", err)
	}
	if !bytes.Equal(dst, want) {
		t.Fatal("retained reattach returned wrong buffer data")
	}
	if err := q.Finish(); err != nil {
		t.Fatalf("finish after reattach: %v", err)
	}
}

// TestLateRollback: the rollback of a command's claim runs late — after
// the link blipped and the session was re-attached, retained. A command
// that died with its connection (its event failed with ServerLost) is not
// rolled back: its claim stands, the range is the server's like every copy
// the retained session kept, and nothing reads as Lost. A command the
// daemon reported failed is rolled back whenever that runs: the copy it
// may have scribbled on is dropped, and the range, whose only copy it
// was, stays Lost across the next retained re-attach too. The first half
// depends on claim.rollback's `cl.ErrorCode(st) == cl.ServerLost` return:
// without it the range reads Lost. The second half failed while a sweep
// and a restore kept the loss: the restore brought the failed claim back.
func TestLateRollback(t *testing.T) {
	tc := newTestClusterOf(t, testbed.Spec{Retain: time.Minute, Nodes: map[string][]device.Config{
		"node0": {device.TestCPU("cpu0")},
	}})
	ctx, servers, queues, buf := failSetup(t, tc, "node0")
	q, srv, cb := queues[0], servers[0], buf.(*Buffer)
	if _, err := q.EnqueueWriteBuffer(buf, true, 0, bytes.Repeat([]byte{0x3C}, 256), nil); err != nil {
		t.Fatal(err)
	}
	blip := func() {
		t.Helper()
		tc.Net.Sever(testClientID, "node0")
		waitServerDown(t, srv)
		waitFor(t, func() bool { return tc.Daemon("node0").RetainedSessions() == 1 }, "session detach")
		tc.Net.Heal(testClientID, "node0")
		if retained, err := srv.Reattach(); err != nil || !retained {
			t.Fatalf("reattach: retained=%v, %v", retained, err)
		}
	}
	claim := func() *Event {
		ev := newRemoteEvent(ctx.(*Context), srv, tc.plat.newID())
		cb.markRangeWrittenBy(srv, 0, 128, ev)
		return ev
	}

	died := claim()
	blip()
	died.complete(cl.CommandStatus(cl.ServerLost))
	if lr := cb.LostRanges(); len(lr) != 0 {
		t.Fatalf("after the late rollback of a command lost with its link: LostRanges = %v, want none", lr)
	}
	if _, servers := cb.States(); servers["node0"] != "M" {
		t.Fatalf("after the late rollback of a command lost with its link: node0 = %s, want M", servers["node0"])
	}

	failed := claim()
	blip()
	failed.complete(cl.CommandStatus(cl.InvalidOperation))
	for _, when := range []string{"after the late rollback of a failed command", "after one more retained re-attach"} {
		if lr := cb.LostRanges(); len(lr) != 1 || lr[0] != [2]int{0, 128} {
			t.Fatalf("%s: LostRanges = %v, want [[0 128]]", when, lr)
		}
		if _, err := q.EnqueueReadBuffer(buf, true, 0, make([]byte, 256), nil); cl.CodeOf(err) != cl.DataLost {
			t.Fatalf("%s: read = %v, want DataLost", when, err)
		}
		blip()
	}
}

// TestDownWaitsForDirectoryEffectsOnly: Down closes once the directory
// effects of every event in flight on the dead connection have run — the
// revocation of a transfer that died with the link included — and not
// later: a failed event's callback that waits for Down does not hang. A
// re-attach waits for Down, so it cannot make the server's copies count
// again while an optimistic copy the connection never finished is still
// standing. It depends on onClose's `h.ev.settle(...)` line.
func TestDownWaitsForDirectoryEffectsOnly(t *testing.T) {
	tc := newTestCluster(t, map[string][]device.Config{"node0": {device.TestCPU("cpu0")}})
	srv, err := tc.plat.ConnectServer("node0")
	if err != nil {
		t.Fatal(err)
	}
	ev := newRemoteEvent(nil, srv, tc.plat.newID())
	var settled atomic.Bool
	ev.settleWith(func(st cl.CommandStatus) {
		time.Sleep(20 * time.Millisecond)
		settled.Store(cl.ErrorCode(st) == cl.ServerLost)
	})
	sawDown := make(chan struct{})
	if err := ev.SetCallback(cl.Complete, func(cl.Event, cl.CommandStatus) {
		<-srv.Down()
		close(sawDown)
	}); err != nil {
		t.Fatal(err)
	}
	srv.registerHook(ev.originID, ev, ev.complete)
	tc.Net.Sever(testClientID, "node0")
	select {
	case <-srv.Down():
	case <-time.After(10 * time.Second):
		t.Fatal("Down never closed: it waits for a failed event's callback, which waits for Down")
	}
	if !settled.Load() {
		t.Fatal("Down closed before the in-flight event's directory effect ran")
	}
	select {
	case <-sawDown:
	case <-time.After(10 * time.Second):
		t.Fatal("the failed event's callback never saw Down")
	}
}

// TestReattachUnretainedRecreatesObjects: the daemon restarted (fresh
// process, empty tables, device memory gone). Re-attach reports
// retained=false, the client re-creates its remote objects under their
// original IDs, lost data stays lost until rewritten, and the session is
// fully usable again.
func TestReattachUnretainedRecreatesObjects(t *testing.T) {
	tb := testbed.StartTest(t, testbed.Spec{Nodes: map[string][]device.Config{"r0": {device.TestCPU("cpu0")}}})
	plat := NewPlatform(Options{
		Dialer:     tb.Dialer(testClientID),
		ClientName: "reattach-test",
	})
	srv, err := plat.ConnectServer("r0")
	if err != nil {
		t.Fatal(err)
	}
	devs, _ := plat.Devices(cl.DeviceTypeAll)
	ctx, err := plat.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.CreateProgramWithSource(vaddSrc)
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
	const n = 64
	buf, err := ctx.CreateBuffer(cl.MemReadWrite, 4*n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueWriteBuffer(buf, true, 0, f32bytes(make([]float32, n)), nil); err != nil {
		t.Fatal(err)
	}

	// Crash the daemon, then boot a fresh one at the same address.
	tb.Kill("r0")
	waitServerDown(t, srv)
	epoch := srv.Epoch()
	if err := tb.Restart("r0"); err != nil {
		t.Fatal(err)
	}

	retained, err := srv.Reattach()
	if err != nil {
		t.Fatalf("reattach after restart: %v", err)
	}
	if retained {
		t.Fatal("fresh daemon claims it retained the session")
	}
	if srv.Epoch() != epoch+1 {
		t.Fatalf("epoch = %d, want %d (state loss must bump it)", srv.Epoch(), epoch+1)
	}
	// The old data is gone for good.
	if lr := buf.(*Buffer).LostRanges(); len(lr) != 1 {
		t.Fatalf("LostRanges after restart = %v, want the whole buffer", lr)
	}
	// But the re-created objects work end to end: write, kernel, read.
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i)
	}
	if _, err := q.EnqueueWriteBuffer(buf, true, 0, f32bytes(vals), nil); err != nil {
		t.Fatalf("write after unretained reattach: %v", err)
	}
	if err := k.SetArg(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(1, float32(2)); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(2, int32(n)); err != nil {
		t.Fatal(err)
	}
	ev, err := q.EnqueueNDRangeKernel(k, []int{n}, nil, nil)
	if err != nil {
		t.Fatalf("kernel after unretained reattach: %v", err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatalf("kernel wait: %v", err)
	}
	out := make([]byte, 4*n)
	if _, err := q.EnqueueReadBuffer(buf, true, 0, out, nil); err != nil {
		t.Fatalf("read after unretained reattach: %v", err)
	}
	for i, v := range bytesF32(out) {
		if v != vals[i]*2 {
			t.Fatalf("out[%d] = %v, want %v", i, v, vals[i]*2)
		}
	}
	if err := q.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
}

// TestSessionRetentionExpires: an unclaimed detached session retires
// after the retention window (resources released, lease reported).
func TestSessionRetentionExpires(t *testing.T) {
	tc := newTestClusterOf(t, testbed.Spec{Peers: true, Retain: 50 * time.Millisecond, Nodes: map[string][]device.Config{
		"node0": {device.TestCPU("cpu0")},
	}})
	_, _, queues, buf := failSetup(t, tc, "node0")
	if _, err := queues[0].EnqueueWriteBuffer(buf, true, 0, make([]byte, 256), nil); err != nil {
		t.Fatal(err)
	}
	tc.Net.Sever(testClientID, "node0")
	d := tc.Daemon("node0")
	waitFor(t, func() bool { return d.RetainedSessions() == 1 }, "session detach")
	waitFor(t, func() bool { return d.RetainedSessions() == 0 }, "session expiry")
}

// requestTap counts the request-class frames a client writes on a link:
// gcf frames a control message as stream 0, its length, then the
// protocol envelope.
type requestTap struct {
	net.Conn
	held     []byte
	requests *atomic.Int64
}

func (c *requestTap) Write(b []byte) (int, error) {
	c.held = append(c.held, b...)
	for len(c.held) >= 8 {
		n := int(binary.LittleEndian.Uint32(c.held[4:]))
		if len(c.held) < 8+n {
			break
		}
		if binary.LittleEndian.Uint32(c.held) == 0 {
			if env, err := protocol.ParseEnvelope(c.held[8 : 8+n]); err == nil && env.Class == protocol.ClassRequest {
				c.requests.Add(1)
			}
		}
		c.held = c.held[8+n:]
	}
	return c.Conn.Write(b)
}

// TestReattachConfirmsWithOneRoundTrip: re-attach recovery re-sends a
// context's objects one-way and confirms them all with one request, so a
// re-attach costs two round trips — the resuming Hello and the
// confirmation — retained or not, however many objects the context holds.
// (Recovery used to ask for each object: 20 round trips for this context.)
func TestReattachConfirmsWithOneRoundTrip(t *testing.T) {
	tb := testbed.StartTest(t, testbed.Spec{Retain: time.Minute, Nodes: map[string][]device.Config{"node0": {device.TestCPU("cpu0")}}})
	var requests atomic.Int64
	dial := tb.Dialer(testClientID)
	plat := NewPlatform(Options{ClientName: "round-trips", Dialer: func(addr string) (net.Conn, error) {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		return &requestTap{Conn: c, requests: &requests}, nil
	}})
	t.Cleanup(plat.Close)
	srv, err := plat.ConnectServer("node0")
	if err != nil {
		t.Fatal(err)
	}
	devs, _ := plat.Devices(cl.DeviceTypeAll)
	ctx, err := plat.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	var bufs []cl.Buffer
	for range 3 {
		b, err := ctx.CreateBuffer(cl.MemReadWrite, 256, nil)
		if err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, b)
	}
	var progs []cl.Program
	for range 2 {
		p, err := ctx.CreateProgramWithSource(vaddSrc)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Build(nil, ""); err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	var queues []cl.Queue
	for range 2 {
		q, err := ctx.CreateQueue(devs[0])
		if err != nil {
			t.Fatal(err)
		}
		queues = append(queues, q)
	}
	for i, k := range []struct {
		prog int
		name string
		args []any
	}{
		{0, "scale", []any{bufs[0], float32(2)}},
		{1, "scale", []any{bufs[1], float32(3)}},
		{0, "vadd", []any{bufs[2], bufs[0]}},
	} {
		kern, err := progs[k.prog].CreateKernel(k.name)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range k.args {
			if err := kern.SetArg(j, v); err != nil {
				t.Fatalf("kernel %d arg %d: %v", i, j, err)
			}
		}
	}
	if err := queues[1].Finish(); err != nil {
		t.Fatal(err)
	}
	reattach := func(what string, wantRetained bool) {
		t.Helper()
		requests.Store(0)
		retained, err := srv.Reattach()
		if err != nil || retained != wantRetained {
			t.Fatalf("%s re-attach: retained=%v, %v; want retained=%v", what, retained, err, wantRetained)
		}
		if n := requests.Load(); n != 2 {
			t.Errorf("%s re-attach cost %d round trips, want 2", what, n)
		}
		for _, q := range queues {
			if err := q.Finish(); err != nil {
				t.Fatalf("finish after the %s re-attach: %v", what, err)
			}
		}
	}
	tb.Sever(testClientID, "node0")
	waitServerDown(t, srv)
	waitFor(t, func() bool { return tb.Daemon("node0").RetainedSessions() == 1 }, "session detach")
	tb.Heal(testClientID, "node0")
	reattach("retained", true)
	tb.Kill("node0")
	waitServerDown(t, srv)
	if err := tb.Restart("node0"); err != nil {
		t.Fatal(err)
	}
	reattach("unretained", false)
}
