package client

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"dopencl/internal/cl"
	"dopencl/internal/device"
	"dopencl/internal/simnet"
	"dopencl/internal/testbed"
)

// TestMSIRandomOperationSequences property-tests the coherence protocol:
// random sequences of writes, reads and kernel launches across three
// servers must (a) never violate the MSI invariants and (b) always return
// the data a sequentially consistent reference would.
func TestMSIRandomOperationSequences(t *testing.T) {
	tc := newTestCluster(t, map[string][]device.Config{
		"s0": {device.TestCPU("c0")},
		"s1": {device.TestCPU("c1")},
		"s2": {device.TestCPU("c2")},
	})
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
		q, err := ctx.CreateQueue(d)
		if err != nil {
			t.Fatal(err)
		}
		queues[i] = q
	}
	prog, err := ctx.CreateProgramWithSource(`
kernel void bump(global int* data, int n) {
	int i = get_global_id(0);
	if (i < n) { data[i] = data[i] + 1; }
}`)
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

	const n = 16
	checkInvariant := func(b *Buffer) bool {
		host, servers := b.States()
		modified := 0
		valid := 0
		if host == "M" {
			modified++
		}
		if host != "I" {
			valid++
		}
		for _, st := range servers {
			if st == "M" {
				modified++
			}
			if st != "I" {
				valid++
			}
		}
		// At most one Modified copy; if one exists, nothing else valid.
		if modified > 1 {
			return false
		}
		if modified == 1 && valid != 1 {
			return false
		}
		return true
	}

	f := func(ops []uint8) bool {
		buf, err := ctx.CreateBuffer(cl.MemReadWrite, 4*n, nil)
		if err != nil {
			return false
		}
		cb := buf.(*Buffer)
		ref := make([]int32, n) // sequential reference model

		for step, op := range ops {
			if step > 12 {
				break // bound runtime
			}
			q := queues[int(op)%len(queues)]
			switch (op / 4) % 3 {
			case 0: // host write through a random server
				data := make([]byte, 4*n)
				for i := range ref {
					ref[i] = int32(step*100 + i)
					binary.LittleEndian.PutUint32(data[4*i:], uint32(ref[i]))
				}
				if _, err := q.EnqueueWriteBuffer(buf, true, 0, data, nil); err != nil {
					return false
				}
			case 1: // kernel increment on a random server
				if err := k.SetArg(0, buf); err != nil {
					return false
				}
				if err := k.SetArg(1, int32(n)); err != nil {
					return false
				}
				ev, err := q.EnqueueNDRangeKernel(k, []int{n}, nil, nil)
				if err != nil {
					return false
				}
				if err := ev.Wait(); err != nil {
					return false
				}
				for i := range ref {
					ref[i]++
				}
			case 2: // host read through a random server, verify contents
				out := make([]byte, 4*n)
				if _, err := q.EnqueueReadBuffer(buf, true, 0, out, nil); err != nil {
					return false
				}
				for i := range ref {
					if int32(binary.LittleEndian.Uint32(out[4*i:])) != ref[i] {
						return false
					}
				}
			}
			if !checkInvariant(cb) {
				return false
			}
		}
		// Final read-back must match the reference regardless of where
		// the last write landed.
		out := make([]byte, 4*n)
		if _, err := queues[0].EnqueueReadBuffer(buf, true, 0, out, nil); err != nil {
			return false
		}
		for i := range ref {
			if int32(binary.LittleEndian.Uint32(out[4*i:])) != ref[i] {
				return false
			}
		}
		return buf.Release() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestForwardFailureRollsBackDirectory injects a flaky-link simnet fault
// into the peer plane: the s0→s1 bulk link dies mid-stream, so the
// forwarded payload never fully lands on s1. The MSI directory must
// revoke s1's optimistic Shared claim (a target left marked Shared would
// serve torn data), keep s0's untouched valid copy, and the next
// transfer must fall back to the client-mediated path and succeed.
func TestForwardFailureRollsBackDirectory(t *testing.T) {
	const size = 256 << 10
	tc := newTestClusterOf(t, testbed.Spec{Peers: true, Nodes: map[string][]device.Config{
		"s0": {device.TestCPU("c0")},
		"s1": {device.TestCPU("c1")},
	}})
	// The peer link s0→s1 drops after 32 KiB: every forward attempt of a
	// 256 KiB buffer fails mid-stream.
	tc.Net.SetLinkBetween("s0", testbed.PeerAddr("s1"), simnet.LinkConfig{FailAfterBytes: 32 << 10})
	s0, err := tc.plat.ConnectServer("s0")
	if err != nil {
		t.Fatal(err)
	}
	s1, err := tc.plat.ConnectServer("s1")
	if err != nil {
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
	q0, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	q1, err := ctx.CreateQueue(devs[1])
	if err != nil {
		t.Fatal(err)
	}

	buf, err := ctx.CreateBuffer(cl.MemReadWrite, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 11)
	}
	if _, err := q0.EnqueueWriteBuffer(buf, true, 0, payload, nil); err != nil {
		t.Fatal(err)
	}

	// A copy enqueued on s1 needs the source range valid on s1 (the copy
	// executes there), so the coherence layer forwards s0→s1 — and the
	// transfer dies mid-stream. The copy is gated on the forward, so it
	// must fail rather than copy torn data. (Stitched reads pull straight
	// from the holder and never need this forward, which is why the fault
	// is probed through a copy.)
	dst, err := ctx.CreateBuffer(cl.MemReadWrite, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	cev, err := q1.EnqueueCopyBuffer(buf, dst, 0, 0, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cev.Wait(); err == nil {
		host, servers := buf.(*Buffer).States()
		t.Fatalf("copy over broken peer link succeeded (host=%s servers=%v)", host, servers)
	}

	// Rollback: s1 must not be left marked Shared, and s0 keeps a valid
	// copy. The rollback races the copy's own failure by a notification
	// hop, so poll.
	waitFor(t, func() bool {
		_, servers := buf.(*Buffer).States()
		return servers["s1"] == "I" && servers["s0"] != "I"
	}, "directory rollback after mid-stream forward failure")

	// The source daemon reports the broken peer, and the client falls
	// back to client-mediated transfers for this pair.
	waitFor(t, func() bool { return !s0.peerReachable(s1.PeerAddr()) }, "peer marked unreachable")

	cev, err = q1.EnqueueCopyBuffer(buf, dst, 0, 0, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cev.Wait(); err != nil {
		t.Fatalf("client-mediated fallback copy failed: %v", err)
	}
	out := make([]byte, size)
	if _, err := q1.EnqueueReadBuffer(dst, true, 0, out, nil); err != nil {
		t.Fatalf("fallback read failed: %v", err)
	}
	for i := range payload {
		if out[i] != payload[i] {
			t.Fatalf("fallback byte %d = %d, want %d", i, out[i], payload[i])
		}
	}
}
