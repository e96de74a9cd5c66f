package client

import (
	"testing"

	"dopencl/internal/cl"
	"dopencl/internal/device"
)

// graphTestSetup builds a single-server cluster with a queue, two
// buffers and the scale kernel bound to buffer a.
func graphTestSetup(t *testing.T) (*testCluster, cl.Queue, cl.Buffer, cl.Buffer, cl.Kernel) {
	t.Helper()
	tc := newTestCluster(t, map[string][]device.Config{
		"node0": {device.TestCPU("cpu0")},
	})
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
	q, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctx.CreateBuffer(cl.MemReadWrite, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.CreateBuffer(cl.MemReadWrite, 16, nil)
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
	if err := k.SetArg(0, a); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(1, float32(2)); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(2, int32(4)); err != nil {
		t.Fatal(err)
	}
	_ = ctx
	return tc, q, a, b, k
}

// TestGraphRecordReplay records a write→kernel→copy→read iteration,
// replays it with slot updates and checks results byte-for-byte.
func TestGraphRecordReplay(t *testing.T) {
	_, q, a, b, k := graphTestSetup(t)

	input := f32bytes([]float32{1, 2, 3, 4})
	out := make([]byte, 16)
	if err := q.BeginRecording(); err != nil {
		t.Fatal(err)
	}
	wev, err := q.EnqueueWriteBuffer(a, false, 0, input, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueNDRangeKernel(k, []int{4}, nil, []cl.Event{wev}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueCopyBuffer(a, b, 0, 0, 16, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueReadBuffer(b, false, 0, out, nil); err != nil {
		t.Fatal(err)
	}
	cb, err := q.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if cb.NumCommands() != 4 {
		t.Fatalf("NumCommands = %d, want 4", cb.NumCommands())
	}

	ev, err := q.EnqueueCommandBuffer(cb, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	if got, want := bytesF32(out), []float32{2, 4, 6, 8}; !f32Equal(got, want) {
		t.Fatalf("replay 1 = %v, want %v", got, want)
	}

	// Replay with all three update kinds patched.
	out2 := make([]byte, 16)
	ev, err = q.EnqueueCommandBuffer(cb, []cl.CommandUpdate{
		cl.WriteDataUpdate(0, f32bytes([]float32{10, 20, 30, 40})),
		cl.KernelArgUpdate(1, 1, float32(3)),
		cl.ReadDstUpdate(3, out2),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	if got, want := bytesF32(out2), []float32{30, 60, 90, 120}; !f32Equal(got, want) {
		t.Fatalf("replay 2 = %v, want %v", got, want)
	}

	// Updates are persistent: replay 3 repeats them into a fresh dst.
	out3 := make([]byte, 16)
	ev, err = q.EnqueueCommandBuffer(cb, []cl.CommandUpdate{cl.ReadDstUpdate(3, out3)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	if got, want := bytesF32(out3), []float32{30, 60, 90, 120}; !f32Equal(got, want) {
		t.Fatalf("replay 3 = %v, want %v", got, want)
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := cb.Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueCommandBuffer(cb, nil, nil); cl.CodeOf(err) != cl.InvalidCommandBuffer {
		t.Fatalf("replay after release: %v", err)
	}
}

func f32Equal(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGraphCrossServerInput records a graph on server B whose input
// buffer is produced on server A: the replay's coherence revalidation
// must move the data (over the PR 2 peer forward path) before the
// replayed commands run, every time the input is re-dirtied on A.
func TestGraphCrossServerInput(t *testing.T) {
	tc := newTestCluster(t, map[string][]device.Config{
		"nodeA": {device.TestCPU("cpuA")},
		"nodeB": {device.TestCPU("cpuB")},
	})
	for _, addr := range []string{"nodeA", "nodeB"} {
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
	var devA, devB cl.Device
	for _, d := range devs {
		if d.(*Device).Server().Addr() == "nodeA" {
			devA = d
		} else {
			devB = d
		}
	}
	qA, err := ctx.CreateQueue(devA)
	if err != nil {
		t.Fatal(err)
	}
	qB, err := ctx.CreateQueue(devB)
	if err != nil {
		t.Fatal(err)
	}
	src, err := ctx.CreateBuffer(cl.MemReadWrite, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := ctx.CreateBuffer(cl.MemReadWrite, 16, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Record on B: copy src→dst, read dst back.
	out := make([]byte, 16)
	if err := qB.BeginRecording(); err != nil {
		t.Fatal(err)
	}
	if _, err := qB.EnqueueCopyBuffer(src, dst, 0, 0, 16, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := qB.EnqueueReadBuffer(dst, false, 0, out, nil); err != nil {
		t.Fatal(err)
	}
	cb, err := qB.Finalize()
	if err != nil {
		t.Fatal(err)
	}

	for round := byte(1); round <= 3; round++ {
		// Dirty src on A: its only valid copy now lives on the other
		// daemon, so B's replay needs a cross-daemon input transfer.
		payload := make([]byte, 16)
		for i := range payload {
			payload[i] = round
		}
		if _, err := qA.EnqueueWriteBuffer(src, true, 0, payload, nil); err != nil {
			t.Fatal(err)
		}
		ev, err := qB.EnqueueCommandBuffer(cb, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.Wait(); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != round {
				t.Fatalf("round %d: out[%d] = %d", round, i, v)
			}
		}
	}
	if err := qB.Finish(); err != nil {
		t.Fatal(err)
	}
	// The directory must show dst Modified on B (graph output).
	_, servers := dst.(*Buffer).States()
	if servers["nodeB"] != "M" {
		t.Fatalf("dst states = %v, want M on nodeB", servers)
	}
}

// TestGraphSteadyStateFrameCost proves the replay cost claim: after the
// first iteration, a 16-command recorded iteration costs ONE sent frame
// (the MsgExecGraph) and ONE received frame (the completion
// notification) per iteration — ≤ 2 frames per involved daemon — and
// only a few hundred bytes on the wire, where the eager pipelined path
// pays one frame per command plus payload bytes.
func TestGraphSteadyStateFrameCost(t *testing.T) {
	tc, q, a, b, k := graphTestSetup(t)
	srv := q.(*Queue).srv

	input := f32bytes([]float32{1, 2, 3, 4})
	if err := q.BeginRecording(); err != nil {
		t.Fatal(err)
	}
	// 16 commands: write, 13 kernels, copy, marker — no reads, so the
	// steady-state wire cost is pure control traffic.
	if _, err := q.EnqueueWriteBuffer(a, false, 0, input, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 13; i++ {
		if _, err := q.EnqueueNDRangeKernel(k, []int{4}, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.EnqueueCopyBuffer(a, b, 0, 0, 16, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueMarker(); err != nil {
		t.Fatal(err)
	}
	cb, err := q.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if cb.NumCommands() != 16 {
		t.Fatalf("NumCommands = %d, want 16", cb.NumCommands())
	}

	// Warm up: the first replay pays registration effects and settles
	// the coherence footprint on the server.
	ev, err := q.EnqueueCommandBuffer(cb, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}

	const iters = 10
	sent0, recv0 := srv.FrameCounts()
	bytes0 := tc.net.BytesSent(testClientID, srv.addr)
	events := make([]cl.Event, 0, iters)
	for i := 0; i < iters; i++ {
		ev, err := q.EnqueueCommandBuffer(cb, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if err := cl.WaitForEvents(events); err != nil {
		t.Fatal(err)
	}
	sent1, recv1 := srv.FrameCounts()
	bytes1 := tc.net.BytesSent(testClientID, srv.addr)
	sentPer := float64(sent1-sent0) / iters
	recvPer := float64(recv1-recv0) / iters
	bytesPer := float64(bytes1-bytes0) / iters
	t.Logf("steady state: %.1f frames sent, %.1f frames received, %.0f bytes per 16-command iteration",
		sentPer, recvPer, bytesPer)
	if sentPer > 1 {
		t.Errorf("sent %.2f frames per iteration, want ≤ 1 (one MsgExecGraph)", sentPer)
	}
	if recvPer > 1 {
		t.Errorf("received %.2f frames per iteration, want ≤ 1 (one completion)", recvPer)
	}
	if bytesPer > 512 {
		t.Errorf("client link carried %.0f bytes per iteration, want ≤ 512", bytesPer)
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestGraphUpdatesReachEveryDaemon: updates are persistent in the plan,
// but a replay carries them only to the daemon it runs on. A daemon that
// registered the graph earlier must not replay its own, older copy: not
// with no update at all (it would run the recorded payload), not with a
// small write update (the delta is coded against the plan's payload, the
// daemon would apply it to the recorded one — same length, no error,
// wrong bytes), not after a kernel-argument update.
func TestGraphUpdatesReachEveryDaemon(t *testing.T) {
	recorded := []float32{1, 2, 3, 4}
	d7 := []float32{7, 70, 700, 7000}
	d8 := []float32{7, 70, 700, 8000} // one float from d7: ships as a delta
	for _, tc := range []struct {
		name    string
		onB     []cl.CommandUpdate // carried by the replay on daemon B
		backOnA []cl.CommandUpdate // carried by the replay on daemon A after it
		want    []float32
	}{
		{"no-update", []cl.CommandUpdate{cl.WriteDataUpdate(0, f32bytes(d7))}, nil, []float32{14, 140, 1400, 14000}},
		{"write-data", []cl.CommandUpdate{cl.WriteDataUpdate(0, f32bytes(d7))}, []cl.CommandUpdate{cl.WriteDataUpdate(0, f32bytes(d8))}, []float32{14, 140, 1400, 16000}},
		{"kernel-arg", []cl.CommandUpdate{cl.KernelArgUpdate(1, 1, float32(3))}, nil, []float32{3, 6, 9, 12}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cluster := newTestCluster(t, map[string][]device.Config{
				"nodeA": {device.TestCPU("cpuA")},
				"nodeB": {device.TestCPU("cpuB")},
			})
			for _, addr := range []string{"nodeA", "nodeB"} {
				if _, err := cluster.plat.ConnectServer(addr); err != nil {
					t.Fatal(err)
				}
			}
			devs, err := cluster.plat.Devices(cl.DeviceTypeAll)
			if err != nil {
				t.Fatal(err)
			}
			ctx, err := cluster.plat.CreateContext(devs)
			if err != nil {
				t.Fatal(err)
			}
			queues := map[string]cl.Queue{}
			for _, d := range devs {
				if queues[d.(*Device).Server().Addr()], err = ctx.CreateQueue(d); err != nil {
					t.Fatal(err)
				}
			}
			qA, qB := queues["nodeA"], queues["nodeB"]
			a, err := ctx.CreateBuffer(cl.MemReadWrite, 16, nil)
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
			for i, v := range []any{a, float32(2), int32(4)} {
				if err := k.SetArg(i, v); err != nil {
					t.Fatal(err)
				}
			}

			out := make([]byte, 16)
			if err := qA.BeginRecording(); err != nil {
				t.Fatal(err)
			}
			if _, err := qA.EnqueueWriteBuffer(a, false, 0, f32bytes(recorded), nil); err != nil {
				t.Fatal(err)
			}
			if _, err := qA.EnqueueNDRangeKernel(k, []int{4}, nil, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := qA.EnqueueReadBuffer(a, false, 0, out, nil); err != nil {
				t.Fatal(err)
			}
			cb, err := qA.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			replay := func(q cl.Queue, updates []cl.CommandUpdate) []float32 {
				t.Helper()
				ev, err := q.EnqueueCommandBuffer(cb, updates, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := ev.Wait(); err != nil {
					t.Fatal(err)
				}
				return bytesF32(out)
			}
			if got, want := replay(qA, nil), []float32{2, 4, 6, 8}; !f32Equal(got, want) {
				t.Fatalf("first replay on A = %v, want %v", got, want)
			}
			replay(qB, tc.onB)
			if got := replay(qA, tc.backOnA); !f32Equal(got, tc.want) {
				t.Fatalf("replay on A after an update on B = %v, want %v", got, tc.want)
			}
			// And B is behind A now, if A's replay carried an update.
			if got := replay(qB, nil); !f32Equal(got, tc.want) {
				t.Fatalf("replay on B after that = %v, want %v", got, tc.want)
			}
			for _, q := range []cl.Queue{qA, qB} {
				if err := q.Finish(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
