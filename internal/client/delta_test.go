package client

// End-to-end tests for delta-encoded graph replay payloads: an
// OSEM-style loop re-uploading a mutable write slot each iteration must
// ship far fewer bytes than the payloads it uploads when only a small
// span changes, and the computed results must be bit-identical to the
// same loop enqueued eagerly.

import (
	"bytes"
	"testing"

	"dopencl/internal/cl"
	"dopencl/internal/device"
)

const (
	deltaLoopN     = 16384 // floats per payload (64 KiB)
	deltaLoopIters = 8
)

// runDeltaLoop runs a write→scale→read iteration deltaLoopIters times on
// a fresh context, mutating a 256-float span of the payload (at a
// shifting offset) before each one. With replay set the iteration is
// recorded once and replayed with a write-data update; otherwise every
// iteration is enqueued eagerly. It returns the concatenated read-backs
// and the client→daemon bytes shipped across the measured iterations
// (registration and warm-up excluded).
func runDeltaLoop(t *testing.T, tc *testCluster, addr string, replay bool) ([]byte, int64) {
	t.Helper()
	plat := tc.plat
	if len(plat.Servers()) == 0 {
		if _, err := plat.ConnectServer(addr); err != nil {
			t.Fatal(err)
		}
	}
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := plat.CreateContext(devs[:1])
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Release()
	buf, err := ctx.CreateBuffer(cl.MemReadWrite, 4*deltaLoopN, nil)
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
	for i, v := range []any{buf, float32(2), int32(deltaLoopN)} {
		if err := k.SetArg(i, v); err != nil {
			t.Fatal(err)
		}
	}
	q, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}

	payload := make([]float32, deltaLoopN)
	for i := range payload {
		payload[i] = float32(i % 251)
	}
	// iterate enqueues one write→scale→read iteration on the queue —
	// while recording, the commands of the graph.
	iterate := func(dst []byte) cl.Event {
		wev, err := q.EnqueueWriteBuffer(buf, false, 0, f32bytes(payload), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.EnqueueNDRangeKernel(k, []int{deltaLoopN}, nil, []cl.Event{wev}); err != nil {
			t.Fatal(err)
		}
		rev, err := q.EnqueueReadBuffer(buf, false, 0, dst, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rev
	}
	var cb cl.CommandBuffer
	if replay {
		if err := q.BeginRecording(); err != nil {
			t.Fatal(err)
		}
		iterate(make([]byte, 4*deltaLoopN))
		if cb, err = q.Finalize(); err != nil {
			t.Fatal(err)
		}
		defer cb.Release()
		// Warm up: first replay (no updates) pipelines behind the
		// registration payload upload; everything after this is steady
		// state.
		ev, err := q.EnqueueCommandBuffer(cb, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	var all []byte
	base := tc.net.BytesSent(testClientID, addr)
	for iter := 0; iter < deltaLoopIters; iter++ {
		off := (iter * 1531) % (deltaLoopN - 256)
		for i := off; i < off+256; i++ {
			payload[i] = float32(iter+1) * 0.75
		}
		dst := make([]byte, 4*deltaLoopN)
		var ev cl.Event
		if replay {
			ev, err = q.EnqueueCommandBuffer(cb, []cl.CommandUpdate{
				cl.WriteDataUpdate(0, f32bytes(payload)),
				cl.ReadDstUpdate(2, dst),
			}, nil)
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
		} else {
			ev = iterate(dst)
		}
		if err := ev.Wait(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		all = append(all, dst...)
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	return all, tc.net.BytesSent(testClientID, addr) - base
}

func TestGraphReplayDeltaEncoding(t *testing.T) {
	const addr = "nodeD"
	tc := newTestCluster(t, map[string][]device.Config{
		addr: {device.TestCPU("cpu-delta")},
	})
	deltaOut, deltaBytes := runDeltaLoop(t, tc, addr, true)
	eagerOut, eagerBytes := runDeltaLoop(t, tc, addr, false)

	if !bytes.Equal(deltaOut, eagerOut) {
		t.Fatalf("delta replay results diverge from the eager loop (%d vs %d bytes)", len(deltaOut), len(eagerOut))
	}
	// Shipped in full, each iteration's upload is the 64 KiB payload — the
	// eager loop does exactly that — where a delta iteration ships a
	// ~1 KiB changed span plus framing. Require a 4x reduction against
	// the payload bytes alone — the real ratio is ~50x, so this has a
	// wide margin without being brittle about framing overhead.
	const payloadBytes = int64(deltaLoopIters) * 4 * deltaLoopN
	if eagerBytes < payloadBytes {
		t.Fatalf("eager loop shipped %d bytes, expected at least the %d payload bytes", eagerBytes, payloadBytes)
	}
	if deltaBytes*4 > payloadBytes {
		t.Fatalf("delta loop shipped %d bytes for %d bytes of payload: expected at least a 4x reduction", deltaBytes, payloadBytes)
	}
	t.Logf("upload bytes per iteration: full=%d delta=%d (%.1fx)",
		payloadBytes/deltaLoopIters, deltaBytes/deltaLoopIters, float64(payloadBytes)/float64(deltaBytes))
}

// TestGraphReplayDeltaFallback: a payload update that rewrites every
// byte must fall back to a full frame (encoder declines) and still
// replay correctly — covering the GraphPayloadFull path.
func TestGraphReplayDeltaFallback(t *testing.T) {
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
	defer cb.Release()
	// Every float changes: EncodeDelta returns ok=false, the update
	// ships GraphPayloadFull.
	ev, err := q.EnqueueCommandBuffer(cb, []cl.CommandUpdate{
		cl.WriteDataUpdate(0, f32bytes([]float32{10, 20, 30, 40})),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	if got, want := bytesF32(out), []float32{20, 40, 60, 80}; !f32Equal(got, want) {
		t.Fatalf("fallback replay = %v, want %v", got, want)
	}
	// And an identical re-upload encodes to an empty delta, the other
	// degenerate end.
	ev, err = q.EnqueueCommandBuffer(cb, []cl.CommandUpdate{
		cl.WriteDataUpdate(0, f32bytes([]float32{10, 20, 30, 40})),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	if got, want := bytesF32(out), []float32{20, 40, 60, 80}; !f32Equal(got, want) {
		t.Fatalf("identical-payload replay = %v, want %v", got, want)
	}
}
