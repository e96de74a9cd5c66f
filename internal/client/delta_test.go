package client

// End-to-end tests for delta-encoded graph replay payloads: an
// OSEM-style loop re-uploading a mutable write slot each iteration must
// ship far fewer bytes when only a small span of the payload changes,
// and the computed results must be bit-identical to full-frame replay.

import (
	"bytes"
	"net"
	"testing"

	"dopencl/internal/cl"
	"dopencl/internal/device"
	"dopencl/internal/protocol"
)

const (
	deltaLoopN     = 16384 // floats per payload (64 KiB)
	deltaLoopIters = 8
)

// runDeltaLoop records a write→scale→read graph on a fresh context and
// replays it deltaLoopIters times, mutating a 256-float span of the
// payload (at a shifting offset) before each replay. It returns the
// concatenated read-backs and the client→daemon bytes shipped across
// the measured replays (registration and warm-up excluded). With
// fullFrames set the server's negotiated CapDeltaReplay bit is cleared
// after the handshake, so the client behaves as against a daemon that
// never advertised delta replay and ships every update as a full frame.
func runDeltaLoop(t *testing.T, tc *testCluster, plat *Platform, clientID, addr string, fullFrames bool) ([]byte, int64) {
	t.Helper()
	srv, err := plat.ConnectServer(addr)
	if err != nil {
		t.Fatal(err)
	}
	if fullFrames {
		srv.mu.Lock()
		srv.caps &^= protocol.CapDeltaReplay
		srv.mu.Unlock()
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
	out := make([]byte, 4*deltaLoopN)
	if err := q.BeginRecording(); err != nil {
		t.Fatal(err)
	}
	wev, err := q.EnqueueWriteBuffer(buf, false, 0, f32bytes(payload), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueNDRangeKernel(k, []int{deltaLoopN}, nil, []cl.Event{wev}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueReadBuffer(buf, false, 0, out, nil); err != nil {
		t.Fatal(err)
	}
	cb, err := q.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Release()

	// Warm up: first replay (no updates) pipelines behind the
	// registration payload upload; everything after this is steady state.
	ev, err := q.EnqueueCommandBuffer(cb, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}

	var all []byte
	base := tc.net.BytesSent(clientID, addr)
	for iter := 0; iter < deltaLoopIters; iter++ {
		off := (iter * 1531) % (deltaLoopN - 256)
		for i := off; i < off+256; i++ {
			payload[i] = float32(iter+1) * 0.75
		}
		dst := make([]byte, 4*deltaLoopN)
		ev, err := q.EnqueueCommandBuffer(cb, []cl.CommandUpdate{
			cl.WriteDataUpdate(0, f32bytes(payload)),
			cl.ReadDstUpdate(2, dst),
		}, nil)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if err := ev.Wait(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		all = append(all, dst...)
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	return all, tc.net.BytesSent(clientID, addr) - base
}

func TestGraphReplayDeltaEncoding(t *testing.T) {
	const addr = "nodeD"
	tc := newTestCluster(t, map[string][]device.Config{
		addr: {device.TestCPU("cpu-delta")},
	})

	// Delta on (default: the daemon advertises CapDeltaReplay).
	deltaOut, deltaBytes := runDeltaLoop(t, tc, tc.plat, testClientID, addr, false)

	// Delta off: same cluster, a second client whose server lost the
	// capability bit.
	fullPlat := NewPlatform(Options{
		Dialer:     func(a string) (net.Conn, error) { return tc.net.DialFrom("client-full", a) },
		ClientName: "itest-full",
	})
	fullOut, fullBytes := runDeltaLoop(t, tc, fullPlat, "client-full", addr, true)

	if !bytes.Equal(deltaOut, fullOut) {
		t.Fatalf("delta replay results diverge from full-frame replay (%d vs %d bytes)", len(deltaOut), len(fullOut))
	}
	// Each full-frame iteration re-ships the 64 KiB payload; each delta
	// iteration ships a ~1 KiB changed span plus framing. Require a 4x
	// reduction — the real ratio is ~50x, so this has a wide margin
	// without being brittle about framing overhead.
	if fullBytes < int64(deltaLoopIters)*4*deltaLoopN {
		t.Fatalf("full-frame loop shipped %d bytes, expected at least the %d payload bytes", fullBytes, deltaLoopIters*4*deltaLoopN)
	}
	if deltaBytes*4 > fullBytes {
		t.Fatalf("delta loop shipped %d bytes vs %d full-frame: expected at least a 4x reduction", deltaBytes, fullBytes)
	}
	t.Logf("replay bytes per iteration: full=%d delta=%d (%.1fx)",
		fullBytes/deltaLoopIters, deltaBytes/deltaLoopIters, float64(fullBytes)/float64(deltaBytes))
}

// TestGraphReplayDeltaFallback: a payload update that rewrites every
// byte must fall back to a full frame (encoder declines) and still
// replay correctly — covering the GraphPayloadFull path on a
// delta-negotiated graph.
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
