package chaos

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"dopencl/internal/apps/mandelbrot"
	"dopencl/internal/cl"
	"dopencl/internal/device"
	"dopencl/internal/sched"
)

// TestGraphReplayFailover records a command graph on one daemon's queue,
// kills that daemon between iterations, and replays on a survivor: the
// graph must re-register lazily there and the output stay bit-identical
// to the pre-failure iterations (the recording — including cached write
// payloads — is the source of truth, not the dead daemon's cache).
func TestGraphReplayFailover(t *testing.T) {
	cluster, err := NewCluster(Options{}, map[string][]device.Config{
		"g0": {device.TestCPU("cpu-g0")},
		"g1": {device.TestCPU("cpu-g1")},
	})
	if err != nil {
		t.Fatal(err)
	}
	plat := cluster.NewPlatform(0, 0)
	s0, err := plat.ConnectServer("g0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plat.ConnectServer("g1"); err != nil {
		t.Fatal(err)
	}
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil || len(devs) != 2 {
		t.Fatalf("devices: %v %v", devs, err)
	}
	ctx, err := plat.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	q0, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	q1, err := ctx.CreateQueue(devs[1])
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.CreateProgramWithSource(scaleSrc)
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

	input := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(input[4*i:], math.Float32bits(1+float32(i)/64))
	}
	if err := k.SetArg(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(1, float32(2.0)); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(2, int32(n)); err != nil {
		t.Fatal(err)
	}

	// Record on q0 (daemon g0): upload input, scale in place, read back.
	if err := q0.BeginRecording(); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 4*n)
	if _, err := q0.EnqueueWriteBuffer(buf, false, 0, input, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q0.EnqueueNDRangeKernel(k, []int{n}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q0.EnqueueReadBuffer(buf, false, 0, dst, nil); err != nil {
		t.Fatal(err)
	}
	cb, err := q0.Finalize()
	if err != nil {
		t.Fatal(err)
	}

	replay := func(q cl.Queue) []byte {
		t.Helper()
		ev, err := q.EnqueueCommandBuffer(cb, nil, nil)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if err := ev.Wait(); err != nil {
			t.Fatalf("replay wait: %v", err)
		}
		return append([]byte(nil), dst...)
	}

	before := replay(q0)

	// Kill the graph's owning daemon between iterations.
	cluster.Kill("g0")
	select {
	case <-s0.Down():
	case <-time.After(10 * time.Second):
		t.Fatal("client never noticed g0 died")
	}

	// The next replay targets the survivor: lazy re-registration there,
	// bit-identical output.
	after := replay(q1)
	if !bytes.Equal(before, after) {
		t.Fatal("replay on the survivor differs from the pre-failure iteration")
	}
	// Steady state on the survivor: replays keep working.
	again := replay(q1)
	if !bytes.Equal(before, again) {
		t.Fatal("second survivor replay differs")
	}
	if err := q1.Finish(); err != nil {
		t.Fatalf("finish on survivor: %v", err)
	}
}

// TestPartitionedMandelbrotSurvivesKill renders one partitioned
// mandelbrot ND-range across 3 daemons and kills one of them mid-run
// (deterministically: right after that daemon completes its first
// chunk). The dynamic scheduler must re-plan — requeueing the dead
// daemon's chunks, whose results died with it — and the final image must
// be identical to a fault-free single-daemon render.
func TestPartitionedMandelbrotSurvivesKill(t *testing.T) {
	cluster, err := NewCluster(Options{}, map[string][]device.Config{
		"m0": {device.TestCPU("cpu-m0")},
		"m1": {device.TestCPU("cpu-m1")},
		"m2": {device.TestCPU("cpu-m2")},
	})
	if err != nil {
		t.Fatal(err)
	}
	plat := cluster.NewPlatform(0, 0)
	for _, addr := range cluster.Addrs() {
		if _, err := plat.ConnectServer(addr); err != nil {
			t.Fatal(err)
		}
	}
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil || len(devs) != 3 {
		t.Fatalf("devices: %v %v", devs, err)
	}
	p := mandelbrot.DefaultParams(64, 48, 32)

	// Reference: fault-free render on one daemon only.
	ref, _, _, err := mandelbrot.RenderPartitioned(plat, devs[:1], p, &sched.Dynamic{})
	if err != nil {
		t.Fatalf("reference render: %v", err)
	}

	// Chaos run: kill m2 after its device finishes its first chunk. The
	// final stitched read runs on devs[0] (m0), which survives.
	var once sync.Once
	policy := &sched.Dynamic{
		Chunk: 256, // many chunks, so plenty of work remains at the kill
		Observer: func(dev string, s, e int) {
			if strings.Contains(dev, "cpu-m2") {
				once.Do(func() {
					t.Logf("killing m2 after its chunk [%d,%d)", s, e)
					cluster.Kill("m2")
				})
			}
		},
	}
	img, _, reports, err := mandelbrot.RenderPartitioned(plat, devs, p, policy)
	if err != nil {
		t.Fatalf("render with mid-run kill: %v", err)
	}
	for i := range img {
		if img[i] != ref[i] {
			t.Fatalf("pixel %d differs after mid-run kill: %d != %d", i, img[i], ref[i])
		}
	}
	total := 0
	for _, r := range reports {
		t.Logf("%s: %d items in %d chunks", r.Device, r.Items, r.Chunks)
		total += r.Items
	}
	if total < p.Width*p.Height {
		t.Fatalf("scheduler reports only %d of %d items", total, p.Width*p.Height)
	}
}

// A link blip straight after set-up: the daemon retains the session, but
// creates are one-way, and the context and queue the client had just sent
// may have died with the link. Re-attach sends both again whatever the
// daemon says it retained (it keeps the ones it holds), so what the
// application creates and runs next finds them. (Before it did, every run
// of this ended in "CL_INVALID_CONTEXT: unknown context 1".)
func TestBlipAfterPipelinedCreate(t *testing.T) {
	for run := 0; run < 10; run++ {
		cluster, err := NewCluster(Options{SessionRetain: time.Minute}, map[string][]device.Config{
			"n0": {device.TestCPU("cpu-n0")},
		})
		if err != nil {
			t.Fatal(err)
		}
		plat := cluster.NewPlatform(0, 0)
		srv, err := plat.ConnectServer("n0")
		if err != nil {
			t.Fatal(err)
		}
		devs, err := plat.Devices(cl.DeviceTypeAll)
		if err != nil || len(devs) != 1 {
			t.Fatalf("devices: %v %v", devs, err)
		}
		ctx, err := plat.CreateContext(devs)
		if err != nil {
			t.Fatal(err)
		}
		q, err := ctx.CreateQueue(devs[0])
		if err != nil {
			t.Fatal(err)
		}
		cluster.SeverClientLink("n0")
		waitDown(t, srv)
		cluster.HealClientLink("n0")
		if retained, err := srv.Reattach(); err != nil || !retained {
			t.Fatalf("run %d: reattach after the blip: retained=%v, %v", run, retained, err)
		}
		prog, err := ctx.CreateProgramWithSource(scaleSrc)
		if err != nil {
			t.Fatal(err)
		}
		if err := prog.Build(nil, ""); err != nil {
			t.Fatalf("run %d: Build after the blip: %v", run, err)
		}
		k, err := prog.CreateKernel("scale")
		if err != nil {
			t.Fatal(err)
		}
		const n = 16
		data := make([]byte, 4*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(data[4*i:], math.Float32bits(float32(i)))
		}
		buf, err := ctx.CreateBuffer(cl.MemReadWrite, len(data), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range []any{buf, float32(2), int32(n)} {
			if err := k.SetArg(i, v); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := q.EnqueueWriteBuffer(buf, false, 0, data, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := q.EnqueueNDRangeKernel(k, []int{n}, nil, nil); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if _, err := q.EnqueueReadBuffer(buf, true, 0, got, nil); err != nil {
			t.Fatalf("run %d: read after the blip: %v", run, err)
		}
		for i := 0; i < n; i++ {
			if v := math.Float32frombits(binary.LittleEndian.Uint32(got[4*i:])); v != float32(2*i) {
				t.Fatalf("run %d: data[%d] = %v, want %v", run, i, v, 2*i)
			}
		}
		if err := q.Finish(); err != nil {
			t.Fatalf("run %d: Finish: %v", run, err)
		}
		plat.Close()
		cluster.Kill("n0")
	}
}
