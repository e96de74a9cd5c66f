// Benchmarks regenerating the paper's evaluation (Section V): one
// testing.B benchmark per figure. Each runs the corresponding experiment
// in quick mode and reports the figure's headline numbers as custom
// metrics, so `go test -bench=.` doubles as a reproduction run. Use
// cmd/dclbench for full-size runs and formatted tables.
package dopencl_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"dopencl/internal/apps/mandelbrot"
	"dopencl/internal/cl"
	"dopencl/internal/daemon"
	"dopencl/internal/device"
	"dopencl/internal/exp"
	"dopencl/internal/native"
	"dopencl/internal/sched"
	"dopencl/internal/simnet"

	"dopencl"
)

func quickOpts() exp.Options { return exp.Options{Quick: true} }

// BenchmarkFig4Mandelbrot regenerates Fig. 4: Mandelbrot on 2-16 cluster
// devices, MPI+OpenCL baseline vs dOpenCL, stacked init/exec/transfer.
func BenchmarkFig4Mandelbrot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig4(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ExecAt("dOpenCL", 2), "dcl2_exec_s")
		b.ReportMetric(res.ExecAt("dOpenCL", 16), "dcl16_exec_s")
		b.ReportMetric(res.ExecAt("MPI+OpenCL", 2), "mpi2_exec_s")
		b.ReportMetric(res.ExecAt("MPI+OpenCL", 16), "mpi16_exec_s")
	}
}

// BenchmarkFig5OSEM regenerates Fig. 5: list-mode OSEM mean iteration
// runtime — desktop GPU vs dOpenCL offload vs native server.
func BenchmarkFig5OSEM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig5(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range res.Entries {
			switch e.Config {
			case "Desktop PC using OpenCL":
				b.ReportMetric(e.MeanIteration, "desktop_s")
			case "Desktop PC using dOpenCL":
				b.ReportMetric(e.MeanIteration, "dopencl_s")
			case "Server using native OpenCL":
				b.ReportMetric(e.MeanIteration, "native_s")
			}
		}
		b.ReportMetric(res.Speedup(), "speedup_x")
	}
}

// BenchmarkFig6DeviceManager regenerates Fig. 6: 1-4 concurrent clients
// sharing a 4-GPU server, with and without the device manager.
func BenchmarkFig6DeviceManager(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig6(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range res.Entries {
			if e.Clients == 4 {
				if e.Managed {
					b.ReportMetric(e.Total(), "managed4_total_s")
				} else {
					b.ReportMetric(e.Total(), "unmanaged4_total_s")
				}
			}
			if e.Clients == 1 && e.Managed {
				b.ReportMetric(e.Total(), "managed1_total_s")
			}
		}
	}
}

// BenchmarkFig7Transfer regenerates Fig. 7: 1024 MB write/read over
// Gigabit Ethernet (dOpenCL) vs PCI Express (native).
func BenchmarkFig7Transfer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig7(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.GigEWrite, "gige_write_s")
		b.ReportMetric(res.GigERead, "gige_read_s")
		b.ReportMetric(res.PCIeWrite, "pcie_write_s")
		b.ReportMetric(res.PCIeRead, "pcie_read_s")
		b.ReportMetric(res.WriteRatio(), "write_ratio_x")
		b.ReportMetric(res.ReadRatio(), "read_ratio_x")
	}
}

// BenchmarkEnqueueThroughput measures the command rate of the pipelined
// (fire-and-forget) enqueue path: batches of non-blocking markers plus
// one Finish per batch, over a simnet link with nonzero latency. With
// blocking enqueues each command would cost a full round trip, capping
// the rate at 1/(2·latency) ≈ 5000 cmds/s on this link; the one-way
// pipeline must clear that by a wide margin.
func BenchmarkEnqueueThroughput(b *testing.B) {
	const oneWayLatency = 100e-6 // 100 µs, Gigabit-Ethernet class
	nw := simnet.NewNetwork(simnet.LinkConfig{LatencySec: oneWayLatency})
	np := native.NewPlatform("bench", "bench", []device.Config{device.TestCPU("cpu0")})
	d, err := daemon.New(daemon.Config{Name: "bench-node", Platform: np})
	if err != nil {
		b.Fatal(err)
	}
	l, err := nw.Listen("bench-node")
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		if serr := d.Serve(l); serr != nil {
			_ = serr // listener closed at benchmark end
		}
	}()
	defer l.Close()
	plat := dopencl.NewPlatform(dopencl.Options{Dialer: nw.Dial, ClientName: "bench"})
	if _, err := plat.ConnectServer("bench-node"); err != nil {
		b.Fatal(err)
	}
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := plat.CreateContext(devs)
	if err != nil {
		b.Fatal(err)
	}
	defer ctx.Release()
	q, err := ctx.CreateQueue(devs[0])
	if err != nil {
		b.Fatal(err)
	}

	const batch = 256
	b.ResetTimer()
	start := time.Now()
	commands := 0
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			ev, merr := q.EnqueueMarker()
			if merr != nil {
				b.Fatal(merr)
			}
			if rerr := ev.Release(); rerr != nil {
				b.Fatal(rerr)
			}
		}
		if ferr := q.Finish(); ferr != nil {
			b.Fatal(ferr)
		}
		commands += batch
	}
	b.StopTimer()
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(commands)/elapsed, "cmds/s")
	}
}

// BenchmarkGraphReplay measures the recorded command-graph API against
// the eager pipelined enqueue path on a Gigabit-Ethernet-class link
// (100 µs latency): the same 16-command OSEM-style iteration — one
// 64 KB subset upload, 13 kernel launches, a copy and a 64-byte
// read-back —
// is driven either as 16 one-way messages plus payload per iteration,
// or as a single MsgExecGraph frame replaying the daemon's cached
// graph. Reports iterations/s for both paths, the speedup, and the
// steady-state client→daemon frame cost per replayed iteration.
func BenchmarkGraphReplay(b *testing.B) {
	link := simnet.LinkConfig{BandwidthBps: 106e6, LatencySec: 100e-6}
	nw := simnet.NewNetwork(link)
	np := native.NewPlatform("bench", "bench", []device.Config{device.TestCPU("cpu0")})
	d, err := daemon.New(daemon.Config{Name: "bench-node", Platform: np})
	if err != nil {
		b.Fatal(err)
	}
	l, err := nw.Listen("bench-node")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = d.Serve(l) }()
	defer l.Close()
	plat := dopencl.NewPlatform(dopencl.Options{Dialer: nw.Dial, ClientName: "bench"})
	if _, err := plat.ConnectServer("bench-node"); err != nil {
		b.Fatal(err)
	}
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := plat.CreateContext(devs)
	if err != nil {
		b.Fatal(err)
	}
	defer ctx.Release()
	q, err := ctx.CreateQueue(devs[0])
	if err != nil {
		b.Fatal(err)
	}
	const bufSize = 64 << 10
	bufA, err := ctx.CreateBuffer(cl.MemReadWrite, bufSize, nil)
	if err != nil {
		b.Fatal(err)
	}
	bufB, err := ctx.CreateBuffer(cl.MemReadWrite, bufSize, nil)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := ctx.CreateProgramWithSource(`
kernel void scale(global float* data, float f, int n) {
	int i = get_global_id(0);
	if (i < n) { data[i] = data[i] * f; }
}
`)
	if err != nil {
		b.Fatal(err)
	}
	if err := prog.Build(nil, ""); err != nil {
		b.Fatal(err)
	}
	k, err := prog.CreateKernel("scale")
	if err != nil {
		b.Fatal(err)
	}
	for i, arg := range []any{bufA, float32(1.5), int32(16)} {
		if err := k.SetArg(i, arg); err != nil {
			b.Fatal(err)
		}
	}
	payload := make([]byte, bufSize)

	// One iteration, eager: 16 pipelined one-way commands.
	eagerIteration := func() {
		if _, err := q.EnqueueWriteBuffer(bufA, false, 0, payload, nil); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 13; j++ {
			if _, err := q.EnqueueNDRangeKernel(k, []int{16}, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := q.EnqueueCopyBuffer(bufA, bufB, 0, 0, bufSize, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := q.EnqueueReadBuffer(bufB, false, 0, make([]byte, 64), nil); err != nil {
			b.Fatal(err)
		}
	}

	// The same iteration, recorded once.
	if err := q.BeginRecording(); err != nil {
		b.Fatal(err)
	}
	eagerIteration() // recording intercepts the identical command stream
	cb, err := q.Finalize()
	if err != nil {
		b.Fatal(err)
	}
	if cb.NumCommands() != 16 {
		b.Fatalf("recorded %d commands, want 16", cb.NumCommands())
	}
	graphIteration := func() {
		// The 64 KB upload payload is cached daemon-side; only the read
		// destination is patched per iteration.
		if _, err := q.EnqueueCommandBuffer(cb, []cl.CommandUpdate{
			cl.ReadDstUpdate(15, make([]byte, 64)),
		}, nil); err != nil {
			b.Fatal(err)
		}
	}

	// Warm both paths (first replay settles the coherence footprint).
	eagerIteration()
	graphIteration()
	if err := q.Finish(); err != nil {
		b.Fatal(err)
	}

	const batch = 64
	srv := plat.Servers()[0]
	var eagerTime, graphTime time.Duration
	var graphFrames uint64
	iters := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		for j := 0; j < batch; j++ {
			eagerIteration()
		}
		if err := q.Finish(); err != nil {
			b.Fatal(err)
		}
		eagerTime += time.Since(start)

		sent0, _ := srv.FrameCounts()
		start = time.Now()
		for j := 0; j < batch; j++ {
			graphIteration()
		}
		if err := q.Finish(); err != nil {
			b.Fatal(err)
		}
		graphTime += time.Since(start)
		sent1, _ := srv.FrameCounts()
		graphFrames += sent1 - sent0
		iters += batch
	}
	b.StopTimer()
	if eagerTime > 0 && graphTime > 0 {
		eagerRate := float64(iters) / eagerTime.Seconds()
		graphRate := float64(iters) / graphTime.Seconds()
		b.ReportMetric(eagerRate, "eager_iters/s")
		b.ReportMetric(graphRate, "graph_iters/s")
		b.ReportMetric(graphRate/eagerRate, "speedup_x")
		// Frames per replayed iteration (includes the batch's Finish).
		b.ReportMetric(float64(graphFrames)/float64(iters), "frames/iter")
	}
}

// BenchmarkPartitionedMandelbrot runs ONE Mandelbrot ND-range split
// across 2 simnet daemons by internal/sched (static policy over the
// region-granular coherence directory) and compares it against the same
// workload on a single daemon. Devices are modeled (deterministic
// execution cost), the fabric is a fast-cluster link, so the measured
// ratio reflects the co-execution win. The benchmark enforces:
//
//   - ≥1.6x iterations/s over the single-device baseline, and
//   - steady-state byte accounting: each daemon ships only ITS result
//     region to the client per iteration (never the whole buffer), and
//     no bytes cross the daemon-to-daemon plane.
func BenchmarkPartitionedMandelbrot(b *testing.B) {
	const (
		width, height = 512, 512
		imageBytes    = 4 * width * height
		measured      = 4 // timed iterations per phase
	)
	link := simnet.LinkConfig{BandwidthBps: 4e9, LatencySec: 100e-6}
	nw := simnet.NewNetwork(link)
	modeled := device.Config{
		Name: "modeled-cpu", Vendor: "bench", Type: cl.DeviceTypeCPU,
		ComputeUnits: 4, ClockMHz: 2000, GlobalMemSize: 8 << 30,
		Mode: device.ExecModeled, InstrPerSec: 1.25e9, TimeScale: 1.0,
	}
	for _, addr := range []string{"pm0", "pm1"} {
		np := native.NewPlatform("native-"+addr, "bench", []device.Config{modeled})
		d, err := daemon.New(daemon.Config{Name: addr, Platform: np})
		if err != nil {
			b.Fatal(err)
		}
		l, err := nw.Listen(addr)
		if err != nil {
			b.Fatal(err)
		}
		go func() { _ = d.Serve(l) }()
		defer l.Close()
	}
	plat := dopencl.NewPlatform(dopencl.Options{Dialer: nw.Dial, ClientName: "bench"})
	for _, addr := range []string{"pm0", "pm1"} {
		if _, err := plat.ConnectServer(addr); err != nil {
			b.Fatal(err)
		}
	}
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := plat.CreateContext(devs)
	if err != nil {
		b.Fatal(err)
	}
	defer ctx.Release()
	prog, err := ctx.CreateProgramWithSource(mandelbrot.PartitionedKernelSource)
	if err != nil {
		b.Fatal(err)
	}
	if err := prog.Build(nil, ""); err != nil {
		b.Fatal(err)
	}
	workers := make([]sched.Worker, len(devs))
	for i, d := range devs {
		q, qerr := ctx.CreateQueue(d)
		if qerr != nil {
			b.Fatal(qerr)
		}
		workers[i] = sched.Worker{Queue: q, Weight: 1}
	}
	buf, err := ctx.CreateBuffer(cl.MemWriteOnly, imageBytes, nil)
	if err != nil {
		b.Fatal(err)
	}
	p := mandelbrot.DefaultParams(width, height, 100)
	dx := (p.XMax - p.XMin) / float64(p.Width)
	dy := (p.YMax - p.YMin) / float64(p.Height)
	out := make([]byte, imageBytes)
	iteration := func(ws []sched.Worker) {
		if _, err := sched.Run(sched.Launch{
			Program: prog,
			Kernel:  "mandelblock",
			Args: []any{nil, int32(p.Width), int32(p.Height),
				float32(p.XMin), float32(p.YMin), float32(dx), float32(dy),
				int32(p.MaxIter)},
			Parts:  []sched.Part{{Arg: 0, Buffer: buf, BytesPerItem: 4}},
			Global: width * height,
		}, ws, sched.Static{}); err != nil {
			b.Fatal(err)
		}
		if _, err := ws[0].Queue.EnqueueReadBuffer(buf, true, 0, out, nil); err != nil {
			b.Fatal(err)
		}
	}

	var singleRate, dualRate float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Single-device baseline (warm the cost model + directory first).
		iteration(workers[:1])
		start := time.Now()
		for j := 0; j < measured; j++ {
			iteration(workers[:1])
		}
		singleRate = measured / time.Since(start).Seconds()

		// Partitioned across both daemons. Two warmups: the first moves
		// the baseline's regions over, the second settles steady state.
		iteration(workers)
		iteration(workers)
		c0, c1 := nw.BytesSent("pm0", "client:pm0"), nw.BytesSent("pm1", "client:pm1")
		up0, up1 := nw.BytesSent("client:pm0", "pm0"), nw.BytesSent("client:pm1", "pm1")
		peer := nw.BytesSent("pm0", "pm1") + nw.BytesSent("pm1", "pm0")
		start = time.Now()
		for j := 0; j < measured; j++ {
			iteration(workers)
		}
		dualRate = measured / time.Since(start).Seconds()

		// Byte accounting over the measured steady-state iterations.
		d0 := nw.BytesSent("pm0", "client:pm0") - c0
		d1 := nw.BytesSent("pm1", "client:pm1") - c1
		half := int64(measured * imageBytes / 2)
		for di, d := range []int64{d0, d1} {
			if d < half {
				b.Fatalf("daemon %d shipped %d bytes over %d iterations, below its %d-byte result region share", di, d, measured, half)
			}
			if d > half+half/4 {
				b.Fatalf("daemon %d shipped %d bytes over %d iterations (≥ whole-buffer traffic; result regions are %d)", di, d, measured, half)
			}
		}
		if dp := nw.BytesSent("pm0", "pm1") + nw.BytesSent("pm1", "pm0") - peer; dp != 0 {
			b.Fatalf("steady-state iterations moved %d bytes daemon-to-daemon, want 0", dp)
		}
		u0 := nw.BytesSent("client:pm0", "pm0") - up0
		u1 := nw.BytesSent("client:pm1", "pm1") - up1
		if limit := int64(measured * 128 << 10); u0+u1 > limit {
			b.Fatalf("client uploaded %d bytes during steady state (payloads should be zero, commands only)", u0+u1)
		}
	}
	b.StopTimer()
	b.ReportMetric(singleRate, "single_iters/s")
	b.ReportMetric(dualRate, "dual_iters/s")
	speedup := dualRate / singleRate
	b.ReportMetric(speedup, "speedup_x")
	if speedup < 1.6 {
		b.Fatalf("partitioned speedup %.2fx across 2 daemons, want ≥ 1.6x", speedup)
	}
}

// crossServerCluster builds a client spanning two daemons over a
// symmetric bandwidth-limited simnet fabric, with or without the peer
// data plane, and returns queues on each daemon.
// The returned cleanup releases the context and shuts the simnet fabric
// down, unwinding every daemon/session/heartbeat goroutine: leaked
// clusters from earlier sub-benchmarks otherwise keep spinning and
// corrupt later measurements (observed as a 10x slowdown on the 10GbE
// configs when four live clusters accumulated in one process).
func crossServerCluster(b *testing.B, peers bool, bandwidthBps float64) (cl.Context, cl.Queue, cl.Queue, func()) {
	b.Helper()
	link := simnet.LinkConfig{BandwidthBps: bandwidthBps, LatencySec: 100e-6}
	nw := simnet.NewNetwork(link)
	for _, addr := range []string{"nodeA", "nodeB"} {
		addr := addr
		np := native.NewPlatform("native-"+addr, "bench", []device.Config{device.TestCPU("cpu")})
		cfg := daemon.Config{Name: addr, Platform: np}
		if peers {
			cfg.PeerAddr = addr + "/peer"
			cfg.PeerDial = func(a string) (net.Conn, error) { return nw.DialFrom(addr, a) }
		}
		d, err := daemon.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		l, err := nw.Listen(addr)
		if err != nil {
			b.Fatal(err)
		}
		go func() { _ = d.Serve(l) }()
		if peers {
			pl, err := nw.Listen(addr + "/peer")
			if err != nil {
				b.Fatal(err)
			}
			go func() { _ = d.ServePeers(pl) }()
		}
	}
	plat := dopencl.NewPlatform(dopencl.Options{Dialer: nw.Dial, ClientName: "bench"})
	for _, addr := range []string{"nodeA", "nodeB"} {
		if _, err := plat.ConnectServer(addr); err != nil {
			b.Fatal(err)
		}
	}
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := plat.CreateContext(devs)
	if err != nil {
		b.Fatal(err)
	}
	qA, err := ctx.CreateQueue(devs[0])
	if err != nil {
		b.Fatal(err)
	}
	qB, err := ctx.CreateQueue(devs[1])
	if err != nil {
		b.Fatal(err)
	}
	return ctx, qA, qB, func() {
		ctx.Release()
		nw.Shutdown()
	}
}

// BenchmarkCrossServerCopy measures a cross-daemon buffer copy (source
// Modified on daemon A, copy enqueued on daemon B) over a symmetric
// bandwidth-limited fabric. ClientMediated routes 2×size through the
// client (Section III-F of the paper, the seed implementation's only
// path); Forwarded streams 1×size daemon-to-daemon over the peer bulk
// plane. Two fabrics are modeled: GbE-class 400 MB/s (the historical
// config — a 4 MiB traversal alone costs 10.5 ms there, capping any
// transport at ~385 MB/s, so it measures the link, not the software)
// and 10GbE-class 1250 MB/s, where transport software overhead is the
// measured quantity again.
func BenchmarkCrossServerCopy(b *testing.B) {
	const size = 4 << 20
	for _, mode := range []struct {
		name  string
		peers bool
		bps   float64
	}{
		{"ClientMediated", false, 400e6},
		{"Forwarded", true, 400e6},
		{"ClientMediated10G", false, 1250e6},
		{"Forwarded10G", true, 1250e6},
	} {
		b.Run(mode.name, func(b *testing.B) {
			ctx, qA, qB, cleanup := crossServerCluster(b, mode.peers, mode.bps)
			defer cleanup()
			src, err := ctx.CreateBuffer(cl.MemReadWrite, size, nil)
			if err != nil {
				b.Fatal(err)
			}
			dst, err := ctx.CreateBuffer(cl.MemReadWrite, size, nil)
			if err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, size)
			b.SetBytes(size)
			b.ResetTimer()
			var transfer time.Duration
			for i := 0; i < b.N; i++ {
				// Re-dirty the source on A so every iteration forces a
				// fresh A→B coherence transfer. Kept inside the timed
				// region: StopTimer/StartTimer each trigger a
				// stop-the-world ReadMemStats, which on a small host
				// perturbs the simnet timing model far more than the
				// extra write skews the metric — payload_MB/s below is
				// computed from the hand-timed transfer window only.
				if _, err := qA.EnqueueWriteBuffer(src, true, 0, payload, nil); err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				if _, err := qB.EnqueueCopyBuffer(src, dst, 0, 0, size, nil); err != nil {
					b.Fatal(err)
				}
				if err := qB.Finish(); err != nil {
					b.Fatal(err)
				}
				transfer += time.Since(start)
			}
			b.StopTimer()
			if sec := transfer.Seconds(); sec > 0 {
				b.ReportMetric(float64(b.N)*size/sec/1e6, "payload_MB/s")
			}
		})
	}
}

// BenchmarkFig8Efficiency regenerates Fig. 8: dOpenCL transfer efficiency
// vs chunk size, with the iperf-equivalent baseline.
func BenchmarkFig8Efficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig8(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.IperfEff*100, "iperf_pct")
		if n := len(res.Points); n > 0 {
			b.ReportMetric(res.Points[0].WriteEff*100, "small_write_pct")
			b.ReportMetric(res.Points[n-1].WriteEff*100, "large_write_pct")
		}
	}
}

// BenchmarkForwardedCopy is the CI transport smoke: the forwarded-path
// cross-daemon copy on the 10GbE-class fabric with the throughput floor
// enforced in-benchmark, so `-bench=ForwardedCopy -benchtime=1x` fails
// the build if the zero-copy data plane regresses below 2x the 198 MB/s
// PR 4 baseline.
func BenchmarkForwardedCopy(b *testing.B) {
	const (
		size     = 4 << 20
		floorMBs = 400 // ≥ 2x the 198 MB/s PR 4 forwarded copy
	)
	ctx, qA, qB, cleanup := crossServerCluster(b, true, 1250e6)
	defer cleanup()
	src, err := ctx.CreateBuffer(cl.MemReadWrite, size, nil)
	if err != nil {
		b.Fatal(err)
	}
	dst, err := ctx.CreateBuffer(cl.MemReadWrite, size, nil)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, size)
	iteration := func() (time.Duration, error) {
		// Re-dirty the source on A so every pass forces a fresh A→B
		// coherence transfer; only the transfer window is timed.
		if _, err := qA.EnqueueWriteBuffer(src, true, 0, payload, nil); err != nil {
			return 0, err
		}
		start := time.Now()
		if _, err := qB.EnqueueCopyBuffer(src, dst, 0, 0, size, nil); err != nil {
			return 0, err
		}
		if err := qB.Finish(); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}
	// One untimed warmup: peer pool dial + directory warmup must not
	// decide a single-iteration smoke run.
	if _, err := iteration(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ResetTimer()
	var transfer time.Duration
	for i := 0; i < b.N; i++ {
		d, err := iteration()
		if err != nil {
			b.Fatal(err)
		}
		transfer += d
	}
	b.StopTimer()
	mbs := float64(b.N) * size / transfer.Seconds() / 1e6
	b.ReportMetric(mbs, "payload_MB/s")
	if mbs < floorMBs {
		b.Fatalf("forwarded copy %.1f MB/s below the %d MB/s floor", mbs, floorMBs)
	}
}

// loopbackQueue starts a one-CPU daemon on loopback TCP — the transport
// the benchmark's workloads run over — and returns a context and a queue
// on its device; both go away with the test.
func loopbackQueue(t *testing.T, name string) (cl.Context, cl.Queue) {
	t.Helper()
	np := native.NewPlatform("native-"+name, "bench", []device.Config{device.TestCPU("cpu")})
	d, err := daemon.New(daemon.Config{Name: name, Platform: np})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	go func() { _ = d.Serve(l) }() // returns when l closes
	plat := dopencl.NewPlatform(dopencl.Options{
		Dialer:     func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) },
		ClientName: name,
	})
	if _, err := plat.ConnectServer(l.Addr().String()); err != nil {
		t.Fatal(err)
	}
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := plat.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctx.Release() })
	q, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	return ctx, q
}

// TestEnqueueAllocsGate is the allocs/op gate on the enqueue hot path:
// steady-state pipelined non-blocking writes (64 KiB payloads) must stay
// under a fixed allocation budget per op, end to end — client staging,
// gcf framing, daemon read staging — over loopback TCP, as the benchmark
// runs it. The pooled payload path keeps the per-op byte churn
// O(bookkeeping), not O(payload); the object count is pinned so a dropped
// pool or a new per-op copy cannot land silently.
func TestEnqueueAllocsGate(t *testing.T) {
	const payloadSize = 64 << 10
	ctx, q := loopbackQueue(t, "gate")
	buf, err := ctx.CreateBuffer(cl.MemReadWrite, payloadSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, payloadSize)
	op := func() {
		ev, werr := q.EnqueueWriteBuffer(buf, false, 0, payload, nil)
		if werr != nil {
			t.Fatal(werr)
		}
		if rerr := ev.Release(); rerr != nil {
			t.Fatal(rerr)
		}
	}
	// Warm pools, program caches and the daemon's staging path.
	for i := 0; i < 100; i++ {
		op()
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, op)
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	t.Logf("enqueue hot path: %.1f allocs/op", allocs)
	if ceiling := allocsCeiling(10); allocs > ceiling {
		t.Fatalf("enqueue hot path allocates %.1f objects/op, gate is %.0f", allocs, ceiling)
	}
	// Byte churn gate: an object-count gate cannot see one dropped pool
	// (a fresh 64 KiB staging buffer is a single object). Client staging,
	// gcf frames and daemon staging all come from pools, so an op churns
	// bookkeeping; a quarter of the payload is far above that and far
	// below what any one of them costs when it stops being pooled.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rounds, window = 200, 8
	for i := 0; i < rounds; i += window {
		for j := 0; j < window; j++ {
			op()
		}
		if err := q.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := int64(after.TotalAlloc-before.TotalAlloc) / rounds
	t.Logf("enqueue hot path: %d bytes/op for %d-byte payloads", perOp, payloadSize)
	// Under the race detector sync.Pool drops a quarter of its Puts on
	// purpose, which is a payload block or so per op.
	if ceilingBytes := int64(payloadSize) / 4; perOp > ceilingBytes && !raceEnabled {
		t.Fatalf("enqueue hot path churns %d bytes/op, gate is %d", perOp, ceilingBytes)
	}
}

// TestEagerLaunchAllocsGate is the allocs/op gate of one eager kernel
// launch at steady state over loopback TCP: EnqueueNDRangeKernel plus the
// event's Release, counted process-wide — the client's directory claim,
// event stub and frame encoding, and the daemon's dispatch and launch.
func TestEagerLaunchAllocsGate(t *testing.T) {
	const items = 64
	ctx, q := loopbackQueue(t, "launch-gate")
	buf, err := ctx.CreateBuffer(cl.MemReadWrite, 4*items, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.CreateProgramWithSource(`
kernel void bump_launch_gate(global int* p) {
	int i = get_global_id(0);
	p[i] = p[i] + 1;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(nil, ""); err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("bump_launch_gate")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(0, buf); err != nil {
		t.Fatal(err)
	}
	global := []int{items}
	op := func() {
		ev, lerr := q.EnqueueNDRangeKernel(k, global, nil, nil)
		if lerr != nil {
			t.Fatal(lerr)
		}
		if rerr := ev.Release(); rerr != nil {
			t.Fatal(rerr)
		}
	}
	for i := 0; i < 100; i++ {
		op()
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, op)
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	t.Logf("eager launch: %.1f allocs/op", allocs)
	if ceiling := allocsCeiling(7); allocs > ceiling {
		t.Fatalf("eager launch allocates %.1f objects/op, gate is %.0f", allocs, ceiling)
	}
}

// allocsCeiling is an allocs/op gate of the loopback hot paths: n objects,
// one more under the race detector, whose sync.Pool drops a quarter of its
// Puts on purpose (a pooled frame writer or payload block per op or so).
func allocsCeiling(n float64) float64 {
	if raceEnabled {
		return n + 1
	}
	return n
}

// TestReplayUpdateBytesGate is TestEnqueueAllocsGate for the replay path,
// over loopback TCP as the benchmark's cmdstream workload runs it: a
// recorded upload → fold → read-back iteration replayed with its 64 KiB
// upload rewritten wholesale every time. The plan's copy of the update,
// the delta attempt, the ship and the daemon's cached payload all come
// from the payload pool, so a replay allocates bookkeeping, not payloads.
// The second case pipelines replays without waiting: every block above
// is then recycled while neighbours are still in flight, and a block
// handed back while a ship or an earlier replay's write still reads it
// shows up as a wrong read-back here (or a report under -race).
func TestReplayUpdateBytesGate(t *testing.T) {
	const payloadInts = 16 << 10 // 64 KiB
	const lanes = 16
	ctx, q := loopbackQueue(t, "replay-gate")
	in, err := ctx.CreateBuffer(cl.MemReadWrite, 4*payloadInts, nil)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := ctx.CreateBuffer(cl.MemReadWrite, 4*lanes, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.CreateProgramWithSource(`
kernel void fold(global int* sums, const global int* in, int n) {
	int lane = get_global_id(0);
	int lanes = get_global_size(0);
	int acc = 0;
	for (int i = lane; i < n; i += lanes) {
		acc = acc * 31 + in[i];
	}
	sums[lane] = acc;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(nil, ""); err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("fold")
	if err != nil {
		t.Fatal(err)
	}
	for i, arg := range []any{sums, in, int32(payloadInts)} {
		if err := k.SetArg(i, arg); err != nil {
			t.Fatal(err)
		}
	}

	// Four uploads that share no word, and what fold makes of each.
	rng := rand.New(rand.NewSource(19))
	var uploads, want [4][]byte
	for u := range uploads {
		uploads[u] = make([]byte, 4*payloadInts)
		rng.Read(uploads[u])
		var acc [lanes]int32
		for i := 0; i < payloadInts; i++ {
			acc[i%lanes] = acc[i%lanes]*31 + int32(binary.LittleEndian.Uint32(uploads[u][4*i:]))
		}
		want[u] = make([]byte, 4*lanes)
		for lane, v := range acc {
			binary.LittleEndian.PutUint32(want[u][4*lane:], uint32(v))
		}
	}

	const window = 8
	var dsts [window][]byte
	for i := range dsts {
		dsts[i] = make([]byte, 4*lanes)
	}
	if err := q.BeginRecording(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueWriteBuffer(in, false, 0, uploads[0], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueNDRangeKernel(k, []int{lanes}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueReadBuffer(sums, false, 0, dsts[0], nil); err != nil {
		t.Fatal(err)
	}
	cb, err := q.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Release()

	// burst replays n iterations back to back — iteration i uploads
	// uploads[(first+i)%4] and reads into its own destination — and only
	// then waits for them and checks every read-back.
	burst := func(first, n int) {
		t.Helper()
		var evs [window]cl.Event
		for i := 0; i < n; i++ {
			ev, err := q.EnqueueCommandBuffer(cb, []cl.CommandUpdate{
				cl.WriteDataUpdate(0, uploads[(first+i)%len(uploads)]),
				cl.ReadDstUpdate(2, dsts[i]),
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			evs[i] = ev
		}
		for i := 0; i < n; i++ {
			if err := evs[i].Wait(); err != nil {
				t.Fatal(err)
			}
			if u := (first + i) % len(uploads); !bytes.Equal(dsts[i], want[u]) {
				t.Fatalf("replay %d of a burst of %d read back %x, want %x (upload %d)", i, n, dsts[i], want[u], u)
			}
			if err := evs[i].Release(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Steady state, one replay at a time.
	for i := 0; i < 100; i++ {
		burst(i, 1)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rounds = 200
	for i := 0; i < rounds; i++ {
		burst(i, 1)
	}
	runtime.ReadMemStats(&after)
	perReplay := int64(after.TotalAlloc-before.TotalAlloc) / rounds
	t.Logf("replay with a rewritten %d-byte upload: %d bytes allocated per replay", 4*payloadInts, perReplay)
	// Under the race detector sync.Pool drops a quarter of its Puts on
	// purpose, which is a payload block or so per replay.
	const ceiling = 16 << 10
	if perReplay >= ceiling && !raceEnabled {
		t.Fatalf("a replay allocates %d bytes, gate is %d", perReplay, ceiling)
	}

	// Pipelined: a window of replays in flight at once.
	for round := 0; round < 50; round++ {
		burst(round, window)
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
}
