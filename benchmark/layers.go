package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"dopencl/internal/apps/heat"
	"dopencl/internal/apps/mandelbrot"
	"dopencl/internal/cl"
	"dopencl/internal/client"
	"dopencl/internal/coherence"
	"dopencl/internal/daemon"
	"dopencl/internal/darray"
	"dopencl/internal/device"
	"dopencl/internal/devmgr"
	"dopencl/internal/gcf"
	"dopencl/internal/kernel"
	"dopencl/internal/native"
	"dopencl/internal/protocol"
	"dopencl/internal/serve"
	"dopencl/internal/vm"
)

// Layer micro-loops: each times or counts calls into one module's public
// API, with nothing else running, for loop seconds. They do not depend on
// the workload or the seed.

// benchSources are the kernel sources the workloads build.
var benchSources = []string{mandelbrot.PartitionedKernelSource, heat.KernelSource, csSource, axpbSource}

// mallocsPer returns heap allocations per call of fn in steady state.
func mallocsPer(rounds int, fn func()) float64 {
	fn()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(rounds)
}

func mustKernel(src, name string) (*kernel.Program, *kernel.Func, error) {
	prog, err := kernel.Compile(src)
	if err != nil {
		return nil, nil, err
	}
	fn, ok := prog.Kernel(name)
	if !ok {
		return nil, nil, fmt.Errorf("kernel %q not in source", name)
	}
	return prog, fn, nil
}

// runLayers runs every micro-loop and returns their readings.
func runLayers(loop time.Duration) (readings, error) {
	r := readings{}
	for _, step := range []struct {
		name string
		fn   func(readings, time.Duration) error
	}{
		{"kernel", layerKernel},
		{"vm", layerVM},
		{"native", layerNative},
		{"protocol", layerProtocol},
		{"gcf", layerGCF},
		{"rtt ladder", layerRTT},
		{"coherence", layerCoherence},
		{"serve", layerServe},
		{"devmgr", layerDevmgr},
		{"darray", layerDarray},
	} {
		if err := step.fn(r, loop); err != nil {
			return nil, fmt.Errorf("%s micro-loops: %w", step.name, err)
		}
	}
	return r, nil
}

func layerKernel(r readings, loop time.Duration) error {
	i := 0
	if err := r.timed("kernel.compile_us", loop, 1, usec, func() error {
		_, err := kernel.Compile(benchSources[i%len(benchSources)])
		i++
		return err
	}); err != nil {
		return err
	}

	// Lowering is cached per function, so every timed call needs a fresh
	// compilation; only the WorkGroup calls are timed.
	var lowering time.Duration
	lowered, fallbacks := 0, 0
	for start := time.Now(); time.Since(start) < loop || lowered == 0; {
		fallbacks = 0
		for _, src := range benchSources {
			prog, err := kernel.Compile(src)
			if err != nil {
				return err
			}
			for _, name := range prog.KernelNames() {
				fn, _ := prog.Kernel(name)
				t0 := time.Now()
				plan := prog.WorkGroup(fn)
				lowering += time.Since(t0)
				lowered++
				if plan.Fallback != "" {
					fallbacks++
				}
			}
		}
	}
	r.put("kernel.lower_us", lowering.Seconds()*1e6/float64(lowered), lowered)
	r.put("kernel.fallback_kernels", float64(fallbacks), 1)
	return nil
}

// mandelLaunch is the mandelbrot ND-range as a bare vm launch.
func mandelLaunch() (vm.Launch, error) {
	prog, fn, err := mustKernel(mandelbrot.PartitionedKernelSource, "mandelblock")
	if err != nil {
		return vm.Launch{}, err
	}
	p := mandelbrot.DefaultParams(mandelW, mandelH, mandelIter)
	dx := (p.XMax - p.XMin) / float64(p.Width)
	dy := (p.YMax - p.YMin) / float64(p.Height)
	return vm.Launch{
		Prog: prog, Kernel: fn, Workers: 1,
		Args: []vm.Arg{
			vm.GlobalArg(make([]byte, 4*mandelW*mandelH)),
			vm.IntArg(int32(mandelW)), vm.IntArg(int32(mandelH)),
			vm.FloatArg(float32(p.XMin)), vm.FloatArg(float32(p.YMin)),
			vm.FloatArg(float32(dx)), vm.FloatArg(float32(dy)),
			vm.IntArg(int32(mandelIter)),
		},
		GlobalSize: []int{mandelW * mandelH},
	}, nil
}

// heatLaunch is one Jacobi step over the whole plate as a bare vm launch.
func heatLaunch() (vm.Launch, error) {
	prog, fn, err := mustKernel(heat.KernelSource, heat.StepKernel)
	if err != nil {
		return vm.Launch{}, err
	}
	in := make([]byte, 4*heatW*heatH)
	for i, v := range heat.InitialState(heatW, heatH) {
		binary.LittleEndian.PutUint32(in[4*i:], math.Float32bits(v))
	}
	return vm.Launch{
		Prog: prog, Kernel: fn, Workers: 1,
		Args: []vm.Arg{
			vm.GlobalArg(make([]byte, 4*heatW*heatH)), vm.GlobalArg(in),
			vm.IntArg(int32(heatW)), vm.IntArg(int32(heatH)), vm.IntArg(0),
			vm.FloatArg(heatAlpha),
		},
		GlobalSize: []int{heatW * heatH},
	}, nil
}

// touchLaunch is the one-group trivial launch of the rtt ladder.
func touchLaunch() (vm.Launch, error) {
	prog, fn, err := mustKernel(csSource, "touch")
	if err != nil {
		return vm.Launch{}, err
	}
	return vm.Launch{
		Prog: prog, Kernel: fn, Workers: 1,
		Args:       []vm.Arg{vm.GlobalArg(make([]byte, 4*csItems))},
		GlobalSize: []int{csGroup}, LocalSize: []int{csGroup},
	}, nil
}

func blocksumLaunch() (vm.Launch, error) {
	prog, fn, err := mustKernel(csSource, "blocksum")
	if err != nil {
		return vm.Launch{}, err
	}
	return vm.Launch{
		Prog: prog, Kernel: fn, Workers: 1,
		Args: []vm.Arg{
			vm.GlobalArg(make([]byte, csResultLen)), vm.GlobalArg(make([]byte, 4*csItems)),
			vm.LocalArg(4 * csGroup),
		},
		GlobalSize: []int{csItems}, LocalSize: []int{csGroup},
	}, nil
}

func layerVM(r readings, loop time.Duration) error {
	coop, groups := 0, 0
	throughput := func(name string, l vm.Launch) error {
		var instr uint64
		var last vm.Stats
		per, n, err := timeLoop(loop, 1, func() error {
			st, err := vm.RunStats(l)
			instr += st.Instructions
			last = st
			return err
		})
		if err != nil {
			return err
		}
		items := 1
		for _, g := range l.GlobalSize {
			items *= g
		}
		r.put("vm.instr_per_item."+name, float64(last.Instructions)/float64(items), 1)
		r.put("vm.minstr_per_s."+name, float64(instr)/float64(n)/per/1e6, n)
		coop += last.CoopGroups
		groups += last.GroupsRun
		return nil
	}
	ml, err := mandelLaunch()
	if err != nil {
		return err
	}
	if err := throughput("mandelbrot", ml); err != nil {
		return err
	}
	hl, err := heatLaunch()
	if err != nil {
		return err
	}
	if err := throughput("heat", hl); err != nil {
		return err
	}

	tl, err := touchLaunch()
	if err != nil {
		return err
	}
	if err := r.timed("vm.launch_us", loop, 1, usec, func() error { return vm.Run(tl) }); err != nil {
		return err
	}
	r["rtt.vm_us"] = r["vm.launch_us"] // one measurement, two names: the ladder's lowest rung

	bl, err := blocksumLaunch()
	if err != nil {
		return err
	}
	var bst vm.Stats
	per, n, err := timeLoop(loop, 1, func() error {
		bst, err = vm.RunStats(bl)
		return err
	})
	if err != nil {
		return err
	}
	r.put("vm.barrier_group_us", per*1e6/float64(csItems/csGroup), n)
	coop += bst.CoopGroups
	groups += bst.GroupsRun
	// Share of work-groups off the fused single-loop path, over one
	// launch of each benchmark kernel above.
	r.put("vm.coop_groups", 100*float64(coop)/float64(groups), groups)

	prog, fn, err := mustKernel(axpbSource, "axpb")
	if err != nil {
		return err
	}
	batch := vm.Batch{Prog: prog, Kernel: fn, Workers: 1, Jobs: make([]vm.BatchJob, serveWindow)}
	for i := range batch.Jobs {
		batch.Jobs[i] = vm.BatchJob{
			Args: []vm.Arg{
				vm.GlobalArg(make([]byte, serveJobBytes)), vm.GlobalArg(make([]byte, serveJobBytes)),
				vm.IntArg(serveFactor), vm.IntArg(serveJobInts),
			},
			GlobalSize: []int{serveJobInts},
		}
	}
	if err := r.timed("vm.batch_jobs_per_s", loop, serveWindow, perSecond, func() error {
		errs, _ := vm.RunBatch(batch)
		return errors.Join(errs...)
	}); err != nil {
		return err
	}

	allocs, err := vm.DispatchAllocsPerOp(ml)
	if err != nil {
		return err
	}
	r.put("vm.dispatch_allocs", allocs, 64)
	return nil
}

// touchOn builds the ladder's one-group kernel on a context.
func touchOn(ctx cl.Context, dev cl.Device) (cl.Queue, cl.Kernel, error) {
	q, err := ctx.CreateQueue(dev)
	if err != nil {
		return nil, nil, err
	}
	prog, err := ctx.CreateProgramWithSource(csSource)
	if err != nil {
		return nil, nil, err
	}
	if err := prog.Build(nil, ""); err != nil {
		return nil, nil, err
	}
	k, err := prog.CreateKernel("touch")
	if err != nil {
		return nil, nil, err
	}
	buf, err := ctx.CreateBuffer(cl.MemReadWrite, 4*csItems, nil)
	if err != nil {
		return nil, nil, err
	}
	return q, k, k.SetArg(0, buf)
}

// launchAndWait is the ladder's operation above the vm: a blocking
// one-work-group launch.
func launchAndWait(q cl.Queue, k cl.Kernel) error {
	ev, err := q.EnqueueNDRangeKernel(k, []int{csGroup}, []int{csGroup}, nil)
	if err != nil {
		return err
	}
	return ev.Wait()
}

func layerNative(r readings, loop time.Duration) error {
	s, err := nativeStack(cl.DeviceTypeCPU)
	if err != nil {
		return err
	}
	ctx, err := s.plat.CreateContext(s.devs)
	if err != nil {
		return err
	}
	defer func() { _ = ctx.Release() }() // micro-loop teardown
	q, k, err := touchOn(ctx, s.devs[0])
	if err != nil {
		return err
	}
	if err := r.timed("rtt.native_us", loop, 1, usec, func() error { return launchAndWait(q, k) }); err != nil {
		return err
	}

	// Pipelined launch cost: a window of launches, one Finish.
	const window = 64
	if err := r.timed("native.launch_us", loop, window, usec, func() error {
		for i := 0; i < window; i++ {
			if _, err := q.EnqueueNDRangeKernel(k, []int{csGroup}, []int{csGroup}, nil); err != nil {
				return err
			}
		}
		return q.Finish()
	}); err != nil {
		return err
	}

	if err := r.timed("native.marker_us", loop, 1, usec, func() error {
		ev, err := q.EnqueueMarker()
		if err != nil {
			return err
		}
		return ev.Wait()
	}); err != nil {
		return err
	}

	buf, err := ctx.CreateBuffer(cl.MemReadWrite, xferBig, nil)
	if err != nil {
		return err
	}
	data := make([]byte, xferBig)
	if err := r.timed("native.write_MBps", loop, 1, mbps(xferBig), func() error {
		_, err := q.EnqueueWriteBuffer(buf, true, 0, data, nil)
		return err
	}); err != nil {
		return err
	}
	if err := r.timed("native.read_MBps", loop, 1, mbps(xferBig), func() error {
		_, err := q.EnqueueReadBuffer(buf, true, 0, data, nil)
		return err
	}); err != nil {
		return err
	}
	return nil
}

func layerProtocol(r readings, loop time.Duration) error {
	const batch = 256
	body := make([]byte, 48)
	if err := r.timed("protocol.envelope_ns", loop, batch, nsec, func() error {
		for i := 0; i < batch; i++ {
			w := protocol.NewWriter()
			w.U64(uint64(i))
			w.Blob(body)
			env, err := protocol.ParseEnvelope(protocol.EncodeEnvelope(protocol.ClassOneWay, uint32(i), protocol.MsgEnqueueKernel, w))
			if err != nil || env.Body.U64() != uint64(i) {
				return fmt.Errorf("envelope round trip: %v", err)
			}
		}
		return nil
	}); err != nil {
		return err
	}

	eg := protocol.ExecGraph{GraphID: 7, QueueID: 3, EventID: 11, WaitIDs: []uint64{5}, ReadStreamIDs: []uint32{9}}
	for i := 0; i < 16; i++ {
		eg.Updates = append(eg.Updates, protocol.GraphUpdate{
			Cmd: uint32(i), Kind: protocol.GraphUpdateKernelArg, ArgIndex: 2,
			Arg: protocol.GraphKernelArg{Kind: protocol.ArgValScalar, Raw: uint64(i)},
		})
	}
	if err := r.timed("protocol.execgraph_ns", loop, batch, nsec, func() error {
		for i := 0; i < batch; i++ {
			w := protocol.NewWriter()
			protocol.PutExecGraph(w, eg)
			rd := protocol.NewReader(w.Bytes())
			if got := protocol.GetExecGraph(rd); rd.Err() != nil || len(got.Updates) != 16 {
				return fmt.Errorf("exec-graph round trip: %v", rd.Err())
			}
		}
		return nil
	}); err != nil {
		return err
	}

	sub := protocol.ServeSubmit{ServeID: 1, Jobs: []protocol.ServeJob{{
		JobID: 1, KernelID: 2, InputArg: 0, OutputArg: 1,
		Args:  make([]protocol.GraphKernelArg, 4),
		Input: make([]byte, serveJobBytes), OutSize: serveJobBytes, Global: []int{serveJobInts},
	}}}
	if err := r.timed("protocol.servesubmit_ns", loop, batch, nsec, func() error {
		for i := 0; i < batch; i++ {
			w := protocol.NewWriter()
			protocol.PutServeSubmit(w, sub)
			rd := protocol.NewReader(w.Bytes())
			if got := protocol.GetServeSubmit(rd); rd.Err() != nil || len(got.Jobs) != 1 {
				return fmt.Errorf("serve-submit round trip: %v", rd.Err())
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// 64 KiB payload, one sixteenth of it changed, as in a replayed
	// iteration's write update.
	const size = 64 << 10
	rng := rand.New(rand.NewSource(1))
	prev := make([]byte, size)
	rng.Read(prev)
	cur := append([]byte(nil), prev...)
	rng.Read(cur[size/2 : size/2+size/16])
	dst := make([]byte, size)
	var delta []byte
	if err := r.timed("protocol.delta_MBps", loop, 1, mbps(size), func() error {
		var ok bool
		if delta, ok = protocol.EncodeDelta(prev, cur); !ok {
			return fmt.Errorf("delta not smaller than the payload")
		}
		return protocol.ApplyDelta(dst, prev, delta)
	}); err != nil {
		return err
	}
	r.put("protocol.delta_ratio", float64(len(delta))/size, 1)
	return nil
}

// echoPair connects two endpoints (TCP loopback or in-process) with the
// server echoing every message and counting those it is told to swallow.
type echoPair struct {
	client, server *gcf.Endpoint
	replies        chan struct{}
	swallowed      atomic.Int64
	ln             net.Listener
}

func (e *echoPair) start() {
	e.replies = make(chan struct{}, 1)
	e.server.Start(func(msg []byte) {
		if len(msg) > 0 && msg[0] == 1 { // one-way: count, do not answer
			e.swallowed.Add(1)
			return
		}
		_ = e.server.Send(msg) // a failed echo surfaces as the client's timeout
	}, nil)
	e.client.Start(func([]byte) { e.replies <- struct{}{} }, nil)
}

func (e *echoPair) close() {
	_ = e.client.Close()
	_ = e.server.Close()
	if e.ln != nil {
		_ = e.ln.Close()
	}
}

func (e *echoPair) roundTrip(msg []byte) error {
	if err := e.client.Send(msg); err != nil {
		return err
	}
	select {
	case <-e.replies:
		return nil
	case <-time.After(10 * time.Second):
		return fmt.Errorf("gcf echo timed out")
	}
}

func tcpEchoPair() (*echoPair, error) {
	ln, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		_ = ln.Close()
		return nil, err
	}
	sc, ok := <-accepted
	if !ok {
		_ = cc.Close()
		_ = ln.Close()
		return nil, fmt.Errorf("accept failed")
	}
	e := &echoPair{client: gcf.NewEndpoint(cc, true), server: gcf.NewEndpoint(sc, false), ln: ln}
	e.start()
	return e, nil
}

func layerGCF(r readings, loop time.Duration) error {
	tcp, err := tcpEchoPair()
	if err != nil {
		return err
	}
	defer tcp.close()
	ping := make([]byte, 64)
	if err := r.timed("gcf.rtt_us", loop, 1, usec, func() error { return tcp.roundTrip(ping) }); err != nil {
		return err
	}

	lc, ls := gcf.NewLocalPair()
	local := &echoPair{client: lc, server: ls}
	local.start()
	defer local.close()
	if err := r.timed("gcf.local_rtt_us", loop, 1, usec, func() error { return local.roundTrip(ping) }); err != nil {
		return err
	}

	// One-way rate: a window of 64 B frames, then wait until the server
	// has seen them all.
	const window = 4096
	oneway := make([]byte, 64)
	oneway[0] = 1
	sent := int64(0)
	if err := r.timed("gcf.oneway_frames_per_s", loop, window, perSecond, func() error {
		for i := 0; i < window; i++ {
			if err := tcp.client.Send(oneway); err != nil {
				return err
			}
		}
		sent += window
		for deadline := time.Now().Add(10 * time.Second); tcp.swallowed.Load() < sent; {
			if time.Now().After(deadline) {
				return fmt.Errorf("one-way frames lost: %d of %d arrived", tcp.swallowed.Load(), sent)
			}
			runtime.Gosched()
		}
		return nil
	}); err != nil {
		return err
	}

	// Bulk stream: 8 MiB client→server, acknowledged by an echo once the
	// server has read it all.
	payload := make([]byte, xferBig)
	sink := make([]byte, xferBig)
	if err := r.timed("gcf.stream_MBps", loop, 1, mbps(xferBig), func() error {
		st := tcp.client.OpenStream()
		defer st.Release()
		done := make(chan error, 1)
		go func() {
			rs := tcp.server.Stream(st.ID())
			_, err := io.ReadFull(rs, sink)
			rs.WaitEOF()
			rs.Release()
			done <- err
		}()
		if err := st.WriteOwned(payload, nil); err != nil {
			return err
		}
		if err := st.CloseWrite(); err != nil {
			return err
		}
		return <-done
	}); err != nil {
		return err
	}

	r.put("gcf.payload_allocs", mallocsPer(256, func() { gcf.PutPayload(gcf.GetPayload(xferMid)) }), 256)
	return nil
}

// layerRTT measures the ladder's in-process rung: the same blocking
// launch through client and daemon over gcf's local endpoint pair, with
// no socket. (The vm and native rungs come from their layers, the TCP
// rung from the cmdstream workload.)
func layerRTT(r readings, loop time.Duration) error {
	np := native.NewPlatform("native-local", "benchmark", []device.Config{benchDevice("dev0.0", cl.DeviceTypeCPU)})
	d, err := daemon.New(daemon.Config{Name: "local", Platform: np})
	if err != nil {
		return err
	}
	const addr = "benchmark/local"
	if err := d.ServeLocal(addr); err != nil {
		return err
	}
	defer d.StopLocal(addr)
	plat := client.NewPlatform(client.Options{
		Dialer:     func(string) (net.Conn, error) { return nil, fmt.Errorf("in-process only") },
		ClientName: "benchmark-local",
	})
	if _, err := plat.ConnectServer(addr); err != nil {
		return err
	}
	defer disconnect(plat)
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		return err
	}
	ctx, err := plat.CreateContext(devs)
	if err != nil {
		return err
	}
	defer func() { _ = ctx.Release() }() // micro-loop teardown
	q, k, err := touchOn(ctx, devs[0])
	if err != nil {
		return err
	}
	if err := r.timed("rtt.local_us", loop, 1, usec, func() error { return launchAndWait(q, k) }); err != nil {
		return err
	}
	return nil
}

// holder and settled are the minimal coherence participants.
type holder struct{ name string }

func (*holder) Alive() bool { return true }

type settled struct{}

func (settled) Settled() bool { return true }

func layerCoherence(r readings, loop time.Duration) error {
	const spans, spanBytes = 64, 4096
	a, b := &holder{"a"}, &holder{"b"}
	owners := [2]*holder{a, b}
	dir := coherence.New(1, spans*spanBytes, a, b)
	// A partitioned launch: alternating owners, so no two neighbours merge.
	for i := 0; i < spans; i++ {
		dir.Claim(owners[i%2], i*spanBytes, (i+1)*spanBytes, settled{})
	}
	r.put("coherence.spans_after_partition", float64(dir.SpanCount()), 1)

	const batch = 256
	i := 0
	if err := r.timed("coherence.claim_ns", loop, batch, nsec, func() error {
		for j := 0; j < batch; j++ {
			s := i % spans
			dir.Claim(owners[s%2], s*spanBytes, (s+1)*spanBytes, settled{})
			i++
		}
		return nil
	}); err != nil {
		return err
	}

	// One Validate plus the Invalidate that undoes it, on the other
	// holder's span.
	if err := r.timed("coherence.validate_ns", loop, batch, nsec, func() error {
		for j := 0; j < batch; j++ {
			s := i % spans
			other := owners[(s+1)%2]
			dir.Validate(other, s*spanBytes, (s+1)*spanBytes)
			dir.Invalidate(other, s*spanBytes, (s+1)*spanBytes)
			i++
		}
		return nil
	}); err != nil {
		return err
	}

	if err := r.timed("coherence.readplan_ns", loop, batch, nsec, func() error {
		for j := 0; j < batch; j++ {
			parts, err := dir.ReadPlan(a, 0, spans*spanBytes)
			if err != nil || len(parts) == 0 {
				return fmt.Errorf("read plan: %d parts, %v", len(parts), err)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if got := dir.SpanCount(); got != spans {
		return fmt.Errorf("directory drifted to %d spans during the loops", got)
	}
	return nil
}

func layerServe(r readings, loop time.Duration) error {
	const depth, sessions, batch = 1024, 4, 256
	q := serve.NewFairQueue[int, int]()
	for s := 1; s <= sessions; s++ {
		q.Open(uint64(s), 1, 2*depth)
	}
	for i := 0; i < depth; i++ {
		if err := q.Push(uint64(i%sessions+1), 1, 0, i); err != nil {
			return err
		}
	}
	i := 0
	if err := r.timed("serve.queue_ns", loop, batch, nsec, func() error {
		for j := 0; j < batch; j++ {
			if err := q.Push(uint64(i%sessions+1), 1, 0, i); err != nil {
				return err
			}
			_, ses, ok := q.TryPop()
			if !ok {
				return fmt.Errorf("fair queue empty at depth %d", depth)
			}
			q.Finish(ses)
			i++
		}
		return nil
	}); err != nil {
		return err
	}

	input := make([]byte, serveJobBytes)
	key := func(i int) serve.Key {
		h := serve.NewHasher()
		h.U64(uint64(i))
		h.Bytes(input)
		h.Ints([]int{serveJobInts})
		return h.Sum()
	}
	if err := r.timed("serve.hash_ns", loop, batch, nsec, func() error {
		for j := 0; j < batch; j++ {
			key(j)
		}
		return nil
	}); err != nil {
		return err
	}

	cache := serve.NewCache(0, 0)
	keys := make([]serve.Key, depth)
	for i := range keys {
		keys[i] = key(i)
		cache.Put(keys[i], input, nil)
	}
	if err := r.timed("serve.cache_get_ns", loop, batch, nsec, func() error {
		for j := 0; j < batch; j++ {
			if _, ok := cache.Get(keys[j%depth]); !ok {
				return fmt.Errorf("cache lost a resident key")
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := r.timed("serve.cache_put_ns", loop, batch, nsec, func() error {
		for j := 0; j < batch; j++ {
			cache.Put(keys[j%depth], input, nil)
		}
		return nil
	}); err != nil {
		return err
	}
	return nil
}

func layerDevmgr(r readings, loop time.Duration) error {
	const servers, devsPer = 1024, 24
	m := devmgr.New()
	defer m.Close()
	for s := 0; s < servers; s++ {
		recs := make([]protocol.DeviceRecord, devsPer)
		for u := range recs {
			recs[u] = protocol.DeviceRecord{UnitID: uint32(u), Info: cl.DeviceInfo{
				Name: fmt.Sprintf("gpu%d", u), Vendor: "benchmark",
				Type: cl.DeviceTypeGPU, ComputeUnits: 16, GlobalMemSize: 1 << 32,
			}}
		}
		m.AddDevices(fmt.Sprintf("node-%04d", s), recs)
	}
	oneGPU := []protocol.DeviceRequest{{Count: 1, Type: cl.DeviceTypeGPU}}
	if err := r.timed("devmgr.place_us", loop, 1, usec, func() error {
		ls, err := m.PlaceLease("tenant", 0, oneGPU)
		if err != nil {
			return err
		}
		m.ReleaseLease(ls.AuthID())
		return nil
	}); err != nil {
		return err
	}

	var assign time.Duration
	assigned := 0
	for start := time.Now(); time.Since(start) < loop || assigned == 0; {
		t0 := time.Now()
		ls, err := m.Assign(oneGPU)
		assign += time.Since(t0)
		if err != nil {
			return err
		}
		assigned++
		m.ReleaseLease(ls.AuthID())
	}
	r.put("devmgr.assign_us", assign.Seconds()*1e6/float64(assigned), assigned)
	if free := m.FreeDevices(); free != servers*devsPer {
		return fmt.Errorf("fleet leaked devices: %d of %d free", free, servers*devsPer)
	}
	return nil
}

func layerDarray(r readings, loop time.Duration) error {
	if err := r.timed("darray.infer_halo_us", loop/2, 1, usec, func() error {
		_, err := darray.InferHalo(heat.KernelSource, heat.StepKernel)
		return err
	}); err != nil {
		return err
	}
	return nil
}
