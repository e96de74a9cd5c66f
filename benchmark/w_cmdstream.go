package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/kernel"
)

// The command-stream iteration is shaped like one OSEM subset step: a
// 64 KiB upload, a dozen small launches, one local-memory/barrier launch,
// a small copy and a tiny blocking read — 16 commands whose payload and
// compute are negligible, so per-command cost is what is measured.
const (
	csSubsets   = 4
	csInFloats  = 16384 // 64 KiB upload
	csItems     = 256   // work items per launch
	csMixes     = 12
	csGroup     = 16 // block-sum work-group size → 16 partial sums = 64 B
	csCommands  = 16 // write + 12 mix + blocksum + copy + read
	csResultLen = 4 * csItems / csGroup
)

var (
	csEagerIters, csReplayIters, csRTTs = 64, 64, 128
)

const csSource = `
kernel void mix(global float* work, const global float* in, int off, float keep) {
	int i = get_global_id(0);
	work[i] = work[i] * keep + in[off + i];
}

kernel void blocksum(global float* sums, const global float* work, local float* scratch) {
	int lid = get_local_id(0);
	int lsz = get_local_size(0);
	scratch[lid] = work[get_global_id(0)];
	barrier(CLK_LOCAL_MEM_FENCE);
	int stride = lsz / 2;
	while (stride > 0) {
		if (lid < stride) {
			scratch[lid] = scratch[lid] + scratch[lid + stride];
		}
		barrier(CLK_LOCAL_MEM_FENCE);
		stride = stride / 2;
	}
	if (lid == 0) {
		sums[get_group_id(0)] = scratch[0];
	}
}

kernel void touch(global float* work) {
	work[get_global_id(0)] = 1.0;
}
`

// csObjects is the command stream's object set on one context.
type csObjects struct {
	ctx                   cl.Context
	q                     cl.Queue
	in, work, snap, sums  cl.Buffer
	mixes                 [csMixes]cl.Kernel
	blocksum, touch       cl.Kernel
	buildTime, createTime time.Duration
}

func newCSObjects(plat cl.Platform, devs []cl.Device) (*csObjects, error) {
	o := &csObjects{}
	t0 := time.Now()
	ctx, err := plat.CreateContext(devs[:1])
	if err != nil {
		return nil, err
	}
	o.ctx = ctx
	o.createTime = time.Since(t0)
	if o.q, err = ctx.CreateQueue(devs[0]); err != nil {
		return o, err
	}
	t0 = time.Now()
	prog, err := ctx.CreateProgramWithSource(csSource)
	if err != nil {
		return o, err
	}
	if err := prog.Build(nil, ""); err != nil {
		return o, err
	}
	o.buildTime = time.Since(t0)
	for _, b := range []struct {
		dst  *cl.Buffer
		size int
	}{{&o.in, 4 * csInFloats}, {&o.work, 4 * csItems}, {&o.snap, 4 * csItems}, {&o.sums, csResultLen}} {
		if *b.dst, err = ctx.CreateBuffer(cl.MemReadWrite, b.size, nil); err != nil {
			return o, err
		}
	}
	// One kernel object per launch, arguments bound once: rebinding
	// between launches would add set-arg messages to the 16 commands.
	for k := range o.mixes {
		if o.mixes[k], err = prog.CreateKernel("mix"); err != nil {
			return o, err
		}
		keep := float32(0.5)
		if k == 0 {
			keep = 0 // the first launch overwrites: an iteration depends only on its subset
		}
		off := int32(k * (csInFloats - csItems) / (csMixes - 1))
		for i, v := range []any{o.work, o.in, off, keep} {
			if err := o.mixes[k].SetArg(i, v); err != nil {
				return o, err
			}
		}
	}
	if o.blocksum, err = prog.CreateKernel("blocksum"); err != nil {
		return o, err
	}
	for i, v := range []any{o.sums, o.work, cl.LocalSpace{Size: 4 * csGroup}} {
		if err := o.blocksum.SetArg(i, v); err != nil {
			return o, err
		}
	}
	if o.touch, err = prog.CreateKernel("touch"); err != nil {
		return o, err
	}
	return o, o.touch.SetArg(0, o.work)
}

func (o *csObjects) release() {
	if o != nil && o.ctx != nil {
		_ = o.ctx.Release() // tearing down
	}
}

// enqueueIteration enqueues the 16 commands. With result == nil the read
// is left to the caller (recording); otherwise it is the blocking read
// that ends an eager iteration.
func (o *csObjects) enqueueIteration(subset []byte, result []byte, blockingRead bool) error {
	drop := func(ev cl.Event, err error) error {
		if err != nil {
			return err
		}
		return ev.Release()
	}
	if err := drop(o.q.EnqueueWriteBuffer(o.in, false, 0, subset, nil)); err != nil {
		return err
	}
	for _, k := range o.mixes {
		if err := drop(o.q.EnqueueNDRangeKernel(k, []int{csItems}, nil, nil)); err != nil {
			return err
		}
	}
	if err := drop(o.q.EnqueueNDRangeKernel(o.blocksum, []int{csItems}, []int{csGroup}, nil)); err != nil {
		return err
	}
	if err := drop(o.q.EnqueueCopyBuffer(o.work, o.snap, 0, 0, 4*csItems, nil)); err != nil {
		return err
	}
	return drop(o.q.EnqueueReadBuffer(o.sums, blockingRead, 0, result, nil))
}

// csSubsetBytes generates the seed-dependent uploads.
func csSubsetBytes(p *pass) [csSubsets][]byte {
	rng := p.rng()
	var out [csSubsets][]byte
	for s := range out {
		out[s] = make([]byte, 4*csInFloats)
		for i := 0; i < csInFloats; i++ {
			binary.LittleEndian.PutUint32(out[s][4*i:], math.Float32bits(rng.Float32()))
		}
	}
	return out
}

// csState is what a cmdstream set-up builds: one daemon, a connected
// client, the object set and the finalized command buffer, with the
// times of the set-up's pieces.
type csState struct {
	s  *stack
	o  *csObjects
	cb cl.CommandBuffer

	connect, finalize time.Duration
}

func (st *csState) close() {
	if st.cb != nil {
		_ = st.cb.Release() // tearing down
	}
	st.o.release()
	st.s.close()
}

// build boots the daemon, connects, creates the objects, records and
// finalizes the iteration (reading into replayDst) and runs the first
// cold operations.
func (st *csState) build(p *pass, sc *scope, subset, replayDst []byte) error {
	c, err := startCluster(clusterSpec{daemons: 1, devType: cl.DeviceTypeCPU, w: p.w})
	if err != nil {
		return err
	}
	st.s = &stack{label: "1d", cl: c}
	t0 := time.Now()
	if st.s.cplat, err = c.connect("benchmark-cmdstream"); err != nil {
		return err
	}
	st.connect = time.Since(t0)
	st.s.plat = st.s.cplat
	if st.s.devs, err = st.s.plat.Devices(cl.DeviceTypeAll); err != nil {
		return err
	}
	if st.o, err = newCSObjects(tracePlatform(st.s.plat, sc, "client"), st.s.devs); err != nil {
		return err
	}
	// Record the iteration and finalize it.
	if err := st.o.q.BeginRecording(); err != nil {
		return err
	}
	if err := st.o.enqueueIteration(subset, replayDst, false); err != nil {
		return err
	}
	t0 = time.Now()
	if st.cb, err = st.o.q.Finalize(); err != nil {
		return err
	}
	st.finalize = time.Since(t0)
	// First cold operations: one eager iteration, one replay (the
	// graph registers with the daemon on first use), one launch+wait.
	first := make([]byte, csResultLen)
	if err := st.o.enqueueIteration(subset, first, true); err != nil {
		return err
	}
	ev, err := st.o.q.EnqueueCommandBuffer(st.cb, nil, nil)
	if err != nil {
		return err
	}
	return ev.Wait()
}

// runCmdstream: per-command cost end to end — client enqueue, protocol
// codecs, gcf coalescing, daemon dispatch, native queue, vm launch — with
// the same iteration run eagerly and as a replayed command buffer.
func runCmdstream(p *pass) error {
	sc := p.tr.scope(1)
	subsets := csSubsetBytes(p)

	// The oracle: the same sequence on the native runtime, per subset.
	var want [csSubsets][]byte
	ns, err := nativeStack(cl.DeviceTypeCPU)
	if err != nil {
		return err
	}
	no, err := newCSObjects(ns.plat, ns.devs)
	if err != nil {
		no.release()
		return err
	}
	for s := range subsets {
		want[s] = make([]byte, csResultLen)
		if err := no.enqueueIteration(subsets[s], want[s], true); err != nil {
			no.release()
			return fmt.Errorf("native oracle: %w", err)
		}
	}
	no.release()

	replayDst := make([]byte, csResultLen)
	st, err := setUp(p, func() (*csState, error) {
		st := &csState{}
		if err := st.build(p, sc, subsets[0], replayDst); err != nil {
			st.close()
			return nil, err
		}
		return st, nil
	})
	if err != nil {
		return err
	}
	defer st.close()
	s, o, cb := st.s, st.o, st.cb
	srv := s.cplat.Servers()[0]

	result := make([]byte, csResultLen)
	iter := 0 // subset rotation, shared by both phases
	var eager, replay, rtts samples
	eagerBlock := func(n int) {
		for i := 0; i < n; i++ {
			sub := iter % csSubsets
			iter++
			t0 := time.Now()
			err := o.enqueueIteration(subsets[sub], result, true)
			eager.add(time.Since(t0))
			p.op(err == nil && bytes.Equal(result, want[sub]), "eager iteration: err=%v, result differs from native=%v", err, err == nil)
		}
	}
	replayBlock := func(n int) {
		for i := 0; i < n; i++ {
			sub := iter % csSubsets
			iter++
			t0 := time.Now()
			ev, err := o.q.EnqueueCommandBuffer(cb, []cl.CommandUpdate{cl.WriteDataUpdate(0, subsets[sub])}, nil)
			if err == nil {
				err = ev.Wait()
			}
			replay.add(time.Since(t0))
			p.op(err == nil && bytes.Equal(replayDst, want[sub]), "replay iteration: err=%v, result differs from native=%v", err, err == nil)
		}
	}
	rttBlock := func(n int) {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			ev, err := o.q.EnqueueNDRangeKernel(o.touch, []int{csGroup}, []int{csGroup}, nil)
			if err == nil {
				err = ev.Wait()
			}
			rtts.add(time.Since(t0))
			p.check(err, "blocking launch")
		}
	}

	p.begin()
	for round := 0; p.more(round, 1); round++ {
		endIter := sc.begin(fmt.Sprintf("cmdstream.round.%d", round))
		eagerBlock(csEagerIters)
		replayBlock(csReplayIters)
		rttBlock(csRTTs)
		endIter()
	}
	p.slot(0, eager, csCommands)
	p.slot(1, replay, 1)
	p.slot(2, rtts, 1)
	p.r.put("cmds_per_s", float64(len(eager)*csCommands)/sum(eager), len(eager)*csCommands)
	p.r.put("replay_iters_per_s", float64(len(replay))/sum(replay), len(replay))
	p.r.put("rtt_us", median(rtts)*1e6, len(rtts))
	if !p.traced() {
		return nil
	}

	// Layer readings. Frame and byte counts are per iteration, measured
	// over a quiet block so they repeat exactly.
	enq := p.tr.durations("client.EnqueueNDRangeKernel")
	p.r.put("client.enqueue_kernel_us", median(enq)*1e6, len(enq))
	// The pieces of this pass's one set-up.
	p.r.put("client.connect_ms", st.connect.Seconds()*1e3, 1)
	p.r.put("client.create_context_ms", o.createTime.Seconds()*1e3, 1)
	p.r.put("client.build_ms", o.buildTime.Seconds()*1e3, 1)
	p.r.put("client.finalize_ms", st.finalize.Seconds()*1e3, 1)
	p.r.put("rtt.tcp_us", median(rtts)*1e6, len(rtts))

	frames := func() uint64 { sent, recv := srv.FrameCounts(); return sent + recv }
	const n = 32
	c0 := kernel.WorkGroupCompiles()
	f0, b0, w0 := frames(), p.w.client.bytes(), p.w.client.Writes.Load()+p.w.daemon.Writes.Load()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	eagerBlock(n)
	runtime.ReadMemStats(&m1)
	f1, b1, w1 := frames(), p.w.client.bytes(), p.w.client.Writes.Load()+p.w.daemon.Writes.Load()
	p.wgCompiles += int(kernel.WorkGroupCompiles() - c0)
	p.r.put("client.frames_per_iter.eager", float64(f1-f0)/n, n)
	p.r.put("client.wire_bytes_per_iter.eager", float64(b1-b0)/n, n)
	p.r.put("gcf.conn_writes_per_frame", float64(w1-w0)/float64(f1-f0), int(f1-f0))
	// Process-wide mallocs per eager command: the client and the
	// in-process daemon both allocate; neither can be isolated from
	// outside, so this is their sum.
	p.r.put("client.enqueue_allocs", float64(m1.Mallocs-m0.Mallocs)/float64(n*csCommands), n*csCommands)

	f0, b0 = frames(), p.w.client.bytes()
	replayBlock(n)
	p.r.put("client.frames_per_iter.replay", float64(frames()-f0)/n, n)
	p.r.put("client.wire_bytes_per_iter.replay", float64(p.w.client.bytes()-b0)/n, n)

	per, ops, err := timeLoop(p.loop/4, 1, o.q.Finish)
	if err != nil {
		return err
	}
	p.r.put("client.finish_us", per*1e6, ops)
	return nil
}
