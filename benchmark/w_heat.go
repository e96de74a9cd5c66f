package main

import (
	"fmt"
	"math"
	"time"

	"dopencl/internal/apps/heat"
	"dopencl/internal/darray"
	"dopencl/internal/kernel"
)

// A solve is 10 iterations, not the 100 the issue sized, for the reason
// given at mandelW: 100 iterations take over a second. Every iteration is
// the same steady-state step, so the shorter solve only gives init and
// read-back a larger share (1-4 % of the solve).
var (
	heatW, heatH, heatIters = 256, 256, 10
	// heatLadderIters is the length of the steady-state stretch the
	// darray ladder times and counts bytes over.
	heatLadderIters = 50
)

const heatAlpha = 0.2

// dotRowsSource adds a row-reduction kernel to the heat step so the
// ladder can time the host-synchronised use of the darray layer.
const dotRowsSource = heat.KernelSource + `
kernel void dotrows(global float* part, const global float* x, const global float* y, int w, int h) {
	int lr = get_global_id(0) - get_global_offset(0);
	float acc = 0.0;
	for (int c = 0; c < w; c++) {
		acc = acc + x[lr * w + c] * y[lr * w + c];
	}
	part[lr] = acc;
}
`

func sameFloats(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// runHeat: a Jacobi stencil on a distributed array. The kernel is
// load/store-bound and every iteration blocks on darray, coherence, the
// daemons' peer forwards and the client's graph replay.
func runHeat(p *pass) error {
	params := heat.Params{W: heatW, H: heatH, Iters: heatIters, Alpha: heatAlpha}
	init := heat.InitialState(heatW, heatH)
	want := heat.Reference(params, init)
	// The cold solve of a set-up runs on a small plate, so that set-up
	// time is not charged for the solve's compute.
	cold := heat.Params{W: 32, H: 32, Iters: 2, Alpha: heatAlpha}
	coldInit := heat.InitialState(cold.W, cold.H)
	sc := p.tr.scope(1)

	solveOn := func(s *stack, hp heat.Params, init []float32) ([]float32, time.Duration, error) {
		plat := tracePlatform(s.plat, sc, prefixOf(s))
		t0 := time.Now()
		ctx, err := plat.CreateContext(s.devs)
		if err != nil {
			return nil, 0, err
		}
		state, err := heat.Run(ctx, s.devs, hp, init)
		if rerr := ctx.Release(); err == nil {
			err = rerr
		}
		return state, time.Since(t0), err
	}

	t, err := setUp(p, func() (*trio, error) {
		t, err := newTrio(p, true)
		if err != nil {
			return nil, err
		}
		// First cold operation: a two-iteration solve per stack compiles
		// the step kernel, records the ping-pong graphs and dials the
		// peer pool.
		for _, s := range t.each() {
			if _, _, err := solveOn(s, cold, coldInit); err != nil {
				t.close()
				return nil, fmt.Errorf("cold solve on %s: %w", s.label, err)
			}
		}
		return t, nil
	})
	if err != nil {
		return err
	}
	defer t.close()

	solve := func(s *stack) time.Duration {
		state, d, err := solveOn(s, params, init)
		p.op(err == nil && sameFloats(state, want), "heat on %s: err=%v, state differs from Reference=%v", s.label, err, err == nil)
		return d
	}
	// One untimed solve per stack at the full plate size fills the
	// payload pools the small cold solve did not reach (skipped at minimum
	// repetitions, where the pass only has to produce its readings).
	if p.budget > 0 {
		for _, s := range t.each() {
			solve(s)
		}
	}
	var tNative, tOne, tTwo samples
	rng := p.rng()
	p.begin()
	for round := 0; p.more(round, 2); round++ {
		endIter := sc.begin(fmt.Sprintf("heat.round.%d", round))
		for _, i := range rng.Perm(3) {
			switch i {
			case 0:
				tNative.add(solve(t.native))
			case 1:
				tOne.add(solve(t.one))
			case 2:
				tTwo.add(solve(t.two))
			}
		}
		endIter()
	}
	p.slot(0, tTwo, 1)
	p.slot(1, tOne, 1)
	p.slot(2, tNative, 1)
	p.r.put("solve_s."+p.workload, median(tTwo), len(tTwo))
	p.r.put("dcl_over_native_x."+p.workload, median(tOne)/median(tNative), len(tOne))
	p.r.put("scaling_2d_x."+p.workload, median(tOne)/median(tTwo), len(tTwo))
	if host.NProc < 2 {
		p.r.put("scaling_2d_x."+p.workload, 0, 0)
		p.r.note("scaling_2d_x."+p.workload, "unresolved: nproc < 2")
	}
	if !p.traced() {
		return nil
	}
	c0 := kernel.WorkGroupCompiles()
	solve(t.two)
	p.wgCompiles += int(kernel.WorkGroupCompiles() - c0)
	return heatLadder(p, t.two, sc)
}

// heatLadder drives the darray layer step by step on the 2-daemon stack:
// the per-phase times heat.Run hides, and the bytes each iteration puts
// on the peer plane and on the client connections.
func heatLadder(p *pass, s *stack, sc *scope) error {
	init := heat.InitialState(heatW, heatH)
	end := sc.begin("heat.ladder")
	defer end()
	ctx, err := tracePlatform(s.plat, sc, "client").CreateContext(s.devs)
	if err != nil {
		return err
	}
	defer func() { _ = ctx.Release() }() // readings are taken; a failed release changes nothing

	span := func(name string, fn func() error) (time.Duration, error) {
		defer sc.begin(name)()
		t0 := time.Now()
		err := fn()
		return time.Since(t0), err
	}

	g, err := darray.NewGrid(ctx, s.devs, dotRowsSource, heatW, heatH)
	if err != nil {
		return err
	}
	defer g.Release()
	halo, err := darray.InferHalo(heat.KernelSource, heat.StepKernel)
	if err != nil {
		return err
	}
	a, err := g.NewArray()
	if err != nil {
		return err
	}
	b, err := g.NewArray()
	if err != nil {
		return err
	}
	d, err := span("darray.Scatter", func() error { return a.Scatter(init) })
	if err != nil {
		return err
	}
	p.r.put("darray.scatter_ms", d.Seconds()*1e3, 1)

	var loop *darray.Loop
	d, err = span("darray.RecordPingPong", func() error {
		loop, err = g.RecordPingPong(heat.StepKernel, a, b, halo, float32(heatAlpha))
		return err
	})
	if err != nil {
		return err
	}
	defer loop.Release()
	p.r.put("darray.record_ms", d.Seconds()*1e3, 1)

	const warm = 8
	if err := loop.Iterate(warm, nil); err != nil {
		return err
	}
	graphs := 0
	for _, n := range s.cl.nodes {
		graphs += n.d.CachedGraphs()
	}
	p.r.put("daemon.cached_graphs", float64(graphs), 1)

	peer0, client0 := p.w.peerDial.bytes(), p.w.client.bytes()
	d, err = span("darray.Iterate", func() error { return loop.Iterate(heatLadderIters, nil) })
	if err != nil {
		return err
	}
	iters := float64(heatLadderIters)
	p.r.put("darray.iter_ms", d.Seconds()*1e3/iters, heatLadderIters)
	peerPerIter := float64(p.w.peerDial.bytes()-peer0) / iters
	p.r.put("daemon.peer_bytes_per_iter", peerPerIter, heatLadderIters)
	p.r.put("daemon.peer_over_surface_x", peerPerIter/float64(2*heatW*4), heatLadderIters)
	p.r.put("darray.client_bytes_per_iter", float64(p.w.client.bytes()-client0)/iters, heatLadderIters)

	var got []float32
	d, err = span("darray.Gather", func() error {
		got, err = loop.Result().Gather()
		return err
	})
	want := heat.Reference(heat.Params{W: heatW, H: heatH, Iters: warm + heatLadderIters, Alpha: heatAlpha}, init)
	p.op(err == nil && sameFloats(got, want), "heat ladder: err=%v", err)
	p.r.put("darray.gather_ms", d.Seconds()*1e3, 1)

	// DotRows is the host-synchronised use of the same layer: launch per
	// partition, drain, gather the partials.
	var dot float32
	per, n, err := timeLoop(p.loop/2, 1, func() error {
		defer sc.begin("darray.DotRows")()
		dot, err = g.DotRows("dotrows", a, b)
		return err
	})
	if err != nil {
		return err
	}
	p.r.put("darray.dotrows_us", per*1e6, n)
	p.op(!math.IsNaN(float64(dot)), "heat ladder: DotRows returned NaN")
	return nil
}
