package darray

import (
	"dopencl/internal/cl"
	"dopencl/internal/sched"
)

// Halo is the ghost-region width of a stencil in rows: Lo rows of
// upward reach (towards lower row indices), Hi rows of downward reach.
// A 5-point Jacobi stencil has Halo{Lo: 1, Hi: 1}.
type Halo struct {
	Lo, Hi int
}

// launchSpans splits one partition into up to three launches: the top
// boundary rows (the ones the previous partition's halo reads), the
// bottom boundary rows (read by the next partition), and the interior.
// Boundary launches are enqueued first. Under eager Step each launch has
// its own event, so a neighbour's halo forward waits only for the small
// boundary launch and streams while the interior — which reads only
// locally owned rows for a symmetric stencil — is still computing. Under
// replay (RecordPingPong) the launches of a partition are one command
// buffer with one event: a neighbour waits for the whole iteration, and
// the daemons run in lockstep per iteration. They still compute at the
// same time, because a halo row is read on the source device's copy
// engine while its next iteration computes. Gating the boundary and the
// interior as separate replays was measured on loopback: no gain, twice
// the frames.
func launchSpans(p sched.Span, halo Halo) []sched.Span {
	topHi := min(p.Lo+halo.Hi, p.Hi)
	botLo := max(p.Hi-halo.Lo, topHi)
	spans := make([]sched.Span, 0, 3)
	for _, s := range []sched.Span{{Lo: p.Lo, Hi: topHi}, {Lo: botLo, Hi: p.Hi}, {Lo: topHi, Hi: botLo}} {
		if s.Len() > 0 {
			spans = append(spans, s)
		}
	}
	return spans
}

// enqueueStencil enqueues one stencil launch covering rows span of the
// output: out is bound to exactly the written rows (so the coherence
// claim covers only this launch, and so does the gate neighbours'
// forwards wait on when the launch is eager), in to the rows the stencil
// reaches, clamped to the domain.
func (g *Grid) enqueueStencil(pi int, k cl.Kernel, dst, src *Array, span sched.Span, halo Halo, scalars []any) (cl.Event, error) {
	out, err := dst.view(span)
	if err != nil {
		return nil, err
	}
	inSpan := sched.Span{Lo: max(0, span.Lo-halo.Lo), Hi: min(g.h, span.Hi+halo.Hi)}
	in, err := src.view(inSpan)
	if err != nil {
		return nil, err
	}
	args := append([]any{out, in, int32(g.w), int32(g.h), int32(inSpan.Lo * g.w)}, scalars...)
	if err := setArgs(k, args...); err != nil {
		return nil, err
	}
	return g.queues[pi].EnqueueNDRangeKernelWithOffset(k,
		[]int{span.Lo * g.w}, []int{span.Len() * g.w}, nil, nil)
}

// Step runs dst = kernel(src) once across all partitions and waits for
// completion. Halo rows of src are pulled from their owners on demand
// (peer forwards when the data plane is up). For iterated stencils
// prefer RecordPingPong, which replays a recorded graph instead of
// re-sending every command.
func (g *Grid) Step(name string, dst, src *Array, halo Halo, scalars ...any) error {
	k, err := g.kernel(name)
	if err != nil {
		return err
	}
	var launches []cl.Event
	for pi, p := range g.parts {
		for _, span := range launchSpans(p, halo) {
			ev, err := g.enqueueStencil(pi, k, dst, src, span, halo, scalars)
			if err != nil {
				return err
			}
			launches = append(launches, ev)
		}
	}
	return g.wait(launches)
}

// Map runs an elementwise kernel over the owned rows of every array and
// waits for completion. Arrays are bound in order, followed by w, h and
// the scalars (the Map kernel convention).
func (g *Grid) Map(name string, arrays []*Array, scalars ...any) error {
	k, err := g.kernel(name)
	if err != nil {
		return err
	}
	var launches []cl.Event
	for pi, p := range g.parts {
		if p.Len() == 0 {
			continue
		}
		args := make([]any, 0, len(arrays)+2+len(scalars))
		for _, a := range arrays {
			v, err := a.view(p)
			if err != nil {
				return err
			}
			args = append(args, v)
		}
		args = append(args, int32(g.w), int32(g.h))
		args = append(args, scalars...)
		if err := setArgs(k, args...); err != nil {
			return err
		}
		ev, err := g.queues[pi].EnqueueNDRangeKernelWithOffset(k,
			[]int{p.Lo * g.w}, []int{p.Len() * g.w}, nil, nil)
		if err != nil {
			return err
		}
		launches = append(launches, ev)
	}
	return g.wait(launches)
}

// DotRows computes the dot product of x and y with one work-item per
// row writing a float32 row partial, then sums the partials on the host
// in row order. Because every row partial is computed by exactly one
// work-item with the same float32 operation order regardless of which
// device owns the row, the result is bit-identical across partitions —
// the property the CG solver's oracle equivalence rests on.
func (g *Grid) DotRows(name string, x, y *Array) (float32, error) {
	k, err := g.kernel(name)
	if err != nil {
		return 0, err
	}
	part, err := g.partials()
	if err != nil {
		return 0, err
	}
	var launches []cl.Event
	for pi, p := range g.parts {
		if p.Len() == 0 {
			continue
		}
		pv, err := part.view(p)
		if err != nil {
			return 0, err
		}
		xv, err := x.view(p)
		if err != nil {
			return 0, err
		}
		yv, err := y.view(p)
		if err != nil {
			return 0, err
		}
		if err := setArgs(k, pv, xv, yv, int32(g.w), int32(g.h)); err != nil {
			return 0, err
		}
		// One work-item per row: the offset space is rows, not cells.
		ev, err := g.queues[pi].EnqueueNDRangeKernelWithOffset(k,
			[]int{p.Lo}, []int{p.Len()}, nil, nil)
		if err != nil {
			return 0, err
		}
		launches = append(launches, ev)
	}
	if err := g.wait(launches); err != nil {
		return 0, err
	}
	vals, err := part.Gather()
	if err != nil {
		return 0, err
	}
	var sum float32
	for _, v := range vals {
		sum += v
	}
	return sum, nil
}

// partials returns the grid's per-row partials vector (h rows of one
// float32 each), created on the first DotRows and shared by the rest.
func (g *Grid) partials() (*Array, error) {
	if g.part == nil {
		a, err := g.newArray(4)
		if err != nil {
			return nil, err
		}
		g.part = a
	}
	return g.part, nil
}

// Loop is a recorded ping-pong stencil iteration: per partition, two
// command buffers (a→b and b→a) captured once and replayed alternately.
// Each iteration costs one graph-replay delta frame per daemon plus the
// halo forwards the replayed reads pull in — O(surface) wire traffic.
type Loop struct {
	g       *Grid
	a, b    *Array
	cbs     [2][]cl.CommandBuffer // [parity][partition]
	steps   int
	pending [][]cl.Event // in-flight iterations, oldest first
}

// RecordPingPong records the steady-state iteration dst=step(src) with
// the roles of a and b alternating. The returned Loop starts with a as
// the source: after n iterations the latest state is in a if n is even,
// b otherwise.
func (g *Grid) RecordPingPong(name string, a, b *Array, halo Halo, scalars ...any) (*Loop, error) {
	k, err := g.kernel(name)
	if err != nil {
		return nil, err
	}
	l := &Loop{g: g, a: a, b: b}
	record := func(dst, src *Array) ([]cl.CommandBuffer, error) {
		var cbs []cl.CommandBuffer
		for pi, p := range g.parts {
			q := g.queues[pi]
			if err := q.BeginRecording(); err != nil {
				return nil, err
			}
			for _, span := range launchSpans(p, halo) {
				if _, err := g.enqueueStencil(pi, k, dst, src, span, halo, scalars); err != nil {
					return nil, err
				}
			}
			cb, err := q.Finalize()
			if err != nil {
				return nil, err
			}
			cbs = append(cbs, cb)
		}
		return cbs, nil
	}
	if l.cbs[0], err = record(b, a); err != nil {
		return nil, err
	}
	if l.cbs[1], err = record(a, b); err != nil {
		return nil, err
	}
	return l, nil
}

// maxInFlight bounds the replay pipeline: with two iterations in
// flight, iteration i+1's replay frames and halo-forward commands are
// already parked at the daemons, gated on iteration i's events, while
// iteration i computes — no client round trip sits between iterations —
// without the host running unboundedly ahead.
const maxInFlight = 2

// Iterate replays n iterations. onIter (optional) runs after each
// iteration's frames are enqueued, with the global iteration count
// (including previous Iterate calls) as argument. On error the loop is
// poisoned: the caller must rebuild from a checkpoint.
func (l *Loop) Iterate(n int, onIter func(iter int) error) error {
	for i := 0; i < n; i++ {
		par := l.steps % 2
		evs := make([]cl.Event, 0, len(l.g.queues))
		for pi, q := range l.g.queues {
			ev, err := q.EnqueueCommandBuffer(l.cbs[par][pi], nil, nil)
			if err != nil {
				return err
			}
			evs = append(evs, ev)
		}
		l.steps++
		l.pending = append(l.pending, evs)
		if onIter != nil {
			if err := onIter(l.steps); err != nil {
				return err
			}
		}
		for len(l.pending) > maxInFlight {
			if err := cl.WaitForEvents(l.pending[0]); err != nil {
				return err
			}
			l.pending = l.pending[1:]
		}
	}
	return l.drain()
}

// drain waits for every in-flight iteration.
func (l *Loop) drain() error {
	for len(l.pending) > 0 {
		if err := cl.WaitForEvents(l.pending[0]); err != nil {
			return err
		}
		l.pending = l.pending[1:]
	}
	return l.g.finish()
}

// Result returns the array holding the latest state.
func (l *Loop) Result() *Array {
	if l.steps%2 == 0 {
		return l.a
	}
	return l.b
}

// Release frees the recorded command buffers.
func (l *Loop) Release() {
	for _, par := range l.cbs {
		for _, cb := range par {
			if cb != nil {
				cb.Release()
			}
		}
	}
	l.cbs = [2][]cl.CommandBuffer{}
}
