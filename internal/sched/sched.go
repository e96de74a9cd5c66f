// Package sched implements data-parallel kernel execution across the
// devices of a dOpenCL lease: one logical ND-range is split into chunks
// that execute concurrently on every device — potentially on different
// daemons — and the region-granular coherence directory stitches the
// partitioned results back together.
//
// This is the co-execution model of EngineCL (Nozal et al.) and HDArray
// (Cho et al.) on top of the paper's uniform platform: the application
// still writes one kernel against one buffer; the scheduler decides which
// device computes which contiguous block.
//
// sched also owns the repository's one partition type. A Span holds
// the indices Lo, Lo+Step, … below Hi (Step 0: the contiguous range),
// and three cuts make every partition in the tree: Split (proportional
// to weights, boundaries aligned: Static's chunks and darray's rows),
// Chunks (fixed-size runs: OSEM's subsets) and Cyclic (round-robin:
// Mandelbrot's row-cyclic tiles).
//
// Mechanics per contiguous chunk [s, e):
//
//   - the kernel launches with global work offset s and global size e-s,
//     so get_global_id(0) yields TRUE coordinates in [s, e);
//   - every partitioned buffer argument (Part) is rebound to a sub-buffer
//     view of [s*BytesPerItem, e*BytesPerItem), so the coherence layer
//     knows the launch touches exactly that range: N daemons end up each
//     holding Modified on their own chunks, with zero transfers between
//     iterations and a stitched (range-per-holder) final read.
//
// Kernel convention: index partitioned arguments relative to the chunk,
//
//	int gid = get_global_id(0);            // global coordinate
//	out[gid - get_global_offset(0)] = f(gid);
//
// Two policies exist, both EngineCL-shaped:
//
//   - Static: one contiguous chunk per device, sized proportionally to a
//     weight (explicit, or derived from the device's compute units ×
//     clock). Minimal launch overhead; right when device speeds are known.
//   - Dynamic: a shared queue of chunks claimed by whichever device is
//     idle, with per-device throughput feedback scaling each device's
//     next chunk — fast devices claim bigger chunks, so stragglers bound
//     the tail by at most one small chunk.
package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dopencl/internal/cl"
)

// Part marks one kernel argument as partitioned: for chunk [s, e) the
// argument is bound to Buffer.CreateSubBuffer(s*BytesPerItem,
// (e-s)*BytesPerItem). Works for outputs (each device writes its own
// range) and for block-distributed inputs alike.
type Part struct {
	Arg          int
	Buffer       cl.Buffer
	BytesPerItem int
}

// Launch describes one data-parallel 1-D ND-range.
type Launch struct {
	Program cl.Program
	Kernel  string
	// Args is the full base argument list, indexed like the kernel's
	// parameters. Entries at partitioned indices may be nil (they are
	// rebound per chunk).
	Args  []any
	Parts []Part
	// Global is the total number of work items; Local the work-group size
	// (0 lets each device pick). Chunk boundaries align to Local.
	Global int
	Local  int
}

// Worker is one device executor: a queue plus an optional relative
// throughput weight (0 derives a prior from the device description).
type Worker struct {
	Queue cl.Queue
	// Weight biases the static split and the dynamic first-chunk size.
	Weight float64
}

// Report is one worker's execution summary, the per-device throughput
// feedback both policies expose (and Dynamic feeds back into chunking).
type Report struct {
	Device      string
	Items       int
	Chunks      int
	Busy        time.Duration
	ItemsPerSec float64
}

// Policy decides how the ND-range is carved into chunks.
type Policy interface {
	// run executes the launch over the prepared workers.
	run(ws []*worker, l *Launch, align int) error
}

// Static splits the range into one contiguous chunk per device,
// proportional to the worker weights.
type Static struct{}

// Dynamic hands out chunks from a shared cursor; each worker's next
// chunk scales with its measured throughput relative to the fleet mean.
//
// Dynamic also re-plans around failures mid-run: when a worker's device
// dies (its daemon's connection was lost), the worker's in-flight chunk
// AND every chunk it already completed are handed back to the survivors
// — the dead daemon's results are gone with it (the coherence directory
// marks them Lost), so they must be recomputed, and the rewrites clear
// the Lost ranges. The launch only fails when no worker survives.
type Dynamic struct {
	// Chunk is the base chunk size in work items; 0 picks
	// Global/(8×workers), at least one work-group.
	Chunk int
	// Observer, when set, is called after each completed chunk with the
	// executing device's name and the chunk bounds. Chaos tests use it to
	// trigger deterministic mid-run faults.
	Observer func(device string, s, e int)
}

// worker is the per-device execution state.
type worker struct {
	queue  cl.Queue
	kernel cl.Kernel
	weight float64

	mu    sync.Mutex
	items int
	chunk int
	busy  time.Duration
}

// tput returns the worker's measured throughput in items/sec (0 before
// the first chunk completes).
func (w *worker) tput() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.busy <= 0 || w.items == 0 {
		return 0
	}
	return float64(w.items) / w.busy.Seconds()
}

func (w *worker) note(items int, d time.Duration) {
	w.mu.Lock()
	w.items += items
	w.chunk++
	w.busy += d
	w.mu.Unlock()
}

// launchChunk binds the partitioned arguments for the contiguous chunk
// c, fires the kernel with global offset c.Lo, and waits for completion
// (the wait is what yields per-chunk throughput feedback).
func (w *worker) launchChunk(l *Launch, c Span) error {
	var subs []cl.Buffer
	for _, p := range l.Parts {
		sub, err := p.Buffer.CreateSubBuffer(c.Lo*p.BytesPerItem, c.Len()*p.BytesPerItem)
		if err != nil {
			return err
		}
		if err := w.kernel.SetArg(p.Arg, sub); err != nil {
			return err
		}
		subs = append(subs, sub)
	}
	var local []int
	if l.Local > 0 {
		local = []int{l.Local}
	}
	ev, err := w.queue.EnqueueNDRangeKernelWithOffset(w.kernel, []int{c.Lo}, []int{c.Len()}, local, nil)
	if err != nil {
		return err
	}
	werr := ev.Wait()
	for _, sub := range subs {
		if rerr := sub.Release(); rerr != nil && werr == nil {
			werr = rerr
		}
	}
	return werr
}

// defaultWeight derives a throughput prior from the device description.
func defaultWeight(d cl.Device) float64 {
	info := d.Info()
	w := float64(info.ComputeUnits)
	if info.ClockMHz > 0 {
		w *= float64(info.ClockMHz)
	}
	if w <= 0 {
		return 1
	}
	return w
}

// alignUp rounds n up to a multiple of align, capped at limit.
func alignUp(n, align, limit int) int {
	if align > 1 {
		if rem := n % align; rem != 0 {
			n += align - rem
		}
	}
	if n > limit {
		n = limit
	}
	return n
}

// Run executes the launch across the workers under the given policy and
// returns the per-device reports (the throughput feedback).
func Run(l Launch, workers []Worker, p Policy) ([]Report, error) {
	if l.Program == nil || l.Kernel == "" {
		return nil, cl.Errf(cl.InvalidKernelName, "sched: launch requires a program and kernel name")
	}
	if l.Global <= 0 {
		return nil, cl.Errf(cl.InvalidWorkGroupSize, "sched: global size %d", l.Global)
	}
	if l.Local < 0 || (l.Local > 0 && l.Global%l.Local != 0) {
		return nil, cl.Errf(cl.InvalidWorkGroupSize, "sched: global %d not divisible by local %d", l.Global, l.Local)
	}
	if len(workers) == 0 {
		return nil, cl.Errf(cl.DeviceNotFound, "sched: no workers")
	}
	for _, pt := range l.Parts {
		if pt.Buffer == nil || pt.BytesPerItem <= 0 {
			return nil, cl.Errf(cl.InvalidMemObject, "sched: partitioned argument %d needs a buffer and a positive item size", pt.Arg)
		}
		if pt.Buffer.Size() < l.Global*pt.BytesPerItem {
			return nil, cl.Errf(cl.InvalidBufferSize, "sched: partitioned argument %d: buffer %d bytes < %d items × %d",
				pt.Arg, pt.Buffer.Size(), l.Global, pt.BytesPerItem)
		}
	}
	if p == nil {
		p = Static{}
	}
	align := l.Local
	if align <= 0 {
		align = 1
	}

	// One kernel instance per worker: concurrent chunks must not race on
	// argument bindings (kernel objects capture args at enqueue, but the
	// bind-launch pair itself needs isolation).
	ws := make([]*worker, len(workers))
	partIdx := map[int]bool{}
	for _, pt := range l.Parts {
		partIdx[pt.Arg] = true
	}
	// On a partway setup failure every kernel created so far is released:
	// each is a remote object replicated across the context's servers,
	// and leaking one per failed Run would accumulate daemon-side state.
	releaseUpTo := func(n int) {
		for j := 0; j < n; j++ {
			if rerr := ws[j].kernel.Release(); rerr != nil {
				_ = rerr
			}
		}
	}
	for i, wk := range workers {
		if wk.Queue == nil {
			releaseUpTo(i)
			return nil, cl.Errf(cl.InvalidCommandQueue, "sched: worker %d has no queue", i)
		}
		k, err := l.Program.CreateKernel(l.Kernel)
		if err != nil {
			releaseUpTo(i)
			return nil, err
		}
		for ai, v := range l.Args {
			if partIdx[ai] || v == nil {
				continue
			}
			if err := k.SetArg(ai, v); err != nil {
				if rerr := k.Release(); rerr != nil {
					_ = rerr
				}
				releaseUpTo(i)
				return nil, fmt.Errorf("sched: worker %d argument %d: %w", i, ai, err)
			}
		}
		weight := wk.Weight
		if weight <= 0 {
			weight = defaultWeight(wk.Queue.Device())
		}
		ws[i] = &worker{queue: wk.Queue, kernel: k, weight: weight}
	}

	err := p.run(ws, &l, align)

	reports := make([]Report, len(ws))
	for i, w := range ws {
		w.mu.Lock()
		r := Report{Device: w.queue.Device().Name(), Items: w.items, Chunks: w.chunk, Busy: w.busy}
		w.mu.Unlock()
		if r.Busy > 0 {
			r.ItemsPerSec = float64(r.Items) / r.Busy.Seconds()
		}
		reports[i] = r
		if rerr := w.kernel.Release(); rerr != nil && err == nil {
			err = rerr
		}
	}
	if err != nil {
		return reports, err
	}
	return reports, nil
}

// run implements the static proportional split: worker i computes one
// contiguous chunk sized weight_i/Σweights of the range (aligned), all
// chunks executing concurrently.
func (Static) run(ws []*worker, l *Launch, align int) error {
	weights := make([]float64, len(ws))
	for i, w := range ws {
		weights[i] = w.weight
	}
	spans := Split(l.Global, weights, align)

	var wg sync.WaitGroup
	errs := make([]error, len(ws))
	for i, w := range ws {
		if spans[i].Len() == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, w *worker, sp Span) {
			defer wg.Done()
			start := time.Now()
			if err := w.launchChunk(l, sp); err != nil {
				errs[i] = err
				return
			}
			w.note(sp.Len(), time.Since(start))
		}(i, w, spans[i])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// serverLostErr reports whether an error means the executing device's
// daemon is gone (connection lost or refused) rather than the launch
// itself being invalid — the distinction between "re-plan around this
// worker" and "the program is wrong".
func serverLostErr(err error) bool {
	code := cl.CodeOf(err)
	return code == cl.ServerLost || code == cl.InvalidServer
}

// run implements dynamic chunk stealing: a shared cursor hands out
// contiguous chunks; each worker's chunk size scales with its measured
// throughput relative to the fleet mean (per-device feedback), so a
// device twice as fast claims chunks twice as big and the idle tail is
// bounded by one slow-device chunk.
//
// Failure re-planning: a worker whose chunk fails with a server-loss
// error retires and pushes back onto the shared queue both the chunk it
// was running and every chunk it had completed (the results died with
// the daemon). Idle workers park on a condition variable instead of
// exiting while any peer is still busy — that peer may die and requeue
// work — so the range is complete exactly when the queue is empty and
// nobody is running.
func (d Dynamic) run(ws []*worker, l *Launch, align int) error {
	base := d.Chunk
	if base <= 0 {
		base = l.Global / (8 * len(ws))
	}
	if base < align {
		base = align
	}
	base = alignUp(base, align, l.Global)

	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	next := 0
	var requeued []Span // chunks handed back by dead workers
	busy := 0

	chunkSize := func(w *worker) int {
		// Feedback-scaled chunk: relative throughput × base.
		size := base
		if t := w.tput(); t > 0 {
			sum, n := 0.0, 0
			for _, o := range ws {
				if ot := o.tput(); ot > 0 {
					sum += ot
					n++
				}
			}
			if n > 0 {
				size = int(float64(base) * t / (sum / float64(n)))
			}
		}
		if size < align {
			size = align
		}
		return size
	}

	// grab returns the next chunk, blocking while the queue is empty but
	// a busy peer could still hand work back. ok=false means the whole
	// range is done (or abandoned): no work and nobody running.
	grab := func(w *worker) (Span, bool) {
		size := chunkSize(w)
		mu.Lock()
		defer mu.Unlock()
		for {
			if n := len(requeued); n > 0 {
				r := requeued[n-1]
				requeued = requeued[:n-1]
				busy++
				return r, true
			}
			if next < l.Global {
				s := next
				e := alignUp(s+size, align, l.Global)
				if e <= s {
					e = l.Global
				}
				next = e
				busy++
				return Span{Lo: s, Hi: e}, true
			}
			if busy == 0 {
				return Span{}, false
			}
			cond.Wait()
		}
	}

	dead := make([]bool, len(ws))
	doneBy := make([][]Span, len(ws)) // completed chunks, requeued if the worker dies
	var lastLoss error

	// One round: alive workers drain the queue (cursor + requeued).
	round := func() error {
		var wg sync.WaitGroup
		errs := make([]error, len(ws))
		alive := int32(0)
		for i := range ws {
			if !dead[i] {
				alive++
			}
		}
		for i, w := range ws {
			if dead[i] {
				continue
			}
			wg.Add(1)
			go func(i int, w *worker) {
				defer wg.Done()
				for {
					r, ok := grab(w)
					if !ok {
						return
					}
					start := time.Now()
					err := w.launchChunk(l, r)
					mu.Lock()
					busy--
					if err != nil && serverLostErr(err) {
						// The daemon is gone and took this worker's
						// results with it: hand everything back and
						// retire. If this was the last worker the launch
						// fails with the loss.
						requeued = append(requeued, r)
						requeued = append(requeued, doneBy[i]...)
						doneBy[i] = nil
						dead[i] = true
						lastLoss = err
						if atomic.AddInt32(&alive, -1) == 0 {
							errs[i] = err
						}
						cond.Broadcast()
						mu.Unlock()
						return
					}
					if err != nil {
						errs[i] = err
						cond.Broadcast()
						mu.Unlock()
						return
					}
					doneBy[i] = append(doneBy[i], r)
					cond.Broadcast()
					mu.Unlock()
					w.note(r.Len(), time.Since(start))
					if d.Observer != nil {
						d.Observer(w.queue.Device().Name(), r.Lo, r.Hi)
					}
				}
			}(i, w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}

	for {
		if err := round(); err != nil {
			return err
		}
		// Liveness barrier: a daemon can die AFTER its worker drained its
		// last chunk — no launch fails, but the results are gone. Each
		// surviving worker's Finish proves (a) its queue fully executed
		// and (b) its daemon was alive to answer; a failed Finish
		// requeues that worker's completed chunks for the next round.
		anyAlive := false
		for i, w := range ws {
			if dead[i] {
				continue
			}
			if err := w.queue.Finish(); err != nil {
				if !serverLostErr(err) {
					return err
				}
				mu.Lock()
				requeued = append(requeued, doneBy[i]...)
				doneBy[i] = nil
				dead[i] = true
				lastLoss = err
				mu.Unlock()
				continue
			}
			anyAlive = true
		}
		mu.Lock()
		pending := len(requeued) > 0 || next < l.Global
		mu.Unlock()
		if !pending {
			return nil
		}
		if !anyAlive {
			if lastLoss != nil {
				return lastLoss
			}
			return cl.Errf(cl.ServerLost, "sched: all workers lost before the range completed")
		}
		// Work remains and someone survives: next round drains it.
	}
}
