package vm

import (
	"runtime"
	"sync"
	"sync/atomic"

	"dopencl/internal/kernel"
)

// BatchJob is one job of a batched launch: its own argument bindings and
// ND-range shape against the batch's shared program and kernel.
type BatchJob struct {
	Args         []Arg
	GlobalSize   []int
	GlobalOffset []int
	LocalSize    []int // nil or zeros to auto-select
}

// Batch describes N independent jobs of the same compiled kernel executed
// as one dispatch: the worker pool spins up once, the work-group plan is
// fetched once and every worker takes one plan runner, which it re-binds
// to each job it pulls. This is the serve-path
// coalescing entry point — for many small ND-ranges the per-launch
// overhead (pool spinup, plan lookup, validation) dominates, and batching
// amortizes it across every job in the window. Jobs stay semantically
// independent: each keeps its own arguments, shape and error.
type Batch struct {
	Prog        *kernel.Program
	Kernel      *kernel.Func
	Jobs        []BatchJob
	Workers     int  // concurrent jobs; <= 0 selects GOMAXPROCS
	Unoptimized bool // as Launch.Unoptimized
}

// RunBatch executes every job of the batch and returns one error slot per
// job (nil on success) plus aggregate execution statistics. A job that
// fails validation or traps never affects its neighbors; only a nil
// kernel fails the batch as a whole.
func RunBatch(b Batch) ([]error, Stats) {
	errs := make([]error, len(b.Jobs))
	if b.Kernel == nil {
		err := &TrapError{Kernel: "?", Msg: "batch requires a kernel function"}
		for i := range errs {
			errs[i] = err
		}
		return errs, Stats{}
	}

	// Validate every job upfront, building its dispatch in place in the
	// batch's one run slice. Invalid jobs get their error recorded and
	// drop out of the run set: the next job prepares over their slot.
	type jobRun struct {
		idx    int
		groups int
		disp   dispatch
	}
	runs := make([]jobRun, len(b.Jobs))
	n, itemsPerGroup := 0, 0
	for i := range b.Jobs {
		j, jr := &b.Jobs[i], &runs[n]
		groups, err := prepare(&jr.disp, b.Prog, b.Kernel, j.Args, j.GlobalSize, j.GlobalOffset, j.LocalSize)
		if err != nil {
			errs[i] = err
			continue
		}
		jr.idx, jr.groups = i, groups
		itemsPerGroup = jr.disp.itemsPerGroup // representative; jobs may differ
		n++
	}
	runs = runs[:n]
	if n == 0 {
		return errs, Stats{}
	}

	// One plan fetch for the whole batch (cached on the kernel function,
	// so this is a map hit after the first ever launch).
	plan := selectPlan(b.Prog, b.Kernel, b.Unoptimized)

	workers := b.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(runs) {
		workers = len(runs)
	}

	var wg sync.WaitGroup
	var next int64
	var c runCounters
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var pr *planRunner
			for {
				id := atomic.AddInt64(&next, 1) - 1
				if id >= int64(len(runs)) {
					break
				}
				jr := &runs[id]
				if pr == nil {
					pr = acquireRunner(&jr.disp, plan)
				} else {
					pr.bind(&jr.disp)
				}
				for gid := 0; gid < jr.groups; gid++ {
					if err := pr.runGroup(gid); err != nil {
						errs[jr.idx] = err
						break
					}
				}
			}
			if pr != nil {
				pr.release(&c)
			}
		}()
	}
	wg.Wait()

	totalGroups := 0
	for _, jr := range runs {
		totalGroups += jr.groups
	}
	return errs, c.stats(totalGroups, totalGroups, itemsPerGroup, &plan.Info)
}
