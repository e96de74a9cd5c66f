// Package vm executes compiled MiniCL kernels (internal/kernel plans:
// register IR) over OpenCL-style ND-ranges. There is one executor, the
// plan runner of fused.go, and it runs work-items in lock step.
//
// Work-groups are distributed over a worker pool whose size models the
// device's compute units; the items of one work-group run on a single
// goroutine, a strip at a time. A strip is up to 64 consecutive
// dimension-0 items of the group — the whole group if the kernel has
// barriers — and each item of it is a lane: registers are rows of lanes
// (constants and group-uniform values are rows whose lanes are equal; the
// coordinate and induction registers are seeded per strip as first value +
// lane x step, except those the plan reads only as an access's plain
// index, which have no row: the access computes base + lane x step), and
// every IR instruction, each fused step included, is one loop specialised
// for its opcode over the lanes of the running set, its operand rows
// resolved when the runner lays out its rows. What an instruction costs to
// dispatch is so paid once per strip, while Stats.Instructions still
// counts it once per item.
//
//   - Dense runs. A running set that is one run of lanes runs steps over
//     the rows resliced to it, counts a branch in its compare's pass and
//     moves a unit-stride, in-range access as one block (little-endian
//     hosts): through an index-only induction of step 1 with one range
//     check. Other sets and accesses, division and builtins go lane by
//     lane, so traps fall as before; instructions are counted either way.
//   - Position guards. A branch on where an item is has a kernel.RGuard,
//     whose slice runs once per strip in closed form (a value is affine in
//     the lane or a sum of compare flags) and splits the running set as
//     the branch would, each lane charged the slice and the branch. A
//     strip it cannot decide (one crossing a div/mod period, a lane
//     outside int32) runs the slice.
//   - Lane sets. The running set starts as the whole strip. A branch on
//     which its lanes disagree splits it: the side with the lower pc runs
//     on, the other waits with its pc; whenever a waiting set's pc is at or
//     before the running one's, the lower goes first, and sets that meet at
//     the same pc become one again — so the sides of an if or the items
//     that leave a loop early rejoin where their paths do.
//   - Barriers. A set that arrives at a barrier waits there; when no set
//     can run, all that wait resume (joined by resume pc), a deterministic
//     rendering of OpenCL's barrier semantics that needs no per-work-item
//     goroutines. All items of a group must arrive at a barrier or none: if
//     some ended instead, the launch fails with "barrier divergence".
//   - Traps. The first lane to reach a trap need not be the lowest item
//     that will trap, so a trap is recorded with its lane, that lane and
//     all above it are dropped from every set, and the lower ones run on to
//     the next barrier or their end: the launch reports the trap of the
//     lowest-numbered item of the group that traps before the next barrier,
//     as if the items had run one after another. Strips run in order, so
//     every item of an earlier strip has finished by then.
package vm

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"dopencl/internal/kernel"
)

// Arg is a kernel argument bound for a launch.
type Arg struct {
	Kind      kernel.ArgKind
	Scalar    uint64 // scalar slot image (int32 sign pattern / float32 bits)
	Global    []byte // backing store for global buffer arguments
	LocalSize int    // byte size for local buffer arguments
}

// IntArg builds a scalar int argument.
func IntArg(v int32) Arg {
	return Arg{Kind: kernel.ArgScalarInt, Scalar: uint64(uint32(v))}
}

// FloatArg builds a scalar float argument.
func FloatArg(v float32) Arg {
	return Arg{Kind: kernel.ArgScalarFloat, Scalar: uint64(math.Float32bits(v))}
}

// GlobalArg builds a global buffer argument backed by buf.
func GlobalArg(buf []byte) Arg { return Arg{Kind: kernel.ArgGlobalBuf, Global: buf} }

// LocalArg builds a local (work-group scratch) buffer argument of size bytes.
func LocalArg(size int) Arg { return Arg{Kind: kernel.ArgLocalBuf, LocalSize: size} }

// Launch describes one ND-range kernel execution.
type Launch struct {
	Prog       *kernel.Program
	Kernel     *kernel.Func
	Args       []Arg
	GlobalSize []int // 1-3 dimensions
	// GlobalOffset shifts every work-item's global ID by the given amount
	// per dimension (clEnqueueNDRangeKernel's global_work_offset): item
	// coordinates run over [offset, offset+size). Nil means zero. This is
	// what lets one logical ND-range be split into chunks executing on
	// different devices while each work item keeps its true coordinates.
	GlobalOffset []int
	LocalSize    []int // nil or zeros to auto-select
	Workers      int   // concurrent work-groups; <= 0 selects GOMAXPROCS
	// GroupLimit, when > 0, executes only N work-groups evenly spread
	// across the ND-range (cost sampling for modeled devices). Output is
	// only produced for the sampled groups.
	GroupLimit int
	// Unoptimized runs the kernel's IR as lowered, with no compiler pass
	// applied: the reference the property suites hold the optimized plan
	// against. Nothing outside tests sets it.
	Unoptimized bool
}

// Stats reports execution counters for a launch. Modeled devices use the
// instruction count of a sampled subset of work-groups to extrapolate the
// execution time of the full ND-range.
type Stats struct {
	Instructions  uint64 // register-IR instructions executed
	GroupsRun     int    // work-groups actually executed
	GroupsTotal   int    // work-groups in the full ND-range
	ItemsPerGroup int
	// PrologueInstructions counts the once-per-group share of
	// Instructions (hoisted uniform code of compiled plans). Needed to
	// extrapolate cost correctly: hoisting collapses per-item counts,
	// making the per-group share non-negligible.
	PrologueInstructions uint64
	// FusedGroups/CoopGroups split GroupsRun by kernel: groups run as
	// strips of up to 64 items one after another, or — CoopGroups, the
	// groups of kernels with barriers — as one strip of all their items.
	FusedGroups int
	CoopGroups  int
	// Compile reports how compilation of the plan that ran went (lowering
	// and per-pass timings).
	Compile *kernel.WGCompileInfo
}

// EstimateCost extrapolates the total instruction count of an ND-range
// with totalGroups work-groups from this (possibly sampled) run,
// separating per-group cost (prologue) from per-item cost so that the
// estimate stays accurate when hoisting collapses per-item counts.
func (s Stats) EstimateCost(totalGroups int) float64 {
	if s.GroupsRun == 0 || s.ItemsPerGroup == 0 {
		return 0
	}
	perGroup := float64(s.PrologueInstructions) / float64(s.GroupsRun)
	perItem := float64(s.Instructions-s.PrologueInstructions) /
		float64(s.GroupsRun*s.ItemsPerGroup)
	return perGroup*float64(totalGroups) + perItem*float64(totalGroups*s.ItemsPerGroup)
}

// TrapError reports a runtime fault inside kernel execution (division by
// zero, out-of-bounds access, barrier divergence, missing return).
type TrapError struct {
	Kernel string
	Msg    string
}

func (e *TrapError) Error() string {
	return fmt.Sprintf("vm: kernel %s: %s", e.Kernel, e.Msg)
}

// autoLocalSize picks a work-group size for each dimension into local:
// the largest divisor of the global size not exceeding 256 (dimension 0)
// or 16 (higher dimensions), matching typical OpenCL implementation
// defaults.
func autoLocalSize(global, local []int) {
	for d, g := range global {
		limit := 256
		if d > 0 {
			limit = 16
		}
		if g < limit {
			limit = g
		}
		pick := 1
		for c := limit; c >= 1; c-- {
			if g%c == 0 {
				pick = c
				break
			}
		}
		local[d] = pick
	}
}

// Run executes the launch, blocking until every work-group has finished.
func Run(l Launch) error {
	_, err := RunStats(l)
	return err
}

// RunStats executes the launch and returns execution statistics.
func RunStats(l Launch) (Stats, error) {
	if l.Kernel == nil {
		return Stats{}, &TrapError{Kernel: "?", Msg: "launch requires a kernel function"}
	}
	disp := new(dispatch)
	totalGroups, err := prepare(disp, l.Prog, l.Kernel, l.Args, l.GlobalSize, l.GlobalOffset, l.LocalSize)
	if err != nil {
		return Stats{}, err
	}

	runGroups := totalGroups
	if l.GroupLimit > 0 && l.GroupLimit < runGroups {
		runGroups = l.GroupLimit
	}
	workers := l.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > runGroups {
		workers = runGroups
	}

	plan := selectPlan(l.Prog, l.Kernel, l.Unoptimized)

	var next int64
	var c runCounters
	var failed atomic.Value // *TrapError
	// Sampled runs spread the executed groups across the range so cost
	// estimates are not biased toward one corner of the ND-range (e.g. the
	// fast-escaping top rows of a Mandelbrot image).
	stride := 1
	if runGroups < totalGroups {
		stride = totalGroups / runGroups
	}
	work := func() {
		pr := acquireRunner(disp, plan)
		defer pr.release(&c)
		for {
			id := atomic.AddInt64(&next, 1) - 1
			if id >= int64(runGroups) || failed.Load() != nil {
				return
			}
			gid := int(id)*stride + stride/2
			if gid >= totalGroups {
				gid = totalGroups - 1
			}
			if err := pr.runGroup(gid); err != nil {
				failed.CompareAndSwap(nil, err)
				return
			}
		}
	}
	if workers == 1 {
		work() // nothing to overlap with: spare the launch a goroutine
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	stats := c.stats(runGroups, totalGroups, disp.itemsPerGroup, &plan.Info)
	if err := failed.Load(); err != nil {
		return stats, err.(*TrapError)
	}
	return stats, nil
}

// prepare validates one ND-range launch of fn against the kernel
// signature and builds its dispatch into d, allocating nothing: the
// dispatch's local and group shapes live in its own arrays. It returns
// the total work-group count.
func prepare(d *dispatch, prog *kernel.Program, fn *kernel.Func, args []Arg, global, goffset, local []int) (int, error) {
	trap := func(format string, a ...any) (int, error) {
		return 0, &TrapError{Kernel: fn.Name, Msg: fmt.Sprintf(format, a...)}
	}
	if len(global) < 1 || len(global) > 3 {
		return trap("global work size must have 1-3 dimensions")
	}
	for _, g := range global {
		if g <= 0 {
			return trap("global work size must be positive")
		}
	}
	if goffset != nil && len(goffset) != len(global) {
		return trap("global offset dimensionality mismatch")
	}
	for _, o := range goffset {
		if o < 0 {
			return trap("global work offset must be non-negative")
		}
	}
	if len(args) != len(fn.Args) {
		return trap("kernel takes %d arguments, %d bound", len(fn.Args), len(args))
	}
	for i, a := range args {
		if want := fn.Args[i].Kind; a.Kind != want {
			return trap("argument %d: kind mismatch (have %d, want %d)", i, a.Kind, want)
		}
	}

	autoPick := local == nil
	for _, v := range local {
		if v == 0 {
			autoPick = true
			break
		}
	}
	if !autoPick && len(local) != len(global) {
		return trap("local size dimensionality mismatch")
	}
	*d = dispatch{prog: prog, fn: fn, args: args, global: global}
	copy(d.offset[:], goffset)
	d.local = d.shape[:len(global)]
	d.numGroups = d.shape[3 : 3+len(global)]
	if autoPick {
		autoLocalSize(global, d.local)
	} else {
		copy(d.local, local)
	}
	totalGroups := 1
	d.itemsPerGroup = 1
	for dim := range global {
		if d.local[dim] <= 0 || global[dim]%d.local[dim] != 0 {
			return trap("global size %d not divisible by local size %d in dimension %d",
				global[dim], d.local[dim], dim)
		}
		d.numGroups[dim] = global[dim] / d.local[dim]
		totalGroups *= d.numGroups[dim]
		d.itemsPerGroup *= d.local[dim]
	}
	return totalGroups, nil
}

// selectPlan returns the plan a launch runs: the optimized one, cached on
// the kernel function and reused across launches, graph replays and
// scheduler chunks, or the code as lowered when the caller asks for the
// reference.
func selectPlan(prog *kernel.Program, fn *kernel.Func, unoptimized bool) *kernel.WGFunc {
	if unoptimized {
		return prog.Unoptimized(fn)
	}
	return prog.WorkGroup(fn)
}

// runCounters accumulates the per-worker execution counters of one run.
type runCounters struct {
	instr, prologue uint64
	fused, coop     int64
}

func (c *runCounters) stats(groupsRun, groupsTotal, itemsPerGroup int, info *kernel.WGCompileInfo) Stats {
	return Stats{
		Instructions:         atomic.LoadUint64(&c.instr),
		GroupsRun:            groupsRun,
		GroupsTotal:          groupsTotal,
		ItemsPerGroup:        itemsPerGroup,
		PrologueInstructions: atomic.LoadUint64(&c.prologue),
		FusedGroups:          int(atomic.LoadInt64(&c.fused)),
		CoopGroups:           int(atomic.LoadInt64(&c.coop)),
		Compile:              info,
	}
}

// dispatch is the immutable launch description shared by all workers.
type dispatch struct {
	prog          *kernel.Program
	fn            *kernel.Func
	args          []Arg
	global        []int
	offset        [3]int // global work offset per dimension (zero-filled)
	local         []int
	numGroups     []int
	itemsPerGroup int
	shape         [6]int // backs local and numGroups when prepare builds them
}

// decompose converts a linear index into per-dimension coordinates.
func decompose(lin int, dims []int, out []int) {
	for d := 0; d < len(dims); d++ {
		out[d] = lin % dims[d]
		lin /= dims[d]
	}
}
