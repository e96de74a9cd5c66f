package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync/atomic"
	"unsafe"

	"dopencl/internal/kernel"
)

// laneWidth is the most work-items a kernel without barriers runs in lock
// step: a strip is up to this many consecutive dimension-0 items of a group.
const laneWidth = 64

// laneSet is a set of lanes of the strip (a bit per lane) that will next
// execute the instruction at pc.
type laneSet struct {
	pc   int
	mask []uint64
}

// planRunner executes a work-group plan (kernel.WGFunc) for one worker
// goroutine, a strip of work-items at a time: every IR instruction runs as
// one loop over the lanes of the running set, so its dispatch is paid once
// per strip and not once per item, and over a run of lanes without the
// lane list. Registers are rows of lanes; a uniform register is a row
// whose lanes are all equal, and an index-only induction has no row. All
// state, the operand rows of every instruction included, is laid out when
// the runner is bound to a launch shape, so running groups performs zero
// heap allocations.
type planRunner struct {
	d    *dispatch
	plan *kernel.WGFunc

	width       int      // lanes: min(laneWidth, local[0]), or the whole group if the kernel has barriers
	rows        []uint32 // [row][lane] 32-bit slot images: the registers, then a broadcast row per constant, then tmp
	tmp         []uint32 // scratch row: carries a fused chain from step to step
	pro, body   []bound  // operand rows of each instruction of the prologue and the body
	bufs        [][]byte // buffer table indexed by plan buffer index
	localArenas []int    // entries of bufs that are per-group local memory
	ind         []induction
	wraps       []wrap // per DivMod pair, on the current strip
	vals        []gval // a position guard's values
	rowID       uint64 // counts the rows the runner has started
	at          uint32 // item of the row at which the current strip starts
	n           int    // lanes of the current strip
	lazy        bool   // the guard-only pairs' rows are not filled for the strip
	evals       uint64 // position guards the runner evaluated
	sliced      uint64 // position guards the runner could not decide
	scratch     [3]int

	// The running set, as a mask and as the ascending list of its lanes,
	// and the sets that wait: to run (the lowest pc goes first, and sets
	// that meet at a pc join), or at a barrier for the rest of the group.
	cur, side []uint64
	lanes     []uint32
	pending   []laneSet
	parked    []laneSet
	waitPC    int        // lowest pc in pending
	trapErr   *TrapError // trap of the lowest lane that has trapped in this strip

	ref *planRunner // lazy runner of the unoptimized plan (zero div/mod width)

	instrCount    uint64
	prologueCount uint64
	fusedGroups   uint64
	coopGroups    uint64
}

// induction is gid0, lid0 or an AffineSpec (op(l, r) at a row's first
// item): its value at item i of a row of the group is first + i*step.
type induction struct {
	reg         int32    // -1 if the plan has no such register
	only        bool     // index-only: no row, an access computes its lanes
	row         []uint32 // the lanes it is seeded into, unless only
	first, step uint32
	op          kernel.ROp
	l, r        position
}

// wrap is a DivMod pair at lane 0 of the current strip, and the lanes up
// to the end of its period (0 if it does not wrap-increment): on those,
// mod + lane, and div on every lane.
type wrap struct {
	mod, div int32
	left     int
}

// position is what a register or constant is on a strip, resolved at
// layout: an induction, a DivMod pair's mod or div, or else its row
// (uniform wherever an induction or a position guard reads it).
type position struct {
	ind *induction
	dm  *wrap
	div bool
	row []uint32
}

// bound is an instruction's operand fields resolved to rows: a field it
// does not read or write as a register or constant is tmp, and an access
// through an index-only induction has it in ind instead of a row.
type bound struct {
	d, a, b, c, e, f []uint32
	ind              *induction
	guard            *guard // an RGuard's slice and branch
}

func newPlanRunner(d *dispatch, plan *kernel.WGFunc) *planRunner {
	r := &planRunner{
		plan: plan,
		bufs: make([][]byte, plan.NumBufs),
		ind: []induction{{reg: plan.GidRegs[0], only: plan.IndexOnlyIDs[0]},
			{reg: plan.LidRegs[0], only: plan.IndexOnlyIDs[1]}},
	}
	for _, a := range plan.Affine {
		r.ind = append(r.ind, induction{reg: a.Reg, only: a.IndexOnly, op: a.Op})
	}
	r.wraps = make([]wrap, len(plan.DivMod))
	r.bind(d)
	return r
}

// acquireRunner returns a runner of plan bound to d: one a finished
// launch left on the plan's free list, or a new one. A small launch costs
// about as much as building its rows, masks and buffer table.
func acquireRunner(d *dispatch, plan *kernel.WGFunc) *planRunner {
	if r, _ := plan.Runners.Get().(*planRunner); r != nil {
		r.bind(d)
		return r
	}
	return newPlanRunner(d, plan)
}

// release adds the runner's counters to c and puts it on its plan's free
// list, holding nothing of the launch it ran: buffers an application
// frees must not stay reachable from an idle runner.
func (r *planRunner) release(c *runCounters) {
	r.flush(c)
	r.unbind()
	r.plan.Runners.Put(r)
}

func (r *planRunner) unbind() {
	for i, a := range r.d.args {
		if a.Kind == kernel.ArgGlobalBuf {
			r.bufs[r.plan.ArgBufs[i]] = nil
		}
	}
	r.d = nil
	if r.ref != nil {
		r.ref.unbind()
	}
}

// bind points the runner at a launch: lane rows and the operand tables
// sized for its work-group shape (kept when the width repeats, as across
// the jobs of a batch), arguments, and the coordinate registers that are
// constant across it.
func (r *planRunner) bind(d *dispatch) {
	p := r.plan
	r.d = d
	if r.ref != nil {
		r.ref.bind(d)
	}
	width := min(d.local[0], laneWidth)
	if p.HasBarriers() {
		width = d.itemsPerGroup
	}
	if width != r.width {
		r.width = width
		nrows := p.NumRegs + len(p.Consts) + 1
		r.rows = make([]uint32, (nrows+1)*width) // and the list of lanes
		r.tmp = r.rows[(nrows-1)*width : nrows*width]
		r.lanes = r.rows[nrows*width:][:0]
		words := (width + 63) / 64
		masks := make([]uint64, 2*words)
		r.cur, r.side = masks[:words], masks[words:]
		r.pending, r.parked = nil, nil
		for i, c := range p.Consts {
			fill(r.row(^int32(i)), uint32(c), 0)
		}
		for k := range r.ind {
			if v := &r.ind[k]; v.reg >= 0 && !v.only {
				v.row = r.row(v.reg)
			}
		}
		for i, a := range p.Affine {
			r.ind[2+i].l, r.ind[2+i].r = r.resolve(a.L), r.resolve(a.R)
		}
		r.pro, r.body = r.layout(p.Prologue), r.layout(p.Code)
	}
	r.localArenas = r.localArenas[:0]
	for i, a := range d.args {
		switch a.Kind {
		case kernel.ArgScalarInt, kernel.ArgScalarFloat:
			r.set(p.ArgRegs[i], uint32(a.Scalar))
		case kernel.ArgGlobalBuf:
			r.bufs[p.ArgBufs[i]] = a.Global
		case kernel.ArgLocalBuf:
			bi := p.ArgBufs[i]
			if len(r.bufs[bi]) != a.LocalSize {
				r.bufs[bi] = make([]byte, a.LocalSize)
			}
			r.localArenas = append(r.localArenas, bi)
		}
	}
	// Dimensions the launch does not have read 0 for ids and offsets, 1
	// for sizes.
	nd := len(d.global)
	for dim := 0; dim < 3; dim++ {
		if dim < nd {
			r.set(p.GSizeRegs[dim], uint32(d.global[dim]))
			r.set(p.LSizeRegs[dim], uint32(d.local[dim]))
			r.set(p.NGroupRegs[dim], uint32(d.numGroups[dim]))
			r.set(p.GOffRegs[dim], uint32(d.offset[dim]))
		} else {
			r.set(p.GSizeRegs[dim], 1)
			r.set(p.LSizeRegs[dim], 1)
			r.set(p.NGroupRegs[dim], 1)
			r.set(p.GOffRegs[dim], 0)
			r.set(p.GidRegs[dim], 0)
			r.set(p.LidRegs[dim], 0)
			r.set(p.GroupRegs[dim], 0)
		}
	}
	r.set(p.WorkDimReg, uint32(nd))
}

// row resolves an IR operand to its row of lanes: non-negative operands
// are registers, negative operands index the constant pool.
func (r *planRunner) row(x int32) []uint32 {
	i := int(x)
	if x < 0 {
		i = r.plan.NumRegs + int(^x)
	}
	return r.rows[i*r.width : (i+1)*r.width]
}

// layout resolves every operand field of code to its row, by the one
// statement of what each opcode reads and writes (kernel.Operands), and
// every position guard to its steps.
func (r *planRunner) layout(code []kernel.RInstr) []bound {
	t := make([]bound, len(code))
	for i := range code {
		ins, o := &code[i], &t[i]
		*o = bound{d: r.tmp, a: r.tmp, b: r.tmp, c: r.tmp, e: r.tmp, f: r.tmp}
		rows := [...]*[]uint32{&o.d, &o.a, &o.b, &o.c, &o.e, &o.f}
		kernel.Operands(ins, func(x *int32, def bool) {
			for k, f := range [...]*int32{&ins.D, &ins.A, &ins.B, &ins.C, &ins.E, &ins.F} {
				if f != x || def && *x < 0 { // or a branch without write-back
					continue
				}
				if v := r.resolve(*x).ind; v != nil && v.only {
					*rows[k], o.ind = nil, v
				} else {
					*rows[k] = r.row(*x)
				}
			}
		})
		if ins.Op == kernel.RGuard {
			o.guard = r.layGuard(code, i)
		}
	}
	return t
}

// resolve returns what register or constant x is on a strip.
func (r *planRunner) resolve(x int32) position {
	if x >= 0 {
		for k := range r.ind {
			if r.ind[k].reg == x {
				return position{ind: &r.ind[k]}
			}
		}
		for k, dm := range r.plan.DivMod {
			if x == dm.ModReg || x == dm.DivReg {
				return position{dm: &r.wraps[k], div: x == dm.DivReg}
			}
		}
	}
	return position{row: r.row(x)}
}

// fill writes the progression v, v+step, ... to row.
func fill(row []uint32, v, step uint32) {
	for l := range row {
		row[l] = v
		v += step
	}
}

// set broadcasts v to every lane of register reg, if the plan has it.
func (r *planRunner) set(reg int32, v uint32) {
	if reg >= 0 {
		fill(r.row(reg), v, 0)
	}
}

func trap(fn *kernel.Func, format string, args ...any) *TrapError {
	return &TrapError{Kernel: fn.Name, Msg: fmt.Sprintf(format, args...)}
}

// runGroup executes one work-group through the compiled plan.
func (r *planRunner) runGroup(groupLin int) *TrapError {
	d := r.d
	p := r.plan
	nd := len(d.global)
	sc := r.scratch[:nd]
	decompose(groupLin, d.numGroups, sc)
	var group [3]int
	copy(group[:], sc)
	for dim := 0; dim < nd; dim++ {
		r.set(p.GroupRegs[dim], uint32(group[dim]))
	}
	for _, bi := range r.localArenas {
		clear(r.bufs[bi])
	}
	// The once-per-group hoisted code is pure and straight-line: it runs
	// on every lane, which leaves its results broadcast, and is charged
	// once.
	if n := uint64(len(p.Prologue)); n > 0 {
		before := r.instrCount
		r.begin(r.width)
		r.run(p.Prologue, r.pro, 0)
		r.instrCount = before + n
		r.prologueCount += n
		if r.trapErr != nil {
			return r.trapErr
		}
	}
	// A zero induction divisor means the removed div/mod instructions
	// would trap (conditionally, under the kernel's own control flow): run
	// the whole group on the unoptimized plan, which still has them and
	// reproduces the trap — or its absence — exactly.
	for i := range p.DivMod {
		if r.row(p.DivMod[i].W)[0] == 0 {
			if r.ref == nil {
				r.ref = newPlanRunner(d, d.prog.Unoptimized(d.fn))
			}
			return r.ref.runGroup(groupLin)
		}
	}
	gidOf := func(dim, lid int) uint32 {
		return uint32(d.offset[dim] + group[dim]*d.local[dim] + lid)
	}
	if p.HasBarriers() {
		// The whole group is one strip, a lane per item.
		r.coopGroups++
		for li := 0; li < d.itemsPerGroup; li++ {
			decompose(li, d.local, sc)
			for dim, lid := range sc {
				if reg := p.LidRegs[dim]; reg >= 0 {
					r.row(reg)[li] = uint32(lid)
				}
				if reg := p.GidRegs[dim]; reg >= 0 {
					r.row(reg)[li] = gidOf(dim, lid)
				}
			}
		}
		return r.runStrip(d.itemsPerGroup)
	}
	r.fusedGroups++

	local0 := d.local[0]
	r.inductions(int32(gidOf(0, 0)))
	for li := 0; li < d.itemsPerGroup; li += local0 {
		// Coordinates for dimensions >= 1 are uniform along a row.
		decompose(li, d.local, sc)
		r.rowID++
		for dim := 1; dim < nd; dim++ {
			r.set(p.LidRegs[dim], uint32(sc[dim]))
			r.set(p.GidRegs[dim], gidOf(dim, sc[dim]))
		}
		for at := 0; at < local0; at += r.width {
			n := min(r.width, local0-at)
			r.seedStrip(at, n)
			if err := r.runStrip(n); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush moves the runner's counters to c when its worker is done.
func (r *planRunner) flush(c *runCounters) {
	atomic.AddUint64(&c.instr, r.instrCount)
	atomic.AddUint64(&c.prologue, r.prologueCount)
	atomic.AddInt64(&c.fused, int64(r.fusedGroups))
	atomic.AddInt64(&c.coop, int64(r.coopGroups))
	r.instrCount, r.prologueCount, r.fusedGroups, r.coopGroups = 0, 0, 0, 0
	if r.ref != nil {
		r.ref.flush(c)
	}
}

// inductions computes every induction's value at the first item of a row
// of the group, whose first dimension-0 global ID is base0, and its step
// per item. Its operands are gid0, earlier inductions and uniforms, which
// are the same on every row once the prologue has run.
func (r *planRunner) inductions(base0 int32) {
	r.ind[0].first, r.ind[0].step = uint32(base0), 1
	r.ind[1].first, r.ind[1].step = 0, 1
	for k := 2; k < len(r.ind); k++ {
		v := &r.ind[k]
		lf, ls := v.l.linear()
		rf, rs := v.r.linear()
		v.first = uint32(kernel.StepEval(v.op, uint64(lf), uint64(rf)))
		switch v.op {
		case kernel.RAddI:
			v.step = ls + rs
		case kernel.RSubI:
			v.step = ls - rs
		case kernel.RMulI:
			v.step = ls*rf + lf*rs // one side is uniform, of step 0
		case kernel.RShlI:
			v.step = ls << (rf & 31)
		}
	}
}

// linear returns an induction operand's value at the first item of a row
// and its step per item: an induction's, or a uniform's and 0.
func (x position) linear() (first, step uint32) {
	if x.ind != nil {
		return x.ind.first, x.ind.step
	}
	return x.row[0], 0
}

// seedStrip gives the n lanes of the strip that starts at item `at` of a
// row the rows of its inductions, as first + (at + lane) steps, and its
// wrap-increment pairs: lane 0 of each, and the rows of those that are not
// guard-only.
func (r *planRunner) seedStrip(at, n int) {
	p := r.plan
	r.at, r.n, r.lazy = uint32(at), n, false
	for k := range r.ind {
		if v := &r.ind[k]; v.row != nil {
			fill(v.row[:n], v.first+r.at*v.step, v.step)
		}
	}
	gid0 := int32(r.ind[0].first) + int32(at)
	for i := range p.DivMod {
		w := int32(r.row(p.DivMod[i].W)[0])
		m, q := gid0%w, gid0/w
		r.wraps[i] = wrap{m, q, 0}
		// Wrap-increment is only the quotient and remainder while both
		// the IDs and the divisor are non-negative.
		if w > 0 && gid0 >= 0 {
			r.wraps[i].left = int(w - m)
		}
		if p.DivMod[i].GuardOnly {
			r.lazy = true
		} else {
			r.fillPair(i)
		}
	}
}

// begin makes lanes 0..n-1 the running set and nothing else waiting.
func (r *planRunner) begin(n int) {
	r.pending, r.parked = r.pending[:0], r.parked[:0]
	r.waitPC = math.MaxInt
	r.trapErr = nil
	for w := range r.cur {
		r.cur[w] = ^uint64(0) >> max(0, min(64, 64*(w+1)-n)) // the low n-64w bits
	}
	r.lanes = r.lanes[:n]
	fill(r.lanes, 0, 1)
}

// runStrip executes the body on lanes 0..n-1 until every lane has
// ended. Lanes that arrive at a barrier wait there, whichever barrier it
// is, until no lane can run; then all of them resume. All items of a group
// must arrive at a barrier or none: one that ends while another waits has
// diverged. A trap is that of the lowest lane that traps before the next
// barrier; the lanes below it run on to there, the others are dropped.
func (r *planRunner) runStrip(n int) *TrapError {
	r.begin(n)
	for pc := 0; pc >= 0; pc = r.resume() {
		r.run(r.plan.Code, r.body, pc)
		if r.trapErr != nil {
			return r.trapErr
		}
		arrived := 0
		for i := range r.parked {
			for _, m := range r.parked[i].mask {
				arrived += bits.OnesCount64(m)
			}
		}
		if arrived == 0 {
			return nil
		}
		if arrived != n {
			return trap(r.plan.Fn, "barrier divergence: some work-items of a group finished while others wait at a barrier")
		}
		r.pending, r.parked = r.parked, r.pending
	}
	return nil
}

// post adds the lanes of mask to the sets of *list, joining the set that
// already waits at pc if there is one.
func post(list *[]laneSet, pc int, mask []uint64) {
	sets := *list
	for i := range sets {
		if sets[i].pc == pc {
			for w, m := range mask {
				sets[i].mask[w] |= m
			}
			return
		}
	}
	if len(sets) < cap(sets) {
		sets = sets[:len(sets)+1] // with the mask of an earlier set
	} else {
		sets = append(sets, laneSet{})
	}
	s := &sets[len(sets)-1]
	if s.mask == nil {
		s.mask = make([]uint64, len(mask))
	}
	s.pc = pc
	copy(s.mask, mask)
	*list = sets
}

// expand lists the lanes of the running set.
func (r *planRunner) expand() {
	ls := r.lanes[:0]
	for w, m := range r.cur {
		for ; m != 0; m &= m - 1 {
			ls = append(ls, uint32(w*64+bits.TrailingZeros64(m)))
		}
	}
	r.lanes = ls
}

// resume makes the waiting set with the lowest pc the running one and
// returns that pc, or -1 when no set waits.
func (r *planRunner) resume() int {
	for len(r.pending) > 0 {
		sets := r.pending
		best := 0
		for i := range sets {
			if sets[i].pc < sets[best].pc {
				best = i
			}
		}
		pc := sets[best].pc
		copy(r.cur, sets[best].mask)
		last := len(sets) - 1
		sets[best], sets[last] = sets[last], sets[best] // keeps the mask for post
		r.pending = sets[:last]
		r.waitPC = math.MaxInt
		for i := range r.pending {
			r.waitPC = min(r.waitPC, r.pending[i].pc)
		}
		if r.expand(); len(r.lanes) > 0 {
			return pc
		}
	}
	r.waitPC = math.MaxInt
	r.lanes = r.lanes[:0]
	return -1
}

// split parts the running set at a branch that side, a subset of it,
// takes: the part with the lower pc runs on and the other waits, so that
// the two meet again where their paths join.
func (r *planRunner) split(fall, target int) int {
	if fall < target {
		for w, m := range r.cur {
			r.side[w] = m &^ r.side[w]
		}
		fall, target = target, fall
	}
	for w := range r.cur {
		r.cur[w] &^= r.side[w]
	}
	post(&r.pending, fall, r.cur)
	r.waitPC = min(r.waitPC, fall)
	copy(r.cur, r.side)
	r.expand()
	return target
}

// fault records that the i-th lane of the running set traps. Lanes are
// listed in ascending order and every lane from the trapping one up is
// dropped from all sets, so a later trap is always that of a lower item.
func (r *planRunner) fault(i int, format string, args ...any) {
	lane := int(r.lanes[i])
	r.trapErr = trap(r.plan.Fn, format, args...)
	r.lanes = r.lanes[:i]
	cut := func(mask []uint64) {
		mask[lane>>6] &= 1<<(lane&63) - 1
		clear(mask[lane>>6+1:])
	}
	cut(r.cur)
	for i := range r.pending {
		cut(r.pending[i].mask)
	}
	for i := range r.parked {
		cut(r.parked[i].mask)
	}
}

// run executes code from pc on the running set, then on every set that
// waits to run, until all of them have ended, trapped or parked at a
// barrier. Each instruction has its loops over the lanes in a method of
// its own, which keeps this frame within a new goroutine's first stack.
func (r *planRunner) run(code []kernel.RInstr, rows []bound, pc int) {
	for pc >= 0 {
		if len(r.lanes) == 0 || pc >= len(code) {
			pc = r.resume()
			continue
		}
		if pc >= r.waitPC {
			// Another set waits here or earlier: it goes first, or joins.
			post(&r.pending, pc, r.cur)
			pc = r.resume()
			continue
		}
		ins, o := &code[pc], &rows[pc]
		r.instrCount += uint64(len(r.lanes))
		switch ins.Op {
		case kernel.RMov3:
			apply(kernel.RMov, r.lanes, o.d, o.a, r.tmp)
			apply(kernel.RMov, r.lanes, o.b, o.c, r.tmp)
			apply(kernel.RMov, r.lanes, o.e, o.f, r.tmp)
		case kernel.RMov2:
			apply(kernel.RMov, r.lanes, o.d, o.a, r.tmp)
			apply(kernel.RMov, r.lanes, o.b, o.c, r.tmp)
		case kernel.RMov:
			apply(kernel.RMov, r.lanes, o.d, o.a, r.tmp)
		case kernel.RDivI, kernel.RModI:
			r.divide(ins, o)
		case kernel.RLdElem, kernel.RStElem:
			r.access(ins, o)
		case kernel.RJmp:
			pc = int(ins.C)
			continue
		case kernel.RBrT, kernel.RBrF, kernel.RGuard:
			pc = r.branch(ins, o, pc)
			continue
		case kernel.REnd:
			pc = r.resume()
			continue
		case kernel.RBarrier:
			post(&r.parked, pc+1, r.cur)
			pc = r.resume()
			continue
		case kernel.RTrap:
			r.fault(0, "%s", r.plan.TrapMsgs[ins.A])
		case kernel.RBuiltin:
			r.builtin(ins, o)
		default:
			r.chain(ins, o)
		}
		pc++
	}
}

// chain executes a fusable value op and its follow-on steps. Intermediate
// results go through tmp: D is written last, so it may be a later operand.
func (r *planRunner) chain(ins *kernel.RInstr, o *bound) {
	ls := r.lanes
	switch {
	case ins.F1 == kernel.RNop:
		apply(ins.Op, ls, o.d, o.a, o.b)
	case ins.F2 == kernel.RNop:
		apply(ins.Op, ls, r.tmp, o.a, o.b)
		apply(ins.F1, ls, o.d, r.tmp, o.c)
	default:
		apply(ins.Op, ls, r.tmp, o.a, o.b)
		apply(ins.F1, ls, r.tmp, r.tmp, o.c)
		apply(ins.F2, ls, o.d, r.tmp, o.e)
	}
}

// branch evaluates a conditional branch, or a position guard's (decide),
// and returns where the running set (all of it, or the part that split
// keeps running) goes on. On a run, the compare's pass counts the lanes
// that take it (test); a step test has no loop for goes straight to the
// lanes (each).
func (r *planRunner) branch(ins *kernel.RInstr, o *bound, pc int) int {
	if ins.Op == kernel.RGuard {
		return r.decide(o.guard, pc)
	}
	ls, v := r.lanes, o.a
	if ins.F2 != kernel.RNop {
		apply(ins.F2, ls, o.d, v, o.e)
		v = o.d
	}
	taken := -1
	if lo, hi, ok := span(ls); ok {
		taken = test(ins.F1, r.tmp[lo:hi], v[lo:hi], o.b[lo:hi])
	}
	if ins.F1 != kernel.RNop {
		if taken < 0 {
			each(ins.F1, ls, r.tmp, v, o.b)
		}
		v = r.tmp
	}
	if taken < 0 {
		n := uint32(0)
		for _, l := range ls {
			n += (v[l] | -v[l]) >> 31
		}
		taken = int(n)
	}
	if ins.Op == kernel.RBrF {
		taken = len(ls) - taken
	}
	switch taken {
	case 0:
		return pc + 1
	case len(ls):
		return int(ins.C)
	}
	clear(r.side)
	for _, l := range ls {
		if (v[l] != 0) == (ins.Op == kernel.RBrT) {
			r.side[l>>6] |= 1 << (l & 63)
		}
	}
	return r.split(pc+1, int(ins.C))
}

func (r *planRunner) divide(ins *kernel.RInstr, o *bound) {
	d, a, b := o.d, o.a, o.b
	for i, l := range r.lanes {
		x, y := int32(a[l]), int32(b[l])
		switch {
		case y == 0 && ins.Op == kernel.RDivI:
			r.fault(i, "integer division by zero")
			return
		case y == 0:
			r.fault(i, "integer modulo by zero")
			return
		case ins.Op == kernel.RDivI:
			d[l] = uint32(x / y)
		default:
			d[l] = uint32(x % y)
		}
	}
}

// access loads or stores one buffer element per lane, the index optionally
// through one fused step: a run whose window is unit-stride and in range
// as one block, anything else lane by lane. Through an index-only
// induction, lane l's index is base + l*step: a run of unit step needs no
// index row at all.
func (r *planRunner) access(ins *kernel.RInstr, o *bound) {
	buf, idx, val := r.bufs[ins.B], o.a, o.d
	store := ins.Op == kernel.RStElem
	if store {
		val = o.c
	}
	lo, hi, run := span(r.lanes)
	run = run && hostLittle
	if v := o.ind; v != nil {
		base := v.first + r.at*v.step
		if run && v.step == 1 && window(buf, base+uint32(lo), val[lo:hi], store) {
			return
		}
		idx = r.tmp
		fill(idx, base, v.step)
	} else {
		if ins.F1 != kernel.RNop {
			apply(ins.F1, r.lanes, r.tmp, idx, o.e)
			idx = r.tmp
		}
		if run && block(buf, idx[lo:hi], val[lo:hi], store) {
			return
		}
	}
	for i, l := range r.lanes {
		at := int(int32(idx[l]))
		if at < 0 || at*4+4 > len(buf) {
			r.fault(i, "buffer index %d out of range (buffer has %d elements)", at, len(buf)/4)
			return
		}
		if store {
			binary.LittleEndian.PutUint32(buf[at*4:], val[l])
		} else {
			val[l] = binary.LittleEndian.Uint32(buf[at*4:])
		}
	}
}

// block moves a run's access as one copy if its index row is first,
// first+1, ... and the window lies in buf (else the lanes go one by one).
func block(buf []byte, idx, val []uint32, store bool) bool {
	for i, x := range idx {
		if x != idx[0]+uint32(i) {
			return false
		}
	}
	return window(buf, idx[0], val, store)
}

// window moves val to or from the elements first, first+1, ... of buf as
// one copy if they lie in it.
func window(buf []byte, first uint32, val []uint32, store bool) bool {
	lo, hi := int32(first), int32(first+uint32(len(val)-1))
	if lo < 0 || hi < lo || int(hi)*4+4 > len(buf) {
		return false
	}
	mem := buf[int(lo)*4 : int(hi)*4+4]
	row := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(val))), len(mem))
	if store {
		copy(mem, row)
	} else {
		copy(row, mem)
	}
	return true
}

func (r *planRunner) builtin(ins *kernel.RInstr, o *bound) {
	id := kernel.BuiltinID(ins.C)
	d, a, b, e := o.d, o.a, o.b, o.e
	for i, l := range r.lanes {
		v, ok := evalBuiltin(id, uint64(a[l]), uint64(b[l]), uint64(e[l]))
		if !ok {
			r.fault(i, "unknown builtin %d", ins.C)
			return
		}
		d[l] = uint32(v)
	}
}

func fbits(f float32) uint32 { return math.Float32bits(f) }
func bitsf(v uint32) float32 { return math.Float32frombits(v) }
func flag(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// span returns ls as lo..hi-1 if it is a run: ascending, it is iff n = extent.
func span(ls []uint32) (lo, hi int, ok bool) {
	if n := len(ls); n > 0 && int(ls[n-1]-ls[0])+1 == n {
		return int(ls[0]), int(ls[0]) + n, true
	}
	return 0, 0, false
}

// floats views a row as the float32 values its slot images are the bits of.
func floats(x []uint32) []float32 {
	return unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(x))), len(x))
}

// hostLittle: a row's memory is the byte image a buffer holds (block).
var hostLittle = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// apply runs one step over the lanes ls: d[l] = op(a[l], b[l]), on a run
// through dense if it has a loop for op. The steps the application kernels
// spend their time in have a loop of their own; the others go through
// kernel.StepEval, which defines them all.
func apply(op kernel.ROp, ls []uint32, d, a, b []uint32) {
	if lo, hi, ok := span(ls); ok && dense(op, d[lo:hi], a[lo:hi], b[lo:hi]) {
		return
	}
	each(op, ls, d, a, b)
}

// each runs one step over the lanes ls one by one.
func each(op kernel.ROp, ls []uint32, d, a, b []uint32) {
	switch op {
	case kernel.RMov:
		for _, l := range ls {
			d[l] = a[l]
		}
	case kernel.RAddI:
		for _, l := range ls {
			d[l] = a[l] + b[l]
		}
	case kernel.RSubI:
		for _, l := range ls {
			d[l] = a[l] - b[l]
		}
	case kernel.RMulI:
		for _, l := range ls {
			d[l] = a[l] * b[l]
		}
	case kernel.RAddF:
		for _, l := range ls {
			d[l] = fbits(bitsf(a[l]) + bitsf(b[l]))
		}
	case kernel.RSubF:
		for _, l := range ls {
			d[l] = fbits(bitsf(a[l]) - bitsf(b[l]))
		}
	case kernel.RMulF:
		for _, l := range ls {
			d[l] = fbits(bitsf(a[l]) * bitsf(b[l]))
		}
	case kernel.RDivF:
		for _, l := range ls {
			d[l] = fbits(bitsf(a[l]) / bitsf(b[l]))
		}
	case kernel.RLtI:
		for _, l := range ls {
			d[l] = flag(int32(a[l]) < int32(b[l]))
		}
	case kernel.RGeI:
		for _, l := range ls {
			d[l] = flag(int32(a[l]) >= int32(b[l]))
		}
	case kernel.REqI:
		for _, l := range ls {
			d[l] = flag(a[l] == b[l])
		}
	case kernel.RNeI:
		for _, l := range ls {
			d[l] = flag(a[l] != b[l])
		}
	case kernel.RLtF:
		for _, l := range ls {
			d[l] = flag(bitsf(a[l]) < bitsf(b[l]))
		}
	case kernel.RGtF:
		for _, l := range ls {
			d[l] = flag(bitsf(a[l]) > bitsf(b[l]))
		}
	case kernel.RI2F:
		for _, l := range ls {
			d[l] = fbits(float32(int32(a[l])))
		}
	case kernel.RF2I:
		for _, l := range ls {
			d[l] = uint32(int32(bitsf(a[l])))
		}
	default:
		for _, l := range ls {
			d[l] = uint32(kernel.StepEval(op, uint64(a[l]), uint64(b[l])))
		}
	}
}

// dense runs op over rows resliced to a run, or returns false if it has no
// loop for op.
func dense(op kernel.ROp, d, a, b []uint32) bool {
	a, b = a[:len(d)], b[:len(d)]
	fd := floats(d)
	fa, fb := floats(a)[:len(fd)], floats(b)[:len(fd)]
	switch op {
	case kernel.RMov:
		copy(d, a)
	case kernel.RAddI:
		for i := range d {
			d[i] = a[i] + b[i]
		}
	case kernel.RSubI:
		for i := range d {
			d[i] = a[i] - b[i]
		}
	case kernel.RAddF:
		for i := range fd {
			fd[i] = fa[i] + fb[i]
		}
	case kernel.RSubF:
		for i := range fd {
			fd[i] = fa[i] - fb[i]
		}
	case kernel.RMulF:
		for i := range fd {
			fd[i] = fa[i] * fb[i]
		}
	default:
		return test(op, d, a, b) >= 0
	}
	return true
}

// test runs a branch's compare step over a run and returns how many flags
// it set, writing and counting the condition in one pass (RNop, a branch
// on a itself, only counts), or -1 for a step it has no loop for.
func test(op kernel.ROp, d, a, b []uint32) int {
	a, b = a[:len(d)], b[:len(d)]
	fa, fb := floats(a), floats(b)[:len(a)]
	var n uint32
	switch op {
	case kernel.RNop:
		for _, x := range a {
			n += (x | -x) >> 31
		}
	case kernel.RLtI:
		for i := range d {
			f := flag(int32(a[i]) < int32(b[i]))
			d[i], n = f, n+f
		}
	case kernel.RGeI:
		for i := range d {
			f := flag(int32(a[i]) >= int32(b[i]))
			d[i], n = f, n+f
		}
	case kernel.RGtI:
		for i := range d {
			f := flag(int32(a[i]) > int32(b[i]))
			d[i], n = f, n+f
		}
	case kernel.REqI:
		for i := range d {
			f := flag(a[i] == b[i])
			d[i], n = f, n+f
		}
	case kernel.RNeI:
		for i := range d {
			f := flag(a[i] != b[i])
			d[i], n = f, n+f
		}
	case kernel.RLtF:
		for i := range d {
			f := flag(fa[i] < fb[i])
			d[i], n = f, n+f
		}
	case kernel.RGtF:
		for i := range d {
			f := flag(fa[i] > fb[i])
			d[i], n = f, n+f
		}
	default:
		return -1
	}
	return int(n)
}

// DispatchAllocsPerOp measures heap allocations per work-group dispatch
// on a warmed runner of the optimized plan. Used by the benchmark suite
// and CI to enforce the zero-allocation inner loop.
func DispatchAllocsPerOp(l Launch) (float64, error) {
	if l.Prog == nil || l.Kernel == nil {
		return 0, fmt.Errorf("vm: allocs probe needs a program and kernel")
	}
	plan := l.Prog.WorkGroup(l.Kernel)
	disp := new(dispatch)
	totalGroups, err := prepare(disp, l.Prog, l.Kernel, l.Args, l.GlobalSize, l.GlobalOffset, l.LocalSize)
	if err != nil {
		return 0, err
	}
	r := newPlanRunner(disp, plan)
	const rounds = 64
	// Warm-up: the lists of waiting lane sets grow to what the groups need.
	for i := 0; i < min(rounds, totalGroups); i++ {
		if err := r.runGroup(i); err != nil {
			return 0, err
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		if err := r.runGroup(i % totalGroups); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / rounds, nil
}

// evalBuiltin evaluates a math builtin over slot images: float arguments
// widen to float64, go through the Go math library and round back to
// float32. Coordinate queries never reach here: lowering resolves them to
// registers.
func evalBuiltin(id kernel.BuiltinID, a, b, e uint64) (uint64, bool) {
	F := func(x uint64) float64 { return float64(math.Float32frombits(uint32(x))) }
	I := func(x uint64) int32 { return int32(uint32(x)) }
	pf := func(v float64) uint64 { return uint64(math.Float32bits(float32(v))) }
	pi := func(v int32) uint64 { return uint64(uint32(v)) }
	switch id {
	case kernel.BSqrt:
		return pf(math.Sqrt(F(a))), true
	case kernel.BRsqrt:
		return pf(1 / math.Sqrt(F(a))), true
	case kernel.BExp:
		return pf(math.Exp(F(a))), true
	case kernel.BLog:
		return pf(math.Log(F(a))), true
	case kernel.BSin:
		return pf(math.Sin(F(a))), true
	case kernel.BCos:
		return pf(math.Cos(F(a))), true
	case kernel.BTan:
		return pf(math.Tan(F(a))), true
	case kernel.BFabs:
		return pf(math.Abs(F(a))), true
	case kernel.BFloor:
		return pf(math.Floor(F(a))), true
	case kernel.BCeil:
		return pf(math.Ceil(F(a))), true
	case kernel.BPow:
		return pf(math.Pow(F(a), F(b))), true
	case kernel.BFmin:
		return pf(math.Min(F(a), F(b))), true
	case kernel.BFmax:
		return pf(math.Max(F(a), F(b))), true
	case kernel.BFmod:
		return pf(math.Mod(F(a), F(b))), true
	case kernel.BClampF:
		return pf(math.Min(math.Max(F(a), F(b)), F(e))), true
	case kernel.BMinI:
		x, y := I(a), I(b)
		if x < y {
			return pi(x), true
		}
		return pi(y), true
	case kernel.BMaxI:
		x, y := I(a), I(b)
		if x > y {
			return pi(x), true
		}
		return pi(y), true
	case kernel.BAbsI:
		x := I(a)
		if x < 0 {
			x = -x
		}
		return pi(x), true
	case kernel.BClampI:
		x, lo, hi := I(a), I(b), I(e)
		if x < lo {
			x = lo
		}
		if x > hi {
			x = hi
		}
		return pi(x), true
	}
	return 0, false
}
