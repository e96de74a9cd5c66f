package vm

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"dopencl/internal/kernel"
)

// planRunner executes a work-group plan (kernel.WGFunc) for one worker
// goroutine. All state — the register file, the buffer table,
// local-memory arenas and the per-item register files of barrier kernels —
// is allocated once when the runner is created, so the per-group and
// per-item dispatch loops perform zero heap allocations.
type planRunner struct {
	d    *dispatch
	plan *kernel.WGFunc

	regs        []uint64 // group register file (prologue + current item)
	bufs        [][]byte // buffer table indexed by plan buffer index
	localArenas []int    // entries of bufs that are per-group local memory
	itemRegs    []uint64 // barrier path: itemsPerGroup register files, flat
	itemPC      []int    // barrier path: where each item resumes; < 0 once it has ended
	affSteps    []int32  // per-item increment of each affine induction register
	scratch     []int

	groupID [3]int
	ref     *planRunner // lazy runner of the unoptimized plan (zero div/mod width)

	instrCount    uint64
	prologueCount uint64
	fusedGroups   uint64
	coopGroups    uint64
}

func newPlanRunner(d *dispatch, plan *kernel.WGFunc) *planRunner {
	r := &planRunner{
		d:        d,
		plan:     plan,
		regs:     make([]uint64, plan.NumRegs),
		bufs:     make([][]byte, plan.NumBufs),
		affSteps: make([]int32, len(plan.Affine)),
		scratch:  make([]int, len(d.global)),
	}
	for i, a := range d.args {
		switch a.Kind {
		case kernel.ArgScalarInt, kernel.ArgScalarFloat:
			if reg := plan.ArgRegs[i]; reg >= 0 {
				r.regs[reg] = a.Scalar
			}
		case kernel.ArgGlobalBuf:
			r.bufs[plan.ArgBufs[i]] = a.Global
		case kernel.ArgLocalBuf:
			bi := plan.ArgBufs[i]
			r.bufs[bi] = make([]byte, a.LocalSize)
			r.localArenas = append(r.localArenas, bi)
		}
	}
	// Launch-constant coordinate registers; dimensions the launch does not
	// have read 0 for ids and offsets, 1 for sizes.
	set := func(reg int32, v int32) {
		if reg >= 0 {
			r.regs[reg] = uint64(uint32(v))
		}
	}
	nd := len(d.global)
	for dim := 0; dim < 3; dim++ {
		if dim < nd {
			set(plan.GSizeRegs[dim], int32(d.global[dim]))
			set(plan.LSizeRegs[dim], int32(d.local[dim]))
			set(plan.NGroupRegs[dim], int32(d.numGroups[dim]))
			set(plan.GOffRegs[dim], int32(d.offset[dim]))
		} else {
			set(plan.GSizeRegs[dim], 1)
			set(plan.LSizeRegs[dim], 1)
			set(plan.NGroupRegs[dim], 1)
			set(plan.GOffRegs[dim], 0)
			set(plan.GidRegs[dim], 0)
			set(plan.LidRegs[dim], 0)
			set(plan.GroupRegs[dim], 0)
		}
	}
	set(plan.WorkDimReg, int32(nd))
	if plan.HasBarriers() {
		r.itemRegs = make([]uint64, d.itemsPerGroup*plan.NumRegs)
		r.itemPC = make([]int, d.itemsPerGroup)
	}
	return r
}

// val resolves an IR operand against a register file: non-negative
// operands are registers, negative operands index the constant pool.
func (r *planRunner) val(regs []uint64, x int32) uint64 {
	if x >= 0 {
		return regs[x]
	}
	return r.plan.Consts[^x]
}

func trap(fn *kernel.Func, format string, args ...any) *TrapError {
	return &TrapError{Kernel: fn.Name, Msg: fmt.Sprintf(format, args...)}
}

func (r *planRunner) setReg(reg int32, v int32) {
	if reg >= 0 {
		r.regs[reg] = uint64(uint32(v))
	}
}

// runGroup executes one work-group through the compiled plan.
func (r *planRunner) runGroup(groupLin int) *TrapError {
	d := r.d
	p := r.plan
	decompose(groupLin, d.numGroups, r.scratch)
	for i := range r.groupID {
		r.groupID[i] = 0
	}
	copy(r.groupID[:], r.scratch)
	for dim := 0; dim < len(d.global); dim++ {
		r.setReg(p.GroupRegs[dim], int32(r.groupID[dim]))
	}
	for _, bi := range r.localArenas {
		mem := r.bufs[bi]
		for i := range mem {
			mem[i] = 0
		}
	}
	if err := r.runPrologue(); err != nil {
		return err
	}
	// A zero induction divisor means the removed div/mod instructions
	// would trap (conditionally, under the kernel's own control flow): run
	// the whole group on the unoptimized plan, which still has them and
	// reproduces the trap — or its absence — exactly.
	for i := range p.DivMod {
		if int32(uint32(r.val(r.regs, p.DivMod[i].W))) == 0 {
			if r.ref == nil {
				r.ref = newPlanRunner(d, d.prog.Unoptimized(d.fn))
			}
			return r.ref.runGroup(groupLin)
		}
	}
	if p.HasBarriers() {
		r.coopGroups++
		return r.runCooperative()
	}
	r.fusedGroups++
	return r.runFused()
}

// flush adds the runner's counters to c when its worker is done.
func (r *planRunner) flush(c *runCounters) {
	atomic.AddUint64(&c.instr, r.instrCount)
	atomic.AddUint64(&c.prologue, r.prologueCount)
	atomic.AddInt64(&c.fused, int64(r.fusedGroups))
	atomic.AddInt64(&c.coop, int64(r.coopGroups))
	if r.ref != nil {
		r.ref.flush(c)
	}
}

// runPrologue executes the once-per-group hoisted code into the group
// register file. Prologue instructions are pure by construction.
func (r *planRunner) runPrologue() *TrapError {
	code := r.plan.Prologue
	for i := range code {
		ins := &code[i]
		r.prologueCount++
		r.instrCount++
		switch ins.Op {
		case kernel.RMov:
			r.regs[ins.D] = r.val(r.regs, ins.A)
		case kernel.RMov2:
			r.regs[ins.D] = r.val(r.regs, ins.A)
			r.regs[ins.B] = r.val(r.regs, ins.C)
		case kernel.RMov3:
			r.regs[ins.D] = r.val(r.regs, ins.A)
			r.regs[ins.B] = r.val(r.regs, ins.C)
			r.regs[ins.E] = r.val(r.regs, ins.F)
		case kernel.RBuiltin:
			ba, bb, be := r.builtinArgs(r.regs, ins)
			v, ok := evalBuiltin(kernel.BuiltinID(ins.C), ba, bb, be)
			if !ok {
				return trap(r.plan.Fn, "unknown builtin %d", ins.C)
			}
			r.regs[ins.D] = v
		default:
			v := kernel.StepEval(ins.Op, r.val(r.regs, ins.A), r.val(r.regs, ins.B))
			if ins.F1 != kernel.RNop {
				v = kernel.StepEval(ins.F1, v, r.val(r.regs, ins.C))
				if ins.F2 != kernel.RNop {
					v = kernel.StepEval(ins.F2, v, r.val(r.regs, ins.E))
				}
			}
			r.regs[ins.D] = v
		}
	}
	return nil
}

func (r *planRunner) builtinArgs(regs []uint64, ins *kernel.RInstr) (a, b, e uint64) {
	switch kernel.BuiltinArity(kernel.BuiltinID(ins.C)) {
	case 3:
		e = r.val(regs, ins.E)
		fallthrough
	case 2:
		b = r.val(regs, ins.B)
		fallthrough
	case 1:
		a = r.val(regs, ins.A)
	}
	return
}

// runBody executes body code over regs from pc until the item ends (the
// result is negative) or arrives at a barrier (the result is where it
// resumes).
func (r *planRunner) runBody(regs []uint64, pc int) (int, *TrapError) {
	p := r.plan
	code := p.Code
	n := uint64(0)
	stop := len(code)
	for pc < stop {
		ins := &code[pc]
		n++
		switch ins.Op {
		case kernel.RMov:
			regs[ins.D] = r.val(regs, ins.A)
		case kernel.RMov2:
			regs[ins.D] = r.val(regs, ins.A)
			regs[ins.B] = r.val(regs, ins.C)
		case kernel.RMov3:
			regs[ins.D] = r.val(regs, ins.A)
			regs[ins.B] = r.val(regs, ins.C)
			regs[ins.E] = r.val(regs, ins.F)

		case kernel.RDivI, kernel.RModI:
			b := int32(uint32(r.val(regs, ins.B)))
			if b == 0 {
				r.instrCount += n
				if ins.Op == kernel.RDivI {
					return 0, trap(p.Fn, "integer division by zero")
				}
				return 0, trap(p.Fn, "integer modulo by zero")
			}
			a := int32(uint32(r.val(regs, ins.A)))
			if ins.Op == kernel.RDivI {
				regs[ins.D] = uint64(uint32(a / b))
			} else {
				regs[ins.D] = uint64(uint32(a % b))
			}

		case kernel.RLdElem:
			iv := r.val(regs, ins.A)
			if ins.F1 != kernel.RNop {
				iv = kernel.StepEval(ins.F1, iv, r.val(regs, ins.E))
			}
			idx := int(int32(uint32(iv)))
			buf := r.bufs[ins.B]
			off := idx * 4
			if idx < 0 || off+4 > len(buf) {
				r.instrCount += n
				return 0, trap(p.Fn, "buffer index %d out of range (buffer has %d elements)", idx, len(buf)/4)
			}
			regs[ins.D] = uint64(uint32(buf[off]) | uint32(buf[off+1])<<8 |
				uint32(buf[off+2])<<16 | uint32(buf[off+3])<<24)

		case kernel.RStElem:
			iv := r.val(regs, ins.A)
			if ins.F1 != kernel.RNop {
				iv = kernel.StepEval(ins.F1, iv, r.val(regs, ins.E))
			}
			idx := int(int32(uint32(iv)))
			buf := r.bufs[ins.B]
			off := idx * 4
			if idx < 0 || off+4 > len(buf) {
				r.instrCount += n
				return 0, trap(p.Fn, "buffer index %d out of range (buffer has %d elements)", idx, len(buf)/4)
			}
			v := uint32(r.val(regs, ins.C))
			buf[off] = byte(v)
			buf[off+1] = byte(v >> 8)
			buf[off+2] = byte(v >> 16)
			buf[off+3] = byte(v >> 24)

		case kernel.RJmp:
			pc = int(ins.C)
			continue

		case kernel.RBrT, kernel.RBrF:
			v := r.val(regs, ins.A)
			if ins.F2 != kernel.RNop {
				v = kernel.StepEval(ins.F2, v, r.val(regs, ins.E))
				if ins.D >= 0 {
					regs[ins.D] = v
				}
			}
			if ins.F1 != kernel.RNop {
				v = kernel.StepEval(ins.F1, v, r.val(regs, ins.B))
			}
			taken := (v != 0) == (ins.Op == kernel.RBrT)
			if taken {
				pc = int(ins.C)
				continue
			}

		case kernel.REnd:
			r.instrCount += n
			return -1, nil

		case kernel.RBarrier:
			r.instrCount += n
			return pc + 1, nil

		case kernel.RTrap:
			r.instrCount += n
			return 0, trap(p.Fn, "%s", p.TrapMsgs[ins.A])

		case kernel.RBuiltin:
			ba, bb, be := r.builtinArgs(regs, ins)
			v, ok := evalBuiltin(kernel.BuiltinID(ins.C), ba, bb, be)
			if !ok {
				r.instrCount += n
				return 0, trap(p.Fn, "unknown builtin %d", ins.C)
			}
			regs[ins.D] = v

		default: // fusable value ops, optionally chained
			v := kernel.StepEval(ins.Op, r.val(regs, ins.A), r.val(regs, ins.B))
			if ins.F1 != kernel.RNop {
				v = kernel.StepEval(ins.F1, v, r.val(regs, ins.C))
				if ins.F2 != kernel.RNop {
					v = kernel.StepEval(ins.F2, v, r.val(regs, ins.E))
				}
			}
			regs[ins.D] = v
		}
		pc++
	}
	r.instrCount += n
	return -1, nil
}

// initSpecs seeds the induction registers for a dimension-0 item run
// starting at gid0, and returns whether div/mod advancing must recompute
// per item (negative IDs or divisors make wrap-increment invalid).
func (r *planRunner) initSpecs(gid0 int32) (dmRecompute bool) {
	p := r.plan
	for i := range p.Affine {
		a := &p.Affine[i]
		r.regs[a.Reg] = kernel.StepEval(a.Op, r.val(r.regs, a.L), r.val(r.regs, a.R))
	}
	for i := range p.DivMod {
		dm := &p.DivMod[i]
		w := int32(uint32(r.val(r.regs, dm.W)))
		if w < 0 || gid0 < 0 {
			dmRecompute = true
		}
		r.setReg(dm.ModReg, gid0%w)
		r.setReg(dm.DivReg, gid0/w)
	}
	return dmRecompute
}

// affineStepsFor computes the per-item increment of every affine
// induction register for the current group (uniform operands are fixed
// once the prologue has run).
func (r *planRunner) affineStepsFor() {
	p := r.plan
	gid := p.GidRegs[0]
	stepOf := func(x int32, upto int) int32 {
		if x < 0 {
			return 0
		}
		if x == gid {
			return 1
		}
		for j := 0; j < upto; j++ {
			if p.Affine[j].Reg == x {
				return r.affSteps[j]
			}
		}
		return 0 // uniform
	}
	for i := range p.Affine {
		a := &p.Affine[i]
		sL, sR := stepOf(a.L, i), stepOf(a.R, i)
		var s int32
		switch a.Op {
		case kernel.RAddI:
			s = sL + sR
		case kernel.RSubI:
			s = sL - sR
		case kernel.RMulI:
			if sR == 0 {
				s = sL * int32(uint32(r.val(r.regs, a.R)))
			} else {
				s = int32(uint32(r.val(r.regs, a.L))) * sR
			}
		case kernel.RShlI:
			s = sL << (uint32(r.val(r.regs, a.R)) & 31)
		}
		r.affSteps[i] = s
	}
}

// runFused executes a barrier-free group as fused work-item loops: one
// body execution per item over a single register file, with induction
// registers advanced in place along dimension 0.
func (r *planRunner) runFused() *TrapError {
	d := r.d
	p := r.plan
	local0 := d.local[0]
	base0 := int32(d.offset[0] + r.groupID[0]*local0)

	startPC := 0
	if g := p.Guard; g != nil {
		rhs := r.val(r.regs, g.RHS)
		survives := func(gid0 int32) bool {
			pred := kernel.StepEval(g.Cmp, uint64(uint32(gid0)), rhs) != 0
			return (pred == g.BranchIfTrue) == g.SurviveTaken
		}
		first, last := survives(base0), survives(base0+int32(local0)-1)
		switch {
		case first && last:
			startPC = g.SurvivePC
		case !first && !last:
			// No item survives the guard: retire the group after
			// charging the guard branch + end per item.
			r.instrCount += 2 * uint64(d.itemsPerGroup)
			return nil
		}
	}

	r.affineStepsFor()
	gidReg, lidReg := p.GidRegs[0], p.LidRegs[0]
	for li := 0; li < d.itemsPerGroup; li += local0 {
		// Per-run coordinates for dimensions >= 1.
		decompose(li, d.local, r.scratch)
		for dim := 1; dim < len(d.local); dim++ {
			lid := r.scratch[dim]
			r.setReg(p.LidRegs[dim], int32(lid))
			r.setReg(p.GidRegs[dim], int32(d.offset[dim]+r.groupID[dim]*d.local[dim]+lid))
		}
		gid0 := base0
		r.setReg(gidReg, gid0)
		r.setReg(lidReg, 0)
		dmRecompute := r.initSpecs(gid0)

		for l0 := 0; l0 < local0; l0++ {
			if _, err := r.runBody(r.regs, startPC); err != nil {
				return err
			}
			if l0+1 == local0 {
				break
			}
			gid0++
			if gidReg >= 0 {
				r.regs[gidReg] = uint64(uint32(gid0))
			}
			if lidReg >= 0 {
				r.regs[lidReg] = uint64(uint32(l0 + 1))
			}
			for i := range p.Affine {
				a := &p.Affine[i]
				r.regs[a.Reg] = uint64(uint32(int32(uint32(r.regs[a.Reg])) + r.affSteps[i]))
			}
			for i := range p.DivMod {
				dm := &p.DivMod[i]
				w := int32(uint32(r.val(r.regs, dm.W)))
				if dmRecompute {
					r.setReg(dm.ModReg, gid0%w)
					r.setReg(dm.DivReg, gid0/w)
					continue
				}
				if dm.ModReg >= 0 {
					m := int32(uint32(r.regs[dm.ModReg])) + 1
					if m == w {
						m = 0
						if dm.DivReg >= 0 {
							r.regs[dm.DivReg] = uint64(uint32(int32(uint32(r.regs[dm.DivReg])) + 1))
						}
					}
					r.regs[dm.ModReg] = uint64(uint32(m))
				} else if dm.DivReg >= 0 {
					// Only the quotient is live: recompute it directly.
					r.setReg(dm.DivReg, gid0/w)
				}
			}
		}
	}
	return nil
}

// runCooperative executes a group of a barrier kernel: every item gets
// its own register file (cloned from the group template after the
// prologue) and runs until it ends or arrives at a barrier; once every
// item has done one or the other, those at a barrier resume. All items
// of a group must arrive at a barrier or none: one that ends while
// another waits has diverged.
func (r *planRunner) runCooperative() *TrapError {
	d := r.d
	p := r.plan
	nr := p.NumRegs
	items := d.itemsPerGroup

	for li := 0; li < items; li++ {
		regs := r.itemRegs[li*nr : (li+1)*nr]
		copy(regs, r.regs)
		decompose(li, d.local, r.scratch)
		for dim := 0; dim < len(d.local); dim++ {
			lid := r.scratch[dim]
			if reg := p.LidRegs[dim]; reg >= 0 {
				regs[reg] = uint64(uint32(int32(lid)))
			}
			if reg := p.GidRegs[dim]; reg >= 0 {
				regs[reg] = uint64(uint32(int32(d.offset[dim] + r.groupID[dim]*d.local[dim] + lid)))
			}
		}
		r.itemPC[li] = 0
	}

	for remaining := items; remaining > 0; {
		arrived, finished := 0, 0
		for li := 0; li < items; li++ {
			if r.itemPC[li] < 0 {
				continue
			}
			next, err := r.runBody(r.itemRegs[li*nr:(li+1)*nr], r.itemPC[li])
			if err != nil {
				return err
			}
			r.itemPC[li] = next
			if next < 0 {
				finished++
			} else {
				arrived++
			}
		}
		if arrived > 0 && finished > 0 {
			return trap(p.Fn, "barrier divergence: some work-items of a group finished while others wait at a barrier")
		}
		remaining -= finished
	}
	return nil
}

// DispatchAllocsPerOp measures heap allocations per work-group dispatch
// on a warmed runner of the optimized plan. Used by the benchmark suite
// and CI to enforce the zero-allocation inner loop.
func DispatchAllocsPerOp(l Launch) (float64, error) {
	if l.Prog == nil || l.Kernel == nil {
		return 0, fmt.Errorf("vm: allocs probe needs a program and kernel")
	}
	plan := l.Prog.WorkGroup(l.Kernel)
	disp, totalGroups, err := prepare(l.Prog, l.Kernel, l.Args, l.GlobalSize, l.GlobalOffset, l.LocalSize)
	if err != nil {
		return 0, err
	}
	r := newPlanRunner(disp, plan)
	if err := r.runGroup(0); err != nil {
		return 0, err
	}
	const rounds = 64
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
