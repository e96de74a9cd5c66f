package kernel

import (
	"slices"
	"time"
)

// Optimization passes over the register IR. Every pass preserves the
// bit-exact behaviour of the code as lowered (which the tests keep as the
// reference): no float reassociation or commutation, no folding of
// trapping ops (div/mod by a possibly-zero divisor, buffer accesses), and
// trap messages and ordering stay intact. Speed comes purely from
// removing dispatches: fewer instructions, fused superinstructions,
// hoisted group-uniform code and loop-carried induction variables.

type optimizer struct {
	b    *builder
	plan *WGFunc

	defs    []int32 // definitions per register (explicit, in Prologue+Code)
	uses    []int32 // uses per register (incl. driver spec operands)
	preset  []bool  // register written by the driver (args, coords, inductions)
	uniform []bool  // register is group-uniform (filled by the hoist pass)

	recounts int     // calls of recount; the tests bound it
	sunk     []int32 // defs the sink pass moved, one entry per move
}

func optimize(b *builder, plan *WGFunc) *optimizer {
	o := &optimizer{b: b, plan: plan}
	run := func(name string, pass func()) {
		t := time.Now()
		pass()
		plan.Info.Passes = append(plan.Info.Passes, PassTiming{Name: name, Dur: time.Since(t)})
	}
	run("copyprop", o.copyprop)
	run("cse", o.cse)
	run("dce", o.dce)
	run("hoist", o.hoist)
	run("strength", o.strength)
	run("rotate", o.rotate)
	run("sink", o.sink)
	run("fuse", o.fuse)
	run("pack", o.pack)
	run("guard", o.guard)
	run("index", o.indexOnly)
	return o
}

// ---- analysis helpers -------------------------------------------------

// Operands calls f with every operand field the instruction names, def
// set for the registers it writes: the one statement of the per-opcode
// conventions in ir.go, by which the passes read and rewrite plans and
// internal/vm binds their rows. A read may be a constant (< 0); a branch
// without write-back passes its D of -1. RGuard names no operand: its C
// is a pc, as a jump's is.
func Operands(ins *RInstr, f func(x *int32, def bool)) {
	step := func(op ROp, x *int32) { // a fused step reads x unless unary
		if op != RNop && !IsUnaryStep(op) {
			f(x, false)
		}
	}
	switch ins.Op {
	case RNop, RJmp, REnd, RBarrier, RTrap, RGuard:
	case RMov, RMov2, RMov3: // pairs D←A, B←C, E←F
		f(&ins.D, true)
		f(&ins.A, false)
		if ins.Op != RMov {
			f(&ins.B, true)
			f(&ins.C, false)
		}
		if ins.Op == RMov3 {
			f(&ins.E, true)
			f(&ins.F, false)
		}
	case RLdElem:
		f(&ins.D, true)
		f(&ins.A, false)
		step(ins.F1, &ins.E)
	case RStElem:
		f(&ins.A, false)
		f(&ins.C, false)
		step(ins.F1, &ins.E)
	case RBrT, RBrF:
		f(&ins.D, true)
		f(&ins.A, false)
		step(ins.F1, &ins.B)
		step(ins.F2, &ins.E)
	case RBuiltin:
		f(&ins.D, true)
		n := BuiltinArity(BuiltinID(ins.C))
		for i, x := range [...]*int32{&ins.A, &ins.B, &ins.E} {
			if i < n {
				f(x, false)
			}
		}
	case RDivI, RModI:
		f(&ins.D, true)
		f(&ins.A, false)
		f(&ins.B, false)
	default: // fusable value ops with an optional chain
		f(&ins.D, true)
		f(&ins.A, false)
		step(ins.Op, &ins.B)
		step(ins.F1, &ins.C)
		step(ins.F2, &ins.E)
	}
}

// instrUses calls f for every register operand the instruction reads.
func instrUses(ins *RInstr, f func(int32)) {
	Operands(ins, func(x *int32, def bool) {
		if !def && *x >= 0 {
			f(*x)
		}
	})
}

// instrSubstUses rewrites every register operand through f.
func instrSubstUses(ins *RInstr, f func(int32) int32) {
	Operands(ins, func(x *int32, def bool) {
		if !def && *x >= 0 {
			*x = f(*x)
		}
	})
}

// instrDefs calls f for every register the instruction writes.
func instrDefs(ins *RInstr, f func(int32)) {
	Operands(ins, func(x *int32, def bool) {
		if def && *x >= 0 {
			f(*x)
		}
	})
}

// instrPure reports whether the instruction has no side effects and
// cannot trap (safe to remove, duplicate or reorder within a block).
func instrPure(ins *RInstr) bool {
	switch ins.Op {
	case RMov, RMov2, RMov3, RBuiltin:
		return true
	default:
		return IsFusableStep(ins.Op)
	}
}

func isBranch(op ROp) bool { return op == RJmp || op == RBrT || op == RBrF }

// isControl reports whether op ends a basic block. A barrier does: other
// items run, and write memory, between it and the next instruction.
func isControl(op ROp) bool {
	return isBranch(op) || op == REnd || op == RTrap || op == RBarrier
}

// recount rebuilds def/use counts and the driver-preset register set.
func (o *optimizer) recount() {
	o.recounts++
	n := int(o.b.numRegs)
	o.defs = make([]int32, n)
	o.uses = make([]int32, n)
	o.preset = make([]bool, n)
	mark := func(r int32) {
		if r >= 0 {
			o.preset[r] = true
		}
	}
	p := o.plan
	for _, r := range p.ArgRegs {
		mark(r)
	}
	for d := 0; d < 3; d++ {
		mark(p.GidRegs[d])
		mark(p.LidRegs[d])
		mark(p.GroupRegs[d])
		mark(p.GSizeRegs[d])
		mark(p.LSizeRegs[d])
		mark(p.NGroupRegs[d])
		mark(p.GOffRegs[d])
	}
	mark(p.WorkDimReg)
	for _, a := range p.Affine {
		mark(a.Reg)
	}
	for _, dm := range p.DivMod {
		mark(dm.ModReg)
		mark(dm.DivReg)
	}
	count := func(code []RInstr) {
		for i := range code {
			instrDefs(&code[i], func(r int32) { o.defs[r]++ })
			instrUses(&code[i], func(r int32) { o.uses[r]++ })
		}
	}
	count(p.Prologue)
	count(p.Code)
	// Driver-evaluated spec operands are uses too.
	specUse := func(x int32) {
		if x >= 0 {
			o.uses[x]++
		}
	}
	for _, a := range p.Affine {
		specUse(a.L)
		specUse(a.R)
	}
	for _, dm := range p.DivMod {
		specUse(dm.W)
	}
}

// singleDef reports whether r has exactly one definition in total
// (explicit or driver preset).
func (o *optimizer) singleDef(r int32) bool {
	if r < 0 {
		return true // constants never change
	}
	if o.preset[r] {
		return o.defs[r] == 0
	}
	return o.defs[r] == 1
}

// jumpTargets marks every instruction entered by a jump edge (positions
// where a merged instruction would be entered mid-way).
func (o *optimizer) jumpTargets() []bool {
	code := o.plan.Code
	t := make([]bool, len(code)+1)
	for i := range code {
		if isBranch(code[i].Op) {
			t[code[i].C] = true
		}
	}
	return t
}

// leaders marks basic-block leaders: jump targets plus instructions
// following any control transfer.
func (o *optimizer) leaders() []bool {
	l := o.jumpTargets()
	code := o.plan.Code
	if len(l) > 0 {
		l[0] = true
	}
	for i := range code {
		if isControl(code[i].Op) && i+1 < len(l) {
			l[i+1] = true
		}
	}
	return l
}

// compact removes RNop instructions and remaps jump targets.
func (o *optimizer) compact() {
	p := o.plan
	code := p.Code
	newIdx := make([]int32, len(code)+1)
	n := int32(0)
	for i := range code {
		newIdx[i] = n
		if code[i].Op != RNop {
			n++
		}
	}
	newIdx[len(code)] = n
	out := make([]RInstr, 0, n)
	for i := range code {
		if code[i].Op != RNop {
			out = append(out, code[i])
		}
	}
	for i := range out {
		if isBranch(out[i].Op) {
			out[i].C = newIdx[out[i].C]
		}
	}
	p.Code = out
}

// ---- pass 1: copy/constant propagation and folding --------------------

func (o *optimizer) copyprop() {
	code := o.plan.Code
	for iter := 0; iter < 10; iter++ {
		o.recount()
		changed := false

		// Single-def moves from stable sources become substitutions.
		value := make(map[int32]int32)
		for i := range code {
			ins := &code[i]
			if ins.Op == RMov && !o.preset[ins.D] && o.defs[ins.D] == 1 && o.singleDef(ins.A) {
				if ins.A != ins.D {
					value[ins.D] = ins.A
				}
			}
		}
		if len(value) > 0 {
			for i := range code {
				instrSubstUses(&code[i], func(r int32) int32 {
					if s, ok := value[r]; ok {
						changed = true
						return s
					}
					return r
				})
			}
		}

		for i := range code {
			ins := &code[i]
			// Self-moves are dead.
			if ins.Op == RMov && ins.A == ins.D {
				*ins = RInstr{Op: RNop}
				changed = true
				continue
			}
			// Fold all-constant pure arithmetic (each step with exact
			// float32 rounding, via the same StepEval the executor uses).
			if IsFusableStep(ins.Op) {
				if v, ok := o.foldChain(ins); ok {
					*ins = RInstr{Op: RMov, D: ins.D, A: o.b.constRef(v)}
					changed = true
				}
				continue
			}
			// Integer division folds only when the divisor is a nonzero
			// constant; a zero divisor must keep trapping at runtime.
			if (ins.Op == RDivI || ins.Op == RModI) && ins.A < 0 && ins.B < 0 {
				b := i32(o.b.consts[^ins.B])
				if b == 0 {
					continue
				}
				a := i32(o.b.consts[^ins.A])
				var r int32
				if ins.Op == RDivI {
					r = a / b
				} else {
					r = a % b
				}
				*ins = RInstr{Op: RMov, D: ins.D, A: o.b.constRef(u64i(r))}
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// foldChain evaluates a fusable instruction whose operands are all
// constants.
func (o *optimizer) foldChain(ins *RInstr) (uint64, bool) {
	cv := func(x int32) (uint64, bool) {
		if x >= 0 {
			return 0, false
		}
		return o.b.consts[^x], true
	}
	a, ok := cv(ins.A)
	if !ok {
		return 0, false
	}
	var b uint64
	if !IsUnaryStep(ins.Op) {
		if b, ok = cv(ins.B); !ok {
			return 0, false
		}
	}
	v := StepEval(ins.Op, a, b)
	if ins.F1 != RNop {
		var c uint64
		if !IsUnaryStep(ins.F1) {
			if c, ok = cv(ins.C); !ok {
				return 0, false
			}
		}
		v = StepEval(ins.F1, v, c)
		if ins.F2 != RNop {
			var e uint64
			if !IsUnaryStep(ins.F2) {
				if e, ok = cv(ins.E); !ok {
					return 0, false
				}
			}
			v = StepEval(ins.F2, v, e)
		}
	}
	return v, true
}

// ---- pass 2: common-subexpression elimination -------------------------

func (o *optimizer) cse() {
	o.recount()
	code := o.plan.Code
	leaders := o.leaders()

	type cseKey struct {
		op, f1, f2 ROp
		a, b, c, e int32
		extra      int32 // buffer index / builtin id / load epoch
	}
	var table map[cseKey]int32
	epoch := int32(0)
	changed := false

	for i := range code {
		if i < len(leaders) && leaders[i] {
			table = make(map[cseKey]int32)
			epoch = 0
		}
		ins := &code[i]
		var key cseKey
		switch {
		case ins.Op == RStElem:
			epoch++
			continue
		case ins.Op == RLdElem:
			key = cseKey{op: RLdElem, f1: ins.F1, a: ins.A, b: ins.B, c: ins.E, extra: epoch}
		case ins.Op == RBuiltin:
			key = cseKey{op: RBuiltin, a: ins.A, b: ins.B, e: ins.E, extra: ins.C}
		case IsFusableStep(ins.Op):
			key = cseKey{op: ins.Op, f1: ins.F1, f2: ins.F2, a: ins.A, b: ins.B, c: ins.C, e: ins.E}
		default:
			continue
		}
		// Every operand must be stable over the block for the match to
		// carry the same value.
		stable := true
		instrUses(ins, func(r int32) {
			if !o.singleDef(r) {
				stable = false
			}
		})
		if !stable {
			continue
		}
		if prev, ok := table[key]; ok {
			if o.singleDef(prev) {
				*ins = RInstr{Op: RMov, D: ins.D, A: prev}
				changed = true
				continue
			}
		} else {
			table[key] = ins.D
		}
	}
	if changed {
		// New moves may enable further propagation.
		o.copyprop()
	}
}

// ---- pass 3: dead-code elimination ------------------------------------

// dce removes pure instructions whose results nothing reads, and then
// those that only they read: one count of the body, and a work-list on
// which a register's defining instructions go when its last use goes.
func (o *optimizer) dce() {
	code := o.plan.Code
	o.recount()
	defSites := make([][]int32, len(o.uses))
	work := make([]int32, len(code))
	for i := range code {
		instrDefs(&code[i], func(r int32) { defSites[r] = append(defSites[r], int32(i)) })
		work[i] = int32(i)
	}
	for len(work) > 0 {
		ins := &code[work[len(work)-1]]
		work = work[:len(work)-1]
		dead := ins.Op != RNop && instrPure(ins)
		instrDefs(ins, func(r int32) {
			if o.uses[r] > 0 || o.preset[r] {
				dead = false
			}
		})
		if !dead {
			continue
		}
		instrDefs(ins, func(r int32) { o.defs[r]-- })
		instrUses(ins, func(r int32) {
			if o.uses[r]--; o.uses[r] == 0 {
				work = append(work, defSites[r]...)
			}
		})
		*ins = RInstr{Op: RNop}
	}
	o.compact()
}

// ---- pass 4: group-uniform code hoisting ------------------------------

func (o *optimizer) hoist() {
	o.recount()
	p := o.plan
	code := p.Code
	uniform := make([]bool, int(o.b.numRegs))
	seed := func(r int32) {
		if r >= 0 {
			uniform[r] = true
		}
	}
	for _, r := range p.ArgRegs {
		seed(r)
	}
	for d := 0; d < 3; d++ {
		seed(p.GroupRegs[d])
		seed(p.GSizeRegs[d])
		seed(p.LSizeRegs[d])
		seed(p.NGroupRegs[d])
		seed(p.GOffRegs[d])
	}
	seed(p.WorkDimReg)

	marked := make([]bool, len(code))
	for {
		changed := false
		for i := range code {
			if marked[i] {
				continue
			}
			ins := &code[i]
			if !instrPure(ins) || ins.Op == RMov2 || ins.Op == RMov3 {
				continue
			}
			ok := true
			instrDefs(ins, func(r int32) {
				if !o.singleDef(r) || o.preset[r] {
					ok = false
				}
			})
			instrUses(ins, func(r int32) {
				if !uniform[r] {
					ok = false
				}
			})
			if !ok {
				continue
			}
			marked[i] = true
			instrDefs(ins, func(r int32) { uniform[r] = true })
			changed = true
		}
		if !changed {
			break
		}
	}
	for i := range code {
		if marked[i] {
			p.Prologue = append(p.Prologue, code[i])
			code[i] = RInstr{Op: RNop}
		}
	}
	o.uniform = uniform
	o.compact()
}

func (o *optimizer) operandUniform(x int32) bool {
	if x < 0 {
		return true
	}
	return int(x) < len(o.uniform) && o.uniform[x] && o.singleDef(x)
}

// ---- pass 5: strength reduction into induction variables --------------

const maxDivModSpecs = 4

func (o *optimizer) strength() {
	p := o.plan
	if p.HasBarriers() || p.GidRegs[0] < 0 {
		return
	}
	o.recount()
	code := p.Code
	gid := p.GidRegs[0]

	affine := map[int32]bool{gid: true}
	isAffine := func(x int32) bool { return x >= 0 && affine[x] }
	operOK := func(x int32) bool { return x < 0 || o.operandUniform(x) || isAffine(x) }

	type cand struct {
		idx int
		reg int32
	}
	var affCands []cand
	for pass := 0; pass < 4; pass++ {
		changed := false
		for i := range code {
			ins := &code[i]
			switch ins.Op {
			case RAddI, RSubI, RMulI, RShlI:
			default:
				continue
			}
			if ins.F1 != RNop || affine[ins.D] || !o.singleDef(ins.D) || o.preset[ins.D] {
				continue
			}
			if !operOK(ins.A) || !operOK(ins.B) {
				continue
			}
			la, ra := isAffine(ins.A), isAffine(ins.B)
			if !la && !ra {
				continue
			}
			switch ins.Op {
			case RMulI:
				if la && ra { // affine*affine is quadratic
					continue
				}
			case RShlI:
				if ra { // shift amount must be item-invariant
					continue
				}
			}
			affine[ins.D] = true
			affCands = append(affCands, cand{idx: i, reg: ins.D})
			changed = true
		}
		if !changed {
			break
		}
	}
	// Keep them in an order closed under dependence: a spec may only
	// reference gid0, uniforms, constants, or earlier specs. cse works per
	// block, so one expression can come from two: the later reuses the
	// earlier induction (chosen maps each to the one it is).
	chosen, first := map[int32]int32{gid: gid}, map[AffineSpec]int32{}
	canon := func(x int32) int32 {
		if r, ok := chosen[x]; ok {
			return r
		}
		return x
	}
	for _, c := range affCands {
		ins := &code[c.idx]
		dep := func(x int32) bool {
			_, ok := chosen[x]
			return ok || x < 0 || o.operandUniform(x)
		}
		if !dep(ins.A) || !dep(ins.B) {
			continue
		}
		key := AffineSpec{Op: ins.Op, L: canon(ins.A), R: canon(ins.B)}
		r, ok := first[key]
		if !ok {
			r, first[key], key.Reg = ins.D, ins.D, ins.D
			p.Affine = append(p.Affine, key)
		}
		chosen[ins.D] = r
		*ins = RInstr{Op: RNop}
	}
	for i := range code {
		instrSubstUses(&code[i], canon)
	}

	// col = gid0 % W / row = gid0 / W pairs become wrap-increment
	// inductions. On a zero divisor the executor runs the whole group on
	// the unoptimized plan so the trap (and its conditionality) stays exact.
	type dmKey struct{ w int32 }
	dmAt := make(map[dmKey]int)
	for i := range code {
		ins := &code[i]
		if ins.Op != RDivI && ins.Op != RModI {
			continue
		}
		if ins.A != gid || !o.operandUniform(ins.B) {
			continue
		}
		if !o.singleDef(ins.D) || o.preset[ins.D] {
			continue
		}
		k := dmKey{w: ins.B}
		si, ok := dmAt[k]
		if !ok {
			if len(p.DivMod) >= maxDivModSpecs {
				continue
			}
			p.DivMod = append(p.DivMod, DivModSpec{ModReg: -1, DivReg: -1, W: ins.B})
			si = len(p.DivMod) - 1
			dmAt[k] = si
		}
		spec := &p.DivMod[si]
		if ins.Op == RModI && spec.ModReg < 0 {
			spec.ModReg = ins.D
			*ins = RInstr{Op: RNop}
		} else if ins.Op == RDivI && spec.DivReg < 0 {
			spec.DivReg = ins.D
			*ins = RInstr{Op: RNop}
		}
	}
	o.compact()
}

// ---- pass 6: loop rotation --------------------------------------------

const maxRotations = 4

func (o *optimizer) rotate() {
	p := o.plan
	if p.HasBarriers() {
		return
	}
	for n := 0; n < maxRotations; n++ {
		if !o.rotateOne() {
			return
		}
	}
}

// rotateOne finds one while-style loop (header condition, bottom back
// jump) and duplicates the header at the bottom with an inverted branch,
// so steady-state iterations execute a single conditional branch instead
// of jump + compare + branch.
func (o *optimizer) rotateOne() bool {
	o.recount()
	p := o.plan
	code := p.Code

	refs := make([]int, len(code)+1)
	for i := range code {
		if isBranch(code[i].Op) {
			refs[code[i].C]++
		}
	}

	for j := range code {
		if code[j].Op != RJmp || int(code[j].C) >= j {
			continue
		}
		h := int(code[j].C)
		if refs[h] != 1 {
			continue
		}
		// Header: short run of pure defs ending in a conditional exit
		// branch that targets just past the back jump.
		k := -1
		for t := h; t < j && t-h <= 8; t++ {
			op := code[t].Op
			if op == RBrT || op == RBrF {
				k = t
				break
			}
			if !instrPure(&code[t]) {
				break
			}
		}
		if k < 0 || int(code[k].C) != j+1 || code[k].D >= 0 {
			continue
		}
		// Header temps must not be read outside the header: the bottom
		// copy writes renamed registers.
		headerOK := true
		headerDefs := map[int32]bool{}
		for t := h; t < k; t++ {
			instrDefs(&code[t], func(r int32) { headerDefs[r] = true })
		}
		for i := range code {
			if i >= h && i <= k {
				continue
			}
			instrUses(&code[i], func(r int32) {
				if headerDefs[r] {
					headerOK = false
				}
			})
		}
		if !headerOK {
			continue
		}

		// Build the renamed bottom copy.
		rename := map[int32]int32{}
		bottom := make([]RInstr, 0, k-h+1)
		for t := h; t <= k; t++ {
			ci := code[t]
			instrSubstUses(&ci, func(r int32) int32 {
				if nr, ok := rename[r]; ok {
					return nr
				}
				return r
			})
			if t < k {
				nr := o.b.newReg()
				rename[ci.D] = nr
				ci.D = nr
			} else {
				if ci.Op == RBrF {
					ci.Op = RBrT
				} else {
					ci.Op = RBrF
				}
				ci.C = int32(k + 1)
			}
			bottom = append(bottom, ci)
		}

		grow := len(bottom) - 1
		out := make([]RInstr, 0, len(code)+grow)
		out = append(out, code[:j]...)
		out = append(out, bottom...)
		out = append(out, code[j+1:]...)
		for i := range out {
			if !isBranch(out[i].Op) {
				continue
			}
			// The bottom copy's own branch target (k+1 < j) needs no
			// adjustment; anything past the old back jump shifts.
			if t := int(out[i].C); t > j {
				out[i].C = int32(t + grow)
			}
		}
		p.Code = out
		return true
	}
	return false
}

// ---- pass 7: sink single-use defs toward their use --------------------

// sink moves a fusable single-use def down its block to just before its
// use, when the use reads it where fuse absorbs it: as operand A, or as B
// of a commutative int op. It is one sweep from the bottom up, so a use
// has settled before its defs are looked at and each def moves at most
// once; two defs of one use cannot trade places without end. Moves keep
// every instruction inside its block, so the jump targets and the counts
// stand.
func (o *optimizer) sink() {
	o.recount()
	targets := o.jumpTargets()
	code := o.plan.Code
	for i := len(code) - 1; i >= 0; i-- {
		ins := &code[i]
		d := ins.D
		if !IsFusableStep(ins.Op) || !o.singleDef(d) || o.preset[d] || o.uses[d] != 1 {
			continue
		}
		// Find the single use within the block.
		u := -1
		for t := i + 1; t < len(code) && !targets[t]; t++ {
			found := false
			instrUses(&code[t], func(r int32) { found = found || r == d })
			if found {
				u = t
				break
			}
			if isControl(code[t].Op) {
				break
			}
		}
		if u <= i+1 || code[u].A != d && (code[u].B != d || !intCommutative(code[u].Op)) {
			continue
		}
		// Legal if nothing in between redefines our operands.
		ok := true
		for t := i + 1; t < u && ok; t++ {
			instrDefs(&code[t], func(r int32) {
				instrUses(ins, func(x int32) { ok = ok && x != r })
			})
		}
		if ok {
			o.sunk = append(o.sunk, d)
			ci := *ins
			copy(code[i:], code[i+1:u])
			code[u-1] = ci
		}
	}
}

// ---- pass 8: superinstruction fusion ----------------------------------

func (o *optimizer) fuse() {
	for round := 0; round < 3; round++ {
		if !o.fuseRound() {
			break
		}
		o.compact()
	}
}

func chainWidth(ins *RInstr) int {
	w := 1
	if ins.F1 != RNop {
		w++
		if ins.F2 != RNop {
			w++
		}
	}
	return w
}

func intCommutative(op ROp) bool {
	switch op {
	case RAddI, RMulI, RAndI, ROrI, RXorI, RMinI, RMaxI, REqI, RNeI:
		// Float ops are excluded on purpose: a+b and b+a differ in which
		// NaN payload they propagate, and we promise bit-identity.
		return true
	}
	return false
}

func (o *optimizer) fuseRound() bool {
	o.recount()
	targets := o.jumpTargets()
	code := o.plan.Code
	changed := false

	tempDef := func(r int32) bool {
		return r >= 0 && o.singleDef(r) && !o.preset[r] && o.uses[r] == 1
	}

	for i := 0; i+1 < len(code); i++ {
		if targets[i+1] {
			continue
		}
		a := &code[i]
		b := &code[i+1]

		// Coalesce a value producer (whose one destination is D) into a
		// following move of its result.
		if b.Op == RMov && tempDef(b.A) && a.Op != RNop && a.Op != RMov &&
			a.Op != RMov2 && a.Op != RMov3 && !isControl(a.Op) && a.Op != RStElem && a.D == b.A {
			a.D = b.D
			*b = RInstr{Op: RNop}
			changed = true
			continue
		}

		if IsFusableStep(a.Op) && tempDef(a.D) {
			t := a.D
			wa := chainWidth(a)

			// Producer chain feeds a fusable consumer: merge into one
			// superinstruction evaluated left to right.
			if IsFusableStep(b.Op) && b.C != t && b.E != t {
				wb := chainWidth(b)
				var other int32
				match := false
				if b.A == t {
					other = b.B
					match = true
				} else if !IsUnaryStep(b.Op) && b.B == t && intCommutative(b.Op) {
					other = b.A
					match = true
				}
				if match && wa+wb <= 3 {
					steps := make([]ROp, 0, 2)
					operands := make([]int32, 0, 2)
					if a.F1 != RNop {
						steps = append(steps, a.F1)
						operands = append(operands, a.C)
					}
					if a.F2 != RNop {
						steps = append(steps, a.F2)
						operands = append(operands, a.E)
					}
					steps = append(steps, b.Op)
					operands = append(operands, other)
					if b.F1 != RNop {
						steps = append(steps, b.F1)
						operands = append(operands, b.C)
					}
					if b.F2 != RNop {
						steps = append(steps, b.F2)
						operands = append(operands, b.E)
					}
					merged := RInstr{Op: a.Op, D: b.D, A: a.A, B: a.B}
					merged.F1 = steps[0]
					merged.C = operands[0]
					if len(steps) > 1 {
						merged.F2 = steps[1]
						merged.E = operands[1]
					}
					*b = merged
					*a = RInstr{Op: RNop}
					changed = true
					continue
				}
			}

			// Producer (width <= 2) feeds a plain conditional branch:
			// the branch evaluates the chain inline, preserving the
			// exact truthiness test.
			if (b.Op == RBrT || b.Op == RBrF) && b.F1 == RNop && b.F2 == RNop &&
				b.A == t && wa <= 2 {
				nb := *b
				if wa == 1 {
					nb.F1 = a.Op
					nb.A = a.A
					nb.B = a.B
				} else {
					nb.F2 = a.Op
					nb.A = a.A
					nb.E = a.B
					nb.F1 = a.F1
					nb.B = a.C
				}
				nb.D = -1
				*b = nb
				*a = RInstr{Op: RNop}
				changed = true
				continue
			}

			// Producer feeds a buffer access index.
			if (b.Op == RLdElem || b.Op == RStElem) && b.F1 == RNop &&
				b.A == t && wa == 1 && b.C != t {
				b.F1 = a.Op
				b.E = a.B
				b.A = a.A
				*a = RInstr{Op: RNop}
				changed = true
				continue
			}
		}

		// Increment-compare-branch: a multi-def update (e.g. iter=iter+1)
		// folds into the branch with register write-back.
		if IsFusableStep(a.Op) && a.F1 == RNop &&
			(b.Op == RBrT || b.Op == RBrF) && b.F2 == RNop && b.A == a.D &&
			a.D >= 0 && !o.preset[a.D] {
			b.F2 = a.Op
			b.E = a.B
			b.A = a.A
			b.D = a.D
			*a = RInstr{Op: RNop}
			changed = true
			continue
		}
	}
	return changed
}

// ---- pass 9: move packing ---------------------------------------------

func (o *optimizer) pack() {
	targets := o.jumpTargets()
	code := o.plan.Code
	changed := false
	for i := 0; i+1 < len(code); i++ {
		if code[i].Op != RMov || code[i+1].Op != RMov || targets[i+1] {
			continue
		}
		// The executor applies packed moves strictly in order, so
		// dependent moves pack fine.
		if i+2 < len(code) && code[i+2].Op == RMov && !targets[i+2] {
			code[i] = RInstr{Op: RMov3,
				D: code[i].D, A: code[i].A,
				B: code[i+1].D, C: code[i+1].A,
				E: code[i+2].D, F: code[i+2].A}
			code[i+1] = RInstr{Op: RNop}
			code[i+2] = RInstr{Op: RNop}
			i += 2
		} else {
			code[i] = RInstr{Op: RMov2,
				D: code[i].D, A: code[i].A,
				B: code[i+1].D, C: code[i+1].A}
			code[i+1] = RInstr{Op: RNop}
			i++
		}
		changed = true
	}
	if changed {
		o.compact()
	}
}

// ---- pass 10: position guards -----------------------------------------

// guard heads with an RGuard every conditional branch whose condition
// depends only on where an item is (see slice); a jump to the head of its
// slice enters at the guard.
func (o *optimizer) guard() {
	p := o.plan
	if p.HasBarriers() {
		return
	}
	o.recount()
	targets := o.jumpTargets()
	code := p.Code
	heads := make([]int32, len(code)) // at a slice's head: 1 + its branch's pc
	n := 0
	for b := range code {
		if h, ok := o.slice(b, targets); ok && len(code)+n < lowerMaxIR {
			heads[h], n = int32(b)+1, n+1
		}
	}
	at := make([]int32, len(code)+1) // where an instruction, or the guard that heads it, lands
	out := make([]RInstr, 0, len(code)+n)
	for i, ins := range code {
		if at[i] = int32(len(out)); heads[i] > 0 {
			out = append(out, RInstr{Op: RGuard, C: heads[i]})
		}
		out = append(out, ins)
	}
	at[len(code)] = int32(len(out))
	for i := range out {
		if t := out[i].C; out[i].Op == RGuard {
			out[i].C = at[t] - 1 // the branch, which ends its slot
		} else if isBranch(out[i].Op) {
			out[i].C = at[t]
		}
	}
	p.Code = out
}

// slice returns the head of the slice of the branch at b, the run of
// instructions just before it that compute what it reads, if the branch
// may be guarded: every step of the slice and the branch is add.i, sub.i,
// mul.i or an int compare; what they read is a slice result or fixed (a
// constant, group-uniform, or a preset the body never writes: argument,
// coordinate, induction, div/mod pair); each slice result is written once
// and read only later in the slice and by the branch; no jump lands inside
// the slice or on the branch, and the branch writes nothing back.
func (o *optimizer) slice(b int, targets []bool) (int, bool) {
	code := o.plan.Code
	br := &code[b]
	steps := func(ops ...ROp) bool {
		for _, op := range ops {
			if op != RNop && op != RAddI && op != RSubI && op != RMulI && (op < RLtI || op > RNeI) {
				return false
			}
		}
		return true
	}
	if br.Op != RBrT && br.Op != RBrF || br.D >= 0 || !steps(br.F1, br.F2) {
		return 0, false
	}
	var need []int32 // read by the steps so far, neither fixed nor computed by them
	read := func(x int32) {
		if !o.operandUniform(x) && (!o.preset[x] || o.defs[x] > 0) {
			need = append(need, x)
		}
	}
	instrUses(br, read)
	h := b
	for ; len(need) > 0 && h > 0; h-- {
		ins, n := &code[h-1], len(need)
		if need = slices.DeleteFunc(need, func(x int32) bool { return x == ins.D }); len(need) == n ||
			ins.Op == RNop || !steps(ins.Op, ins.F1, ins.F2) || targets[h] || o.defs[ins.D] != 1 || o.preset[ins.D] {
			return 0, false
		}
		instrUses(ins, read)
	}
	reads := map[int32]int32{} // in the slice and the branch, all after their def: else still needed
	for u := h; u <= b; u++ {
		instrUses(&code[u], func(x int32) { reads[x]++ })
	}
	for t := h; t < b; t++ {
		if reads[code[t].D] != o.uses[code[t].D] {
			return 0, false
		}
	}
	return h, len(need) == 0
}

// ---- pass 11: index-only inductions -----------------------------------

// indexOnly marks the inductions, and gid0 and lid0, that the plan reads
// only as the plain index of a buffer access or as an operand of a later
// induction, and never writes: the executor keeps each of them as a value
// and a step per item, with no row of lanes.
func (o *optimizer) indexOnly() {
	p := o.plan
	if p.HasBarriers() {
		return
	}
	value := make([]bool, o.b.numRegs)
	for _, code := range [][]RInstr{p.Prologue, p.Code} {
		for i := range code {
			ins := &code[i]
			index := (ins.Op == RLdElem || ins.Op == RStElem) && ins.F1 == RNop
			Operands(ins, func(x *int32, def bool) {
				if *x >= 0 && (def || x != &ins.A || !index) {
					value[*x] = true
				}
			})
		}
	}
	for i := range p.Affine {
		p.Affine[i].IndexOnly = !value[p.Affine[i].Reg]
	}
	for d, reg := range [...]int32{p.GidRegs[0], p.LidRegs[0]} {
		p.IndexOnlyIDs[d] = reg >= 0 && !value[reg]
	}
}
