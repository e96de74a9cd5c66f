package kernel

import "fmt"

// CheckPlan reports the first way in which w is not a well-formed plan:
// something the plan runner would index out of range, jump out of the
// body with, or fall off the end of, or an index-only register (an
// induction, gid0 or lid0 that the runner keeps no row for) that the plan
// reads other than as the plain index of an access or as an operand of a
// later induction, or writes. It restates the operand conventions of
// ir.go on its own, so that it also checks the readers in opt.go.
func CheckPlan(w *WGFunc) error {
	operand := func(x int32) error {
		if x >= 0 && int(x) >= w.NumRegs {
			return fmt.Errorf("register r%d of %d", x, w.NumRegs)
		}
		if x < 0 && int(^x) >= len(w.Consts) {
			return fmt.Errorf("constant #%d of %d", ^x, len(w.Consts))
		}
		return nil
	}
	register := func(x int32) error {
		if x < 0 || int(x) >= w.NumRegs {
			return fmt.Errorf("destination r%d of %d", x, w.NumRegs)
		}
		return nil
	}
	presets := append([]int32{w.WorkDimReg}, w.ArgRegs...)
	for _, regs := range [][3]int32{w.GidRegs, w.LidRegs, w.GroupRegs, w.GSizeRegs, w.LSizeRegs, w.NGroupRegs, w.GOffRegs} {
		presets = append(presets, regs[:]...)
	}
	for _, dm := range w.DivMod {
		presets = append(presets, dm.ModReg, dm.DivReg)
		if err := operand(dm.W); err != nil {
			return fmt.Errorf("div/mod width: %v", err)
		}
	}
	for _, r := range presets {
		if r != -1 {
			if err := register(r); err != nil {
				return fmt.Errorf("driver-preset register: %v", err)
			}
		}
	}
	indexOnly := map[int32]string{} // register → what it is
	for d, name := range [...]string{"gid0", "lid0"} {
		if reg := [...]int32{w.GidRegs[0], w.LidRegs[0]}[d]; w.IndexOnlyIDs[d] {
			if reg < 0 || w.HasBarriers() {
				return fmt.Errorf("index-only %s is r%d in a plan with barriers %v", name, reg, w.HasBarriers())
			}
			indexOnly[reg] = name
		}
	}
	spec := map[int32]int{}      // register → the induction that defines it
	expr := map[[3]int32]int32{} // (Op, L, R) → the induction computing it
	for i, a := range w.Affine {
		if _, ok := spec[a.Reg]; ok || a.Reg == w.GidRegs[0] || a.Reg == w.LidRegs[0] {
			return fmt.Errorf("induction %d redefines r%d", i, a.Reg)
		}
		spec[a.Reg] = i
		k := [3]int32{int32(a.Op), a.L, a.R}
		if r, ok := expr[k]; ok {
			return fmt.Errorf("inductions r%d and r%d compute the same %s r%d, r%d", r, a.Reg, a.Op, a.L, a.R)
		}
		expr[k] = a.Reg
		if a.IndexOnly {
			indexOnly[a.Reg] = fmt.Sprintf("induction r%d", a.Reg)
		}
	}
	for i, a := range w.Affine {
		for _, err := range []error{register(a.Reg), operand(a.L), operand(a.R)} {
			if err != nil {
				return fmt.Errorf("affine induction: %v", err)
			}
		}
		for _, x := range []int32{a.L, a.R} {
			if j, ok := spec[x]; ok && j >= i {
				return fmt.Errorf("induction %d (r%d) reads r%d, not an earlier induction", i, a.Reg, x)
			}
		}
	}
	if len(w.ArgRegs) != len(w.Fn.Args) || len(w.ArgBufs) != len(w.Fn.Args) {
		return fmt.Errorf("%d argument registers and %d buffers for %d arguments", len(w.ArgRegs), len(w.ArgBufs), len(w.Fn.Args))
	}
	for _, b := range w.ArgBufs {
		if b < -1 || b >= w.NumBufs {
			return fmt.Errorf("argument buffer %d of %d", b, w.NumBufs)
		}
	}

	binary := func(step ROp) bool { return step != RNop && !IsUnaryStep(step) }
	check := func(where string, code []RInstr, body bool) error {
		for pc := range code {
			ins := &code[pc]
			var reads, writes []int32
			steps := []ROp{ins.F1, ins.F2}
			switch ins.Op {
			case RNop, REnd, RBarrier:
			case RJmp, RGuard:
				steps = nil
			case RTrap:
				if ins.A < 0 || int(ins.A) >= len(w.TrapMsgs) {
					return fmt.Errorf("%s %d: trap message %d of %d", where, pc, ins.A, len(w.TrapMsgs))
				}
			case RMov:
				reads, writes = []int32{ins.A}, []int32{ins.D}
			case RMov2:
				reads, writes = []int32{ins.A, ins.C}, []int32{ins.D, ins.B}
			case RMov3:
				reads, writes = []int32{ins.A, ins.C, ins.F}, []int32{ins.D, ins.B, ins.E}
			case RLdElem, RStElem:
				reads = []int32{ins.A}
				if binary(ins.F1) {
					reads = append(reads, ins.E)
				}
				if ins.Op == RLdElem {
					writes = []int32{ins.D}
				} else {
					reads = append(reads, ins.C)
				}
				if ins.B < 0 || int(ins.B) >= w.NumBufs {
					return fmt.Errorf("%s %d: buffer %d of %d", where, pc, ins.B, w.NumBufs)
				}
				steps = steps[:1]
			case RBrT, RBrF:
				reads = []int32{ins.A}
				if binary(ins.F1) {
					reads = append(reads, ins.B)
				}
				if binary(ins.F2) {
					reads = append(reads, ins.E)
				}
				if ins.D != -1 {
					writes = []int32{ins.D}
				}
			case RBuiltin:
				n := BuiltinArity(BuiltinID(ins.C))
				if n < 0 {
					return fmt.Errorf("%s %d: builtin %d", where, pc, ins.C)
				}
				reads, writes = []int32{ins.A, ins.B, ins.E}[:n], []int32{ins.D}
				steps = nil
			case RDivI, RModI:
				reads, writes = []int32{ins.A, ins.B}, []int32{ins.D}
				steps = nil
			default:
				if !IsFusableStep(ins.Op) {
					return fmt.Errorf("%s %d: opcode %d", where, pc, ins.Op)
				}
				reads, writes = []int32{ins.A}, []int32{ins.D}
				if binary(ins.Op) {
					reads = append(reads, ins.B)
				}
				if binary(ins.F1) {
					reads = append(reads, ins.C)
				}
				if binary(ins.F2) {
					reads = append(reads, ins.E)
				}
			}
			index := (ins.Op == RLdElem || ins.Op == RStElem) && ins.F1 == RNop
			for i, x := range reads {
				if err := operand(x); err != nil {
					return fmt.Errorf("%s %d (%s): %v", where, pc, ins.Op, err)
				}
				if name, ok := indexOnly[x]; ok && (i > 0 || !index) {
					return fmt.Errorf("%s %d (%s): reads index-only %s as a value", where, pc, ins.Op, name)
				}
			}
			for _, x := range writes {
				if err := register(x); err != nil {
					return fmt.Errorf("%s %d (%s): %v", where, pc, ins.Op, err)
				}
				if name, ok := indexOnly[x]; ok {
					return fmt.Errorf("%s %d (%s): writes index-only %s", where, pc, ins.Op, name)
				}
			}
			for _, step := range steps {
				if step != RNop && !IsFusableStep(step) {
					return fmt.Errorf("%s %d (%s): fused step %d", where, pc, ins.Op, step)
				}
			}
			if isBranch(ins.Op) && (ins.C < 0 || int(ins.C) >= len(code)) {
				return fmt.Errorf("%s %d (%s): target %d of %d", where, pc, ins.Op, ins.C, len(code))
			}
			if !body && !instrPure(ins) {
				return fmt.Errorf("%s %d: %s is not pure", where, pc, ins.Op)
			}
		}
		return nil
	}
	if err := check("prologue", w.Prologue, false); err != nil {
		return err
	}
	if err := check("body", w.Code, true); err != nil {
		return err
	}
	if n := len(w.Code); n == 0 {
		return fmt.Errorf("empty body")
	} else if last := w.Code[n-1].Op; last != REnd && last != RJmp && last != RTrap {
		return fmt.Errorf("body falls off its end after %s", last)
	}
	for pc, ins := range w.Code {
		if ins.Op == RGuard {
			if err := checkGuard(w, pc, presets); err != nil {
				return fmt.Errorf("guard at %d: %v", pc, err)
			}
		}
	}
	if err := checkGuardOnly(w); err != nil {
		return err
	}
	barriers := 0
	for _, ins := range w.Code {
		if ins.Op == RBarrier {
			barriers++
		}
	}
	if w.HasBarriers() != (barriers > 0) {
		return fmt.Errorf("HasBarriers %v with %d barrier instructions", w.HasBarriers(), barriers)
	}
	if len(w.Code) > lowerMaxIR {
		return fmt.Errorf("%d instructions, over the cap of %d", len(w.Code), lowerMaxIR)
	}
	return nil
}

// checkGuard restates what a position guard's slice must be for the
// runner to decide its branch in closed form (opt.go's guard pass):
// every step of the slice and the branch is add.i, sub.i, mul.i or an int
// compare; what they read is a result of an earlier slice step or a
// register the body never writes; each slice result is no register the
// runner presets or seeds, is written once in the plan and is read
// nowhere but later in the slice and in the branch; no jump lands inside
// the slice or on the branch, and the branch writes nothing back.
func checkGuard(w *WGFunc, pc int, presets []int32) error {
	code := w.Code
	b := int(code[pc].C)
	if w.HasBarriers() {
		return fmt.Errorf("in a plan with barriers")
	}
	if b <= pc || b >= len(code) || code[b].Op != RBrT && code[b].Op != RBrF {
		return fmt.Errorf("decides @%d, not a conditional branch after it", b)
	}
	if code[b].D != -1 {
		return fmt.Errorf("branch writes back r%d", code[b].D)
	}
	step := func(op ROp) bool {
		return op == RAddI || op == RSubI || op == RMulI || op >= RLtI && op <= RNeI
	}
	driver := map[int32]bool{}
	for _, r := range presets {
		driver[r] = true
	}
	for _, a := range w.Affine {
		driver[a.Reg] = true
	}
	writes, bodyWrites := map[int32]int{}, map[int32]int{}
	for i := range w.Prologue {
		instrDefs(&w.Prologue[i], func(r int32) { writes[r]++ })
	}
	for i := range code {
		instrDefs(&code[i], func(r int32) { writes[r]++; bodyWrites[r]++ })
		if isBranch(code[i].Op) && int(code[i].C) > pc && int(code[i].C) <= b {
			return fmt.Errorf("jump at %d lands at %d, inside the slice", i, code[i].C)
		}
	}
	result := map[int32]bool{}
	for t := pc + 1; t <= b; t++ {
		ins := &code[t]
		if t < b && !step(ins.Op) || ins.F1 != RNop && !step(ins.F1) || ins.F2 != RNop && !step(ins.F2) {
			return fmt.Errorf("%d (%s): a step out of the closed form", t, ins.Op)
		}
		var err error
		instrUses(ins, func(x int32) {
			if !result[x] && bodyWrites[x] > 0 && err == nil {
				err = fmt.Errorf("%d (%s) reads r%d, which the body writes and no earlier slice step does", t, ins.Op, x)
			}
		})
		if err != nil {
			return err
		}
		if t < b {
			if d := ins.D; driver[d] || writes[d] != 1 {
				return fmt.Errorf("%d: slice result r%d is preset or written %d times", t, d, writes[d])
			}
			result[ins.D] = true
		}
	}
	for ci, part := range [][]RInstr{w.Prologue, code} {
		for i := range part {
			if ci == 1 && i > pc && i <= b {
				continue
			}
			var err error
			instrUses(&part[i], func(x int32) {
				if result[x] {
					err = fmt.Errorf("slice result r%d is read at %d, outside the slice", x, i)
				}
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// checkGuardOnly requires a div/mod pair to be marked guard-only exactly
// when nothing but guard slices (an RGuard's pc+1 through its branch)
// reads its registers: the runner leaves a guard-only pair's rows unfilled
// until a guard runs its slice.
func checkGuardOnly(w *WGFunc) error {
	outside := map[int32]int{} // register → a pc that reads it outside every slice
	for ci, code := range [][]RInstr{w.Prologue, w.Code} {
		end := -1
		for pc := range code {
			if ci == 1 && code[pc].Op == RGuard {
				end = int(code[pc].C)
			}
			if pc > end || ci == 0 {
				instrUses(&code[pc], func(x int32) {
					if _, ok := outside[x]; !ok && x >= 0 { // a constant is no register
						outside[x] = pc
					}
				})
			}
		}
	}
	for i, dm := range w.DivMod {
		read := false
		for _, reg := range []int32{dm.ModReg, dm.DivReg} {
			if pc, ok := outside[reg]; ok && dm.GuardOnly {
				return fmt.Errorf("guard-only pair %d: r%d is read at %d, outside every guard slice", i, reg, pc)
			} else if ok {
				read = true
			}
		}
		if !read && !dm.GuardOnly {
			return fmt.Errorf("pair %d (r%d, r%d) is read only in guard slices but not marked guard-only", i, dm.ModReg, dm.DivReg)
		}
	}
	return nil
}

// SinkMoves plans f as WorkGroup does and returns the registers whose
// defs the sink pass moved, one entry per move.
func SinkMoves(f *Func) []int32 {
	_, o := optimized(f.raw)
	return o.sunk
}

// CheckLoads runs f's lowered plan as work-item gid with int scalar
// arguments ints (indexed like f.Args) for at most 10,000 instructions,
// and reports the first load through argument arg whose index is not
// what the form Loads gives it says. Loads is path-insensitive, so any
// path is one it must be right on: every load reads its own index,
// builtins read zero, and a branch is taken when its operand is nonzero.
func CheckLoads(p *Program, f *Func, arg int, gid int32, ints []int32) error {
	w := p.Unoptimized(f)
	forms := map[int]*Affine{}
	for _, ld := range p.Loads(f, arg) {
		forms[ld.PC] = ld.Index
	}
	regs := make([]uint64, w.NumRegs)
	if w.GidRegs[0] >= 0 {
		regs[w.GidRegs[0]] = u64i(gid)
	}
	for i, r := range w.ArgRegs {
		if r >= 0 && f.Args[i].Kind == ArgScalarInt {
			regs[r] = u64i(ints[i])
		}
	}
	val := func(x int32) uint64 {
		if x < 0 {
			return w.Consts[^x]
		}
		return regs[x]
	}
	for pc, steps := 0, 0; pc < len(w.Code) && steps < 10000; steps++ {
		ins := &w.Code[pc]
		pc++
		switch ins.Op {
		case REnd, RTrap:
			return nil
		case RNop, RStElem, RBarrier:
		case RJmp:
			pc = int(ins.C)
		case RBrT, RBrF:
			if (uint32(val(ins.A)) != 0) == (ins.Op == RBrT) {
				pc = int(ins.C)
			}
		case RMov:
			regs[ins.D] = val(ins.A)
		case RBuiltin:
			regs[ins.D] = 0
		case RDivI, RModI:
			a, b := i32(val(ins.A)), i32(val(ins.B))
			if b == 0 {
				return nil
			}
			if ins.Op == RDivI {
				regs[ins.D] = u64i(a / b)
			} else {
				regs[ins.D] = u64i(a % b)
			}
		case RLdElem:
			idx := i32(val(ins.A))
			if x := forms[pc-1]; x != nil {
				want := x.Const + x.Gid*gid
				for i, c := range x.Args {
					want += c * ints[i]
				}
				if want != idx {
					return fmt.Errorf("load at pc %d reads index %d, Loads says %+v = %d", pc-1, idx, *x, want)
				}
			}
			regs[ins.D] = u64i(idx)
		default:
			regs[ins.D] = StepEval(ins.Op, val(ins.A), val(ins.B))
		}
	}
	return nil
}
