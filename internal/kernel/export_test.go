package kernel

import "fmt"

// CheckPlan reports the first way in which w is not a well-formed plan:
// something the plan runner would index out of range, jump out of the
// body with, or fall off the end of. It restates the operand conventions
// of ir.go on its own, so that it also checks the readers in opt.go.
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
	for _, a := range w.Affine {
		for _, err := range []error{register(a.Reg), operand(a.L), operand(a.R)} {
			if err != nil {
				return fmt.Errorf("affine induction: %v", err)
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
	if g := w.Guard; g != nil {
		if err := operand(g.RHS); err != nil {
			return fmt.Errorf("guard: %v", err)
		}
		if g.SurvivePC < 0 || g.SurvivePC >= len(w.Code) {
			return fmt.Errorf("guard resumes at %d of %d", g.SurvivePC, len(w.Code))
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
			case RJmp:
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
			for _, x := range reads {
				if err := operand(x); err != nil {
					return fmt.Errorf("%s %d (%s): %v", where, pc, ins.Op, err)
				}
			}
			for _, x := range writes {
				if err := register(x); err != nil {
					return fmt.Errorf("%s %d (%s): %v", where, pc, ins.Op, err)
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
