package kernel

import "slices"

// Affine is an int value as a function of the launch: Gid times
// get_global_id(0), plus Args[i] times the kernel's int scalar argument i,
// plus Const, in the IR's 32-bit wrap-around arithmetic.
type Affine struct {
	Gid, Const int32
	Args       []int32 // one per kernel argument, zero but for int scalars
}

// plus returns x + k*y.
func (x *Affine) plus(k int32, y *Affine) *Affine {
	z := &Affine{Gid: x.Gid + k*y.Gid, Const: x.Const + k*y.Const, Args: make([]int32, len(y.Args))}
	for i := range z.Args {
		z.Args[i] = x.Args[i] + k*y.Args[i]
	}
	return z
}

func (x *Affine) constant() bool {
	return x.Gid == 0 && !slices.ContainsFunc(x.Args, func(c int32) bool { return c != 0 })
}

// Load is one load through a buffer argument of a kernel.
type Load struct {
	PC    int     // position in the body of Program.Unoptimized
	Index *Affine // nil when the index is not affine in the launch
}

// Loads returns, in code order, every load through buffer argument arg of
// f with its index. It reads the plan as lowered: helpers are inlined, so
// their loads are the kernel's own, and every name is already a register,
// so scopes cannot confuse it. A register's form is followed through mov,
// add.i, sub.i, neg.i and mul.i by a constant, and any other definition
// makes it unknown. At every jump target a register with more than one
// definition is forgotten, so a value merged over control flow — a loop's
// induction, a variable reassigned under a branch — is never guessed. The
// driver's preset of get_global_id(0) and of a scalar argument counts as
// one definition, so an argument the code also writes is forgotten too. A
// register of one definition keeps its form past a target because the
// form is fixed for the item and lowering writes every other register on
// each path before any read of it (a variable's declaration precedes its
// scope).
func (p *Program) Loads(f *Func, arg int) []Load {
	w := f.raw
	defs := make([]int, w.NumRegs)
	for _, r := range append([]int32{w.GidRegs[0]}, w.ArgRegs...) {
		if r >= 0 {
			defs[r]++
		}
	}
	target := make([]bool, len(w.Code)+1)
	for pc := range w.Code {
		instrDefs(&w.Code[pc], func(r int32) { defs[r]++ })
		// A jump to the next instruction (a helper's last return) only
		// falls through.
		if isBranch(w.Code[pc].Op) && int(w.Code[pc].C) != pc+1 {
			target[w.Code[pc].C] = true
		}
	}
	zero := &Affine{Args: make([]int32, len(f.Args))}
	val := make([]*Affine, w.NumRegs) // nil: unknown
	seed := func(r int32, v *Affine) {
		if r >= 0 && defs[r] == 1 { // preset by the driver, never written
			val[r] = v
		}
	}
	seed(w.GidRegs[0], &Affine{Gid: 1, Args: zero.Args})
	for i, r := range w.ArgRegs {
		if f.Args[i].Kind == ArgScalarInt {
			v := zero.plus(0, zero)
			v.Args[i] = 1
			seed(r, v)
		}
	}
	var loads []Load
	var reads []*Affine
	var merged []int32 // registers of more than one definition known since the last target
	for pc := range w.Code {
		ins := &w.Code[pc]
		if target[pc] {
			for _, r := range merged {
				val[r] = nil
			}
			merged = merged[:0]
		}
		// Lowered code fuses no steps: an instruction reads its plain operands.
		reads = reads[:0]
		Operands(ins, func(x *int32, def bool) {
			switch {
			case def:
			case *x < 0:
				reads = append(reads, &Affine{Const: i32(w.Consts[^*x]), Args: zero.Args})
			default:
				reads = append(reads, val[*x])
			}
		})
		if ins.Op == RLdElem && int(ins.B) == w.ArgBufs[arg] {
			loads = append(loads, Load{PC: pc, Index: reads[0]})
		}
		var v *Affine
		if !slices.Contains(reads, nil) {
			switch {
			case ins.Op == RMov:
				v = reads[0]
			case ins.Op == RAddI:
				v = reads[0].plus(1, reads[1])
			case ins.Op == RSubI:
				v = reads[0].plus(-1, reads[1])
			case ins.Op == RNegI:
				v = zero.plus(-1, reads[0])
			case ins.Op == RMulI && reads[1].constant():
				v = zero.plus(reads[1].Const, reads[0])
			case ins.Op == RMulI && reads[0].constant():
				v = zero.plus(reads[0].Const, reads[1])
			}
		}
		instrDefs(ins, func(r int32) { val[r] = nil })
		if v != nil {
			val[ins.D] = v
			if defs[ins.D] > 1 {
				merged = append(merged, ins.D)
			}
		}
	}
	return loads
}
