package kernel

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"
)

// This file defines the register IR, the one form a kernel has after
// parsing: lower.go emits it from the AST, opt.go rewrites it, and the
// plan runner in internal/vm executes it — as lowered when a test wants the
// reference, after the passes otherwise.
//
// Design notes:
//
//   - Values are 64-bit slot images: int32 in the low bits, float32 as
//     IEEE bits.
//   - Instruction operands are signed: x >= 0 names register x, x < 0
//     names constant pool entry ^x. Constants therefore never need to be
//     preloaded into registers.
//   - Arithmetic instructions carry up to two fused follow-on steps (F1,
//     F2), forming a three-wide "superinstruction": the primary op's
//     result is threaded as the left operand through each step. Every
//     step performs its own float32 rounding, so a fused a*b+c is
//     bit-identical to the unfused mul-then-add — fusion reduces dispatch
//     count, never arithmetic behaviour.
//   - Conditional branches (RBrT/RBrF) embed their comparison in F1 and
//     may additionally embed one pre-arithmetic step in F2 (with operand
//     E and optional register write-back via D), so compare-and-branch
//     and increment-compare-branch loops execute as one dispatch.

// ROp is a register-IR opcode.
type ROp uint8

// Register IR opcodes.
const (
	RNop ROp = iota

	// Moves: D = val(A). RMov2/RMov3 pack two/three independent moves
	// (pairs D←A, B←C, E←F) into one dispatch.
	RMov
	RMov2
	RMov3

	// Fusable value ops (RAddI..RF2I): pure and trap-free, usable both as
	// primary opcodes and as fused follow-on steps. Unary ops ignore the
	// right operand.
	RAddI
	RSubI
	RMulI
	RAndI
	ROrI
	RXorI
	RShlI
	RShrI
	RMinI
	RMaxI
	RNegI
	RNotI
	RLNot
	RAbsI
	RAddF
	RSubF
	RMulF
	RDivF
	RMinF
	RMaxF
	RNegF
	RAbsF
	RSqrtF
	RFloorF
	RCeilF
	RLtI
	RLeI
	RGtI
	RGeI
	REqI
	RNeI
	RLtF
	RLeF
	RGtF
	RGeF
	REqF
	RNeF
	RI2F
	RF2I

	// Trapping integer division (never fused: the trap check must keep
	// its own dispatch point and exact error message).
	RDivI
	RModI

	// Buffer element access. B is the plan's buffer-table index, A the
	// element index operand; F1/E optionally apply one fused arithmetic
	// step to the index before use. RLdElem writes D; RStElem stores
	// val(C).
	RLdElem
	RStElem

	// Control flow. Branch/jump targets are instruction indices in C.
	// RBrT/RBrF: v = val(A); if F2 != RNop, v = step(F2, v, val(E)) and,
	// when D >= 0, regs[D] = v; branch when step(F1, v, val(B)) is
	// true (RBrT) or false (RBrF).
	RJmp
	RBrT
	RBrF

	// REnd finishes the current work-item (kernel return or end of body).
	REnd

	// RTrap aborts the launch with pre-rendered message TrapMsgs[A]
	// (e.g. "missing return in function f" for inlined helpers).
	RTrap

	// RBuiltin calls math builtin C=BuiltinID with argument operands A, B,
	// E (in source order) writing D. Used for the builtins that have no
	// dedicated opcode.
	RBuiltin

	// RBarrier suspends the work-item until every item of its group has
	// arrived at a barrier; the item resumes at the next instruction. It
	// may stand anywhere a statement can: in loops, under branches, in
	// inlined helpers.
	RBarrier

	// RGuard heads a position guard: C is the pc of the conditional branch
	// whose condition the instructions between, its slice, compute from
	// where an item is (opt.go's slice). The executor decides the branch
	// in closed form once for the strips of a row that lie in one period
	// of every div/mod pair the slice reads, charging each lane the slice
	// and the branch, or else runs the slice, charging the guard nothing.
	RGuard
)

var rOpNames = [...]string{
	RNop: "nop", RMov: "mov", RMov2: "mov2", RMov3: "mov3",
	RAddI: "add.i", RSubI: "sub.i", RMulI: "mul.i", RAndI: "and.i",
	ROrI: "or.i", RXorI: "xor.i", RShlI: "shl.i", RShrI: "shr.i",
	RMinI: "min.i", RMaxI: "max.i",
	RNegI: "neg.i", RNotI: "not.i", RLNot: "lnot", RAbsI: "abs.i",
	RAddF: "add.f", RSubF: "sub.f", RMulF: "mul.f", RDivF: "div.f",
	RMinF: "min.f", RMaxF: "max.f",
	RNegF: "neg.f", RAbsF: "abs.f", RSqrtF: "sqrt.f", RFloorF: "floor.f",
	RCeilF: "ceil.f",
	RLtI:   "lt.i", RLeI: "le.i", RGtI: "gt.i", RGeI: "ge.i",
	REqI: "eq.i", RNeI: "ne.i",
	RLtF: "lt.f", RLeF: "le.f", RGtF: "gt.f", RGeF: "ge.f",
	REqF: "eq.f", RNeF: "ne.f",
	RI2F: "i2f", RF2I: "f2i",
	RDivI: "div.i", RModI: "mod.i",
	RLdElem: "ld.elem", RStElem: "st.elem",
	RJmp: "jmp", RBrT: "br.t", RBrF: "br.f",
	REnd: "end", RBarrier: "barrier", RTrap: "trap", RBuiltin: "builtin",
	RGuard: "guard",
}

// String returns the opcode mnemonic.
func (o ROp) String() string {
	if int(o) < len(rOpNames) && rOpNames[o] != "" {
		return rOpNames[o]
	}
	return fmt.Sprintf("rop(%d)", uint8(o))
}

// IsFusableStep reports whether op may appear as a fused follow-on step
// (pure, trap-free value op).
func IsFusableStep(op ROp) bool { return op >= RAddI && op <= RF2I }

// IsUnaryStep reports whether op ignores its right operand.
func IsUnaryStep(op ROp) bool {
	switch op {
	case RNegI, RNotI, RLNot, RAbsI, RNegF, RAbsF, RSqrtF, RFloorF, RCeilF, RI2F, RF2I:
		return true
	}
	return false
}

// IsCompare reports whether op is a comparison producing 0/1.
func IsCompare(op ROp) bool { return op >= RLtI && op <= RNeF }

// RInstr is one register-IR instruction. Operand fields hold register
// indices (>= 0) or constant references (< 0, pool index ^x); see the
// per-opcode field conventions above.
type RInstr struct {
	Op     ROp
	F1, F2 ROp
	D      int32 // destination register (or RMov2/3 pair, RTrap msg index via A)
	A      int32
	B      int32
	C      int32 // branch/jump target, RBuiltin id
	E      int32
	F      int32
}

// StepEval evaluates a fusable value op on 64-bit slot images: int32
// wraparound, float32 rounding after every step, float64 math-library
// builtins. It is the one definition of MiniCL arithmetic, shared by the
// optimizer's constant folder and the executor.
func StepEval(op ROp, a, b uint64) uint64 {
	switch op {
	case RAddI:
		return u64i(i32(a) + i32(b))
	case RSubI:
		return u64i(i32(a) - i32(b))
	case RMulI:
		return u64i(i32(a) * i32(b))
	case RAndI:
		return u64i(i32(a) & i32(b))
	case ROrI:
		return u64i(i32(a) | i32(b))
	case RXorI:
		return u64i(i32(a) ^ i32(b))
	case RShlI:
		return u64i(i32(a) << (uint32(i32(b)) & 31))
	case RShrI:
		return u64i(i32(a) >> (uint32(i32(b)) & 31))
	case RMinI:
		if x, y := i32(a), i32(b); x < y {
			return u64i(x)
		}
		return u64i(i32(b))
	case RMaxI:
		if x, y := i32(a), i32(b); x > y {
			return u64i(x)
		}
		return u64i(i32(b))
	case RNegI:
		return u64i(-i32(a))
	case RNotI:
		return u64i(^i32(a))
	case RLNot:
		if uint32(a) == 0 {
			return 1
		}
		return 0
	case RAbsI:
		if x := i32(a); x < 0 {
			return u64i(-x)
		}
		return u64i(i32(a))
	case RAddF:
		return u64f(f32(a) + f32(b))
	case RSubF:
		return u64f(f32(a) - f32(b))
	case RMulF:
		return u64f(f32(a) * f32(b))
	case RDivF:
		return u64f(f32(a) / f32(b))
	case RMinF:
		return u64f(float32(math.Min(float64(f32(a)), float64(f32(b)))))
	case RMaxF:
		return u64f(float32(math.Max(float64(f32(a)), float64(f32(b)))))
	case RNegF:
		return u64f(-f32(a))
	case RAbsF:
		return u64f(float32(math.Abs(float64(f32(a)))))
	case RSqrtF:
		return u64f(float32(math.Sqrt(float64(f32(a)))))
	case RFloorF:
		return u64f(float32(math.Floor(float64(f32(a)))))
	case RCeilF:
		return u64f(float32(math.Ceil(float64(f32(a)))))
	case RLtI:
		return b2u(i32(a) < i32(b))
	case RLeI:
		return b2u(i32(a) <= i32(b))
	case RGtI:
		return b2u(i32(a) > i32(b))
	case RGeI:
		return b2u(i32(a) >= i32(b))
	case REqI:
		return b2u(i32(a) == i32(b))
	case RNeI:
		return b2u(i32(a) != i32(b))
	case RLtF:
		return b2u(f32(a) < f32(b))
	case RLeF:
		return b2u(f32(a) <= f32(b))
	case RGtF:
		return b2u(f32(a) > f32(b))
	case RGeF:
		return b2u(f32(a) >= f32(b))
	case REqF:
		return b2u(f32(a) == f32(b))
	case RNeF:
		return b2u(f32(a) != f32(b))
	case RI2F:
		return u64f(float32(i32(a)))
	case RF2I:
		return u64i(int32(f32(a)))
	}
	return 0
}

func i32(v uint64) int32    { return int32(uint32(v)) }
func f32(v uint64) float32  { return math.Float32frombits(uint32(v)) }
func u64i(v int32) uint64   { return uint64(uint32(v)) }
func u64f(v float32) uint64 { return uint64(math.Float32bits(v)) }
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// AffineSpec describes a strength-reduced register whose value is an
// affine function of the dimension-0 global ID: the executor evaluates the
// original expression (Op applied to operands L, R) at the first item of a
// row of the group, and an item's value is that plus its distance times a
// precomputed step. The executor seeds a row of lanes with it, unless the
// induction is index-only.
type AffineSpec struct {
	Reg  int32
	Op   ROp   // RAddI, RSubI, RMulI or RShlI
	L, R int32 // operands (registers, constants, the gid register, or earlier affine registers)
	// IndexOnly: the plan reads Reg only as the plain index of a buffer
	// access or as an operand of a later induction.
	IndexOnly bool
}

// DivModSpec describes the strength-reduced pair col = gid0 % W,
// row = gid0 / W maintained by wrap-around increments while W > 0.
// Either register may be -1 when only one of the pair appears.
type DivModSpec struct {
	ModReg, DivReg int32
	W              int32 // divisor operand (uniform)
	// GuardOnly: the plan reads ModReg and DivReg only inside the slices
	// of position guards (an RGuard's pc+1 through its branch), so their
	// rows are needed only on strips where a guard runs its slice.
	GuardOnly bool
}

// PassTiming records the wall-clock cost of one compiler pass.
type PassTiming struct {
	Name string
	Dur  time.Duration
}

// WGCompileInfo reports how the compilation of a kernel's plan went.
type WGCompileInfo struct {
	Passes         []PassTiming  // empty for the unoptimized plan
	Total          time.Duration // lowering, plus the passes if any ran
	BodyInstrs     int           // static body instruction count
	PrologueInstrs int           // static once-per-group instruction count
}

// WGFunc is a work-group plan: the register-IR form of one kernel, as
// lowered (Program.Unoptimized) or after the passes (Program.WorkGroup),
// ready for the plan runner in internal/vm.
type WGFunc struct {
	Fn *Func
	// Fallback is never set: every kernel Compile accepts has a plan, and
	// what it refuses is a build error. The field remains for callers
	// that still ask.
	Fallback string

	Consts   []uint64
	NumRegs  int
	Prologue []RInstr // executed once per work-group (uniform/hoisted code)
	Code     []RInstr // per-item body
	TrapMsgs []string

	// Driver register conventions; -1 marks an unused register.
	ArgRegs    []int32 // per kernel argument: scalar register (-1 for buffers)
	ArgBufs    []int   // per kernel argument: buffer-table index (-1 for scalars)
	NumBufs    int
	GidRegs    [3]int32
	LidRegs    [3]int32
	GroupRegs  [3]int32
	GSizeRegs  [3]int32
	LSizeRegs  [3]int32
	NGroupRegs [3]int32
	GOffRegs   [3]int32
	WorkDimReg int32

	Affine []AffineSpec
	DivMod []DivModSpec
	// IndexOnlyIDs marks gid0 and lid0 (in this order) when the plan reads
	// them as an index-only induction is read.
	IndexOnlyIDs [2]bool

	Info WGCompileInfo

	// Runners is internal/vm's free list of runners built for this plan,
	// kept here so that it lives exactly as long as the plan does.
	Runners *sync.Pool
}

// HasBarriers reports whether the plan contains RBarrier, so that all items
// of a group must be in flight at once: the executor runs the whole group
// as one strip of lanes.
func (w *WGFunc) HasBarriers() bool { return w.Fn.HasBarrier }

// BuiltinArity returns how many operands RBuiltin reads for the math
// builtin id, or -1 if id is not one.
func BuiltinArity(id BuiltinID) int {
	switch id {
	case BSqrt, BRsqrt, BExp, BLog, BSin, BCos, BTan, BFabs, BFloor, BCeil, BAbsI:
		return 1
	case BPow, BFmin, BFmax, BFmod, BMinI, BMaxI:
		return 2
	case BClampF, BClampI:
		return 3
	}
	return -1
}

func operandString(x int32, consts []uint64) string {
	if x >= 0 {
		return fmt.Sprintf("r%d", x)
	}
	idx := int(^x)
	if idx < len(consts) {
		v := consts[idx]
		return fmt.Sprintf("#%d/%g", i32(v), f32(v))
	}
	return fmt.Sprintf("#?%d", idx)
}

// Disassemble renders the plan for tests, debugging and documentation.
func (w *WGFunc) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workgroup %s (regs=%d)\n", w.Fn.Name, w.NumRegs)
	if len(w.Prologue) > 0 {
		fmt.Fprintf(&b, " prologue (once per group):\n")
		for i, ins := range w.Prologue {
			fmt.Fprintf(&b, "  %4d  %s\n", i, w.instrString(ins))
		}
	}
	tag := func(on bool, s string) string {
		if on {
			return ", " + s
		}
		return ""
	}
	for d, name := range [...]string{"gid0", "lid0"} {
		if w.IndexOnlyIDs[d] {
			fmt.Fprintf(&b, " %s (index-only)\n", name)
		}
	}
	for _, a := range w.Affine {
		fmt.Fprintf(&b, " induction r%d = %s %s %s (per-item step%s)\n",
			a.Reg, operandString(a.L, w.Consts), a.Op, operandString(a.R, w.Consts), tag(a.IndexOnly, "index-only"))
	}
	for _, dm := range w.DivMod {
		fmt.Fprintf(&b, " induction mod=r%d div=r%d over gid0 by %s (wrap-increment%s)\n",
			dm.ModReg, dm.DivReg, operandString(dm.W, w.Consts), tag(dm.GuardOnly, "guard-only"))
	}
	if len(w.Code) > 0 {
		fmt.Fprintf(&b, " body (fused per-item loop):\n")
		for i, ins := range w.Code {
			fmt.Fprintf(&b, "  %4d  %s\n", i, w.instrString(ins))
		}
	}
	return b.String()
}

func (w *WGFunc) instrString(ins RInstr) string {
	op := func(x int32) string { return operandString(x, w.Consts) }
	chain := func(s string) string {
		if ins.F1 != RNop {
			s += fmt.Sprintf(" |%s %s", ins.F1, op(ins.C))
			if ins.F2 != RNop {
				s += fmt.Sprintf(" |%s %s", ins.F2, op(ins.E))
			}
		}
		return s
	}
	switch ins.Op {
	case RNop:
		return "nop"
	case RMov:
		return fmt.Sprintf("mov r%d, %s", ins.D, op(ins.A))
	case RMov2:
		return fmt.Sprintf("mov2 r%d, %s; r%d, %s", ins.D, op(ins.A), ins.B, op(ins.C))
	case RMov3:
		return fmt.Sprintf("mov3 r%d, %s; r%d, %s; r%d, %s",
			ins.D, op(ins.A), ins.B, op(ins.C), ins.E, op(ins.F))
	case RLdElem:
		idx := op(ins.A)
		if ins.F1 != RNop {
			idx = fmt.Sprintf("%s %s %s", idx, ins.F1, op(ins.E))
		}
		return fmt.Sprintf("ld.elem r%d, buf%d[%s]", ins.D, ins.B, idx)
	case RStElem:
		idx := op(ins.A)
		if ins.F1 != RNop {
			idx = fmt.Sprintf("%s %s %s", idx, ins.F1, op(ins.E))
		}
		return fmt.Sprintf("st.elem buf%d[%s], %s", ins.B, idx, op(ins.C))
	case RJmp:
		return fmt.Sprintf("jmp @%d", ins.C)
	case RGuard:
		return fmt.Sprintf("guard: decides @%d per row", ins.C)
	case RBrT, RBrF:
		s := fmt.Sprintf("%s @%d if", ins.Op, ins.C)
		lhs := op(ins.A)
		if ins.F2 != RNop {
			lhs = fmt.Sprintf("(%s %s %s", lhs, ins.F2, op(ins.E))
			if ins.D >= 0 {
				lhs += fmt.Sprintf(" ->r%d", ins.D)
			}
			lhs += ")"
		}
		if ins.F1 == RNop {
			return fmt.Sprintf("%s %s", s, lhs)
		}
		return fmt.Sprintf("%s %s %s %s", s, lhs, ins.F1, op(ins.B))
	case REnd:
		return "end"
	case RBarrier:
		return "barrier"
	case RTrap:
		msg := ""
		if int(ins.A) < len(w.TrapMsgs) {
			msg = w.TrapMsgs[ins.A]
		}
		return fmt.Sprintf("trap %q", msg)
	case RBuiltin:
		return fmt.Sprintf("builtin r%d, #%d(%s, %s, %s)",
			ins.D, ins.C, op(ins.A), op(ins.B), op(ins.E))
	default:
		if IsUnaryStep(ins.Op) {
			return chain(fmt.Sprintf("%s r%d, %s", ins.Op, ins.D, op(ins.A)))
		}
		return chain(fmt.Sprintf("%s r%d, %s, %s", ins.Op, ins.D, op(ins.A), op(ins.B)))
	}
}
