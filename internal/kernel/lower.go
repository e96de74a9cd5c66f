package kernel

import (
	"fmt"
	"sync"
	"time"
)

// Lowering: one typed walk over a kernel's AST that checks it and emits
// its register IR (ir.go) in the same step.
//
// Every expression lowers to an operand — the register of a variable or
// of a fresh temporary, or a constant-pool reference — so there is no
// operand stack to model. Helper calls are inlined at the call site:
// scalar parameters alias the argument operands (a private copy only when
// the body assigns to them) and buffer parameters resolve to the caller's
// buffer-table entries, which is why the plan's static buffer table covers
// every program the type rules accept. Values that merge over control flow
// (?:, && and ||, helper return values) live in one register written on
// every incoming path. A barrier() is one RBarrier instruction wherever it
// stands — in a loop, under a branch, in a helper.

const (
	lowerMaxDepth = 32    // nested helper calls
	lowerMaxIR    = 50000 // emitted instructions, or statements walked, per kernel
)

// builder allocates the registers and interns the constants of one plan;
// lowering and the passes of opt.go both add to them.
type builder struct {
	numRegs  int32
	consts   []uint64
	constIdx map[uint64]int32
}

func (b *builder) newReg() int32 {
	r := b.numRegs
	b.numRegs++
	return r
}

// constRef interns v into the constant pool and returns its operand
// encoding (^index).
func (b *builder) constRef(v uint64) int32 {
	if idx, ok := b.constIdx[v]; ok {
		return ^idx
	}
	idx := int32(len(b.consts))
	b.consts = append(b.consts, v)
	b.constIdx[v] = idx
	return ^idx
}

// unit is what the functions of one translation unit share.
type unit struct {
	decls   map[string]*FuncDecl
	inlined map[*FuncDecl]bool // helpers some kernel has inlined (and so checked)
}

// sym is a resolved name: a scalar's operand (a register, or a constant
// for an argument passed by alias) or a buffer's plan buffer-table index.
type sym struct {
	typ Type
	at  int32
}

// loopJumps collects a loop's break and continue jumps until their
// targets are known.
type loopJumps struct {
	breaks, continues []int
}

// expansion is one function being lowered: the kernel, or a helper at one
// call site.
type expansion struct {
	decl   *FuncDecl
	scopes []map[string]sym
	loops  []*loopJumps
	ret    int32 // return-value register of a non-void helper
	exits  []int // jumps to the end of the expansion (helper returns)
}

func (f *expansion) pushScope() { f.scopes = append(f.scopes, map[string]sym{}) }
func (f *expansion) popScope()  { f.scopes = f.scopes[:len(f.scopes)-1] }

func (f *expansion) define(name string, s sym, line, col int) error {
	top := f.scopes[len(f.scopes)-1]
	if _, dup := top[name]; dup {
		return errAt(line, col, "variable %s redeclared in this scope", name)
	}
	top[name] = s
	return nil
}

func (f *expansion) lookup(name string) (sym, bool) {
	for i := len(f.scopes) - 1; i >= 0; i-- {
		if s, ok := f.scopes[i][name]; ok {
			return s, true
		}
	}
	return sym{}, false
}

type lowerer struct {
	builder
	unit    *unit
	root    *FuncDecl // the kernel (or the helper checked on its own)
	plan    *WGFunc
	code    []RInstr
	stack   []*expansion // the kernel, then the helpers being inlined into it
	steps   int          // statements and inline expansions walked so far
	labelAt int          // the last instruction index bound as a jump target
}

func newLowerer(u *unit, root *FuncDecl, fn *Func) *lowerer {
	lo := &lowerer{unit: u, root: root, plan: &WGFunc{Fn: fn, WorkDimReg: -1, Runners: new(sync.Pool)}}
	lo.constIdx = make(map[uint64]int32)
	for d := 0; d < 3; d++ {
		lo.plan.GidRegs[d] = -1
		lo.plan.LidRegs[d] = -1
		lo.plan.GroupRegs[d] = -1
		lo.plan.GSizeRegs[d] = -1
		lo.plan.LSizeRegs[d] = -1
		lo.plan.NGroupRegs[d] = -1
		lo.plan.GOffRegs[d] = -1
	}
	return lo
}

// lowerKernel lowers one kernel to its unoptimized plan.
func (u *unit) lowerKernel(decl *FuncDecl) (*Func, error) {
	start := time.Now()
	f := &Func{Name: decl.Name}
	for _, p := range decl.Params {
		ai := ArgInfo{Name: p.Name, ReadOnly: p.Const, Elem: p.Type.Elem()}
		switch {
		case p.Type == TypeInt:
			ai.Kind = ArgScalarInt
		case p.Type == TypeFloat:
			ai.Kind = ArgScalarFloat
		case p.Space == SpaceLocal:
			ai.Kind = ArgLocalBuf
		default:
			ai.Kind = ArgGlobalBuf
		}
		f.Args = append(f.Args, ai)
	}
	lo := newLowerer(u, decl, f)
	if _, err := lo.expand(decl, lo.bindParams(decl)); err != nil {
		return nil, err
	}
	if len(lo.code) > lowerMaxIR {
		return nil, lo.tooLarge()
	}
	lo.plan.Consts = lo.consts
	lo.plan.Code = lo.code
	lo.plan.NumRegs = int(lo.numRegs)
	lo.plan.Info = WGCompileInfo{Total: time.Since(start), BodyInstrs: len(lo.code)}
	f.raw = lo.plan
	return f, nil
}

// checkHelper lowers a helper as if it were a root and drops the code.
func (u *unit) checkHelper(decl *FuncDecl) error {
	lo := newLowerer(u, decl, &Func{Name: decl.Name})
	_, err := lo.expand(decl, lo.bindParams(decl))
	return err
}

// bindParams gives every parameter of a root function the register or
// buffer-table entry the driver presets at launch.
func (lo *lowerer) bindParams(decl *FuncDecl) []sym {
	p := lo.plan
	p.ArgRegs = make([]int32, len(decl.Params))
	p.ArgBufs = make([]int, len(decl.Params))
	args := make([]sym, len(decl.Params))
	for i, pd := range decl.Params {
		p.ArgRegs[i], p.ArgBufs[i] = -1, -1
		if pd.Type.IsPointer() {
			p.ArgBufs[i] = p.NumBufs
			args[i] = sym{pd.Type, int32(p.NumBufs)}
			p.NumBufs++
		} else {
			p.ArgRegs[i] = lo.newReg()
			args[i] = sym{pd.Type, p.ArgRegs[i]}
		}
	}
	return args
}

func (lo *lowerer) cur() *expansion { return lo.stack[len(lo.stack)-1] }

func (lo *lowerer) tooLarge() error {
	return errAt(lo.root.Line, lo.root.Col, "%s is too large to compile (inlines to more than %d statements or IR instructions)",
		lo.root.Name, lowerMaxIR)
}

// step charges one statement or inline expansion against the size cap, so
// that helpers which expand to nothing cannot make lowering run for ever.
func (lo *lowerer) step() error {
	lo.steps++
	if lo.steps > lowerMaxIR || len(lo.code) > lowerMaxIR {
		return lo.tooLarge()
	}
	return nil
}

func (lo *lowerer) emit(ins RInstr) int {
	lo.code = append(lo.code, ins)
	return len(lo.code) - 1
}

func (lo *lowerer) op1(op ROp, a int32) int32 { return lo.op2(op, a, 0) }

func (lo *lowerer) op2(op ROp, a, b int32) int32 {
	r := lo.newReg()
	lo.emit(RInstr{Op: op, D: r, A: a, B: b})
	return r
}

// label marks the next instruction as a jump target and returns its index.
func (lo *lowerer) label() int {
	lo.labelAt = len(lo.code)
	return lo.labelAt
}

// bind points the jumps at the given indices at the next instruction.
func (lo *lowerer) bind(jumps ...int) {
	if len(jumps) == 0 {
		return
	}
	target := int32(lo.label())
	for _, at := range jumps {
		lo.code[at].C = target
	}
}

// reachable reports whether control can arrive at the next instruction:
// by falling out of the previous one or over a jump bound here.
func (lo *lowerer) reachable() bool {
	n := len(lo.code)
	if n == 0 || lo.labelAt == n {
		return true
	}
	switch lo.code[n-1].Op {
	case RJmp, REnd, RTrap:
		return false
	}
	return true
}

func (lo *lowerer) trapRef(msg string) int32 {
	for i, m := range lo.plan.TrapMsgs {
		if m == msg {
			return int32(i)
		}
	}
	lo.plan.TrapMsgs = append(lo.plan.TrapMsgs, msg)
	return int32(len(lo.plan.TrapMsgs) - 1)
}

// expand lowers the body of decl with its parameters bound to args — the
// kernel itself, or a helper at one call site — and returns the register
// holding a non-void helper's return value.
func (lo *lowerer) expand(decl *FuncDecl, args []sym) (int32, error) {
	f := &expansion{decl: decl, ret: -1}
	if decl.Return != TypeVoid {
		f.ret = lo.newReg()
	}
	lo.stack = append(lo.stack, f)
	defer func() { lo.stack = lo.stack[:len(lo.stack)-1] }()
	if err := lo.step(); err != nil {
		return 0, err
	}
	f.pushScope()
	for i, p := range decl.Params {
		a := args[i]
		if !p.Type.IsPointer() && assigns(decl.Body, p.Name) {
			// The operand belongs to the caller (or, for a kernel
			// argument, to every item of the group): write to a copy.
			r := lo.newReg()
			lo.emit(RInstr{Op: RMov, D: r, A: a.at})
			a.at = r
		}
		if err := f.define(p.Name, a, p.Line, p.Col); err != nil {
			return 0, err
		}
	}
	if err := lo.block(decl.Body); err != nil {
		return 0, err
	}
	if lo.reachable() {
		switch {
		case decl.IsKernel:
			lo.emit(RInstr{Op: REnd})
		case decl.Return != TypeVoid:
			lo.emit(RInstr{Op: RTrap, A: lo.trapRef("missing return in function " + decl.Name)})
		}
	}
	lo.bind(f.exits...)
	return f.ret, nil
}

// assigns reports whether s assigns to a variable called name.
func assigns(s Stmt, name string) bool {
	target := func(e Expr) bool {
		id, ok := e.(*Ident)
		return ok && id.Name == name
	}
	switch st := s.(type) {
	case *BlockStmt:
		for _, c := range st.Stmts {
			if assigns(c, name) {
				return true
			}
		}
	case *AssignStmt:
		return target(st.Target)
	case *IncDecStmt:
		return target(st.Target)
	case *IfStmt:
		return assigns(st.Then, name) || (st.Else != nil && assigns(st.Else, name))
	case *ForStmt:
		return (st.Init != nil && assigns(st.Init, name)) ||
			(st.Post != nil && assigns(st.Post, name)) || assigns(st.Body, name)
	case *WhileStmt:
		return assigns(st.Body, name)
	}
	return false
}

func (lo *lowerer) block(b *BlockStmt) error {
	f := lo.cur()
	f.pushScope()
	defer f.popScope()
	for _, s := range b.Stmts {
		if err := lo.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (lo *lowerer) stmt(s Stmt) error {
	if err := lo.step(); err != nil {
		return err
	}
	f := lo.cur()
	switch st := s.(type) {
	case *BlockStmt:
		return lo.block(st)

	case *DeclStmt:
		val := lo.constRef(0) // a declaration without initializer reads as zero
		if st.Init != nil {
			v, t, err := lo.expr(st.Init)
			if err != nil {
				return err
			}
			if val, err = lo.convert(v, t, st.Type, st.Line, st.Col); err != nil {
				return err
			}
		}
		r := lo.newReg()
		lo.emit(RInstr{Op: RMov, D: r, A: val})
		return f.define(st.Name, sym{st.Type, r}, st.Line, st.Col)

	case *AssignStmt:
		return lo.assign(st)

	case *IncDecStmt:
		op := "+="
		if st.Op == "--" {
			op = "-="
		}
		return lo.assign(&AssignStmt{
			Target: st.Target, Op: op,
			Value: &IntLit{Value: 1, Line: st.Line, Col: st.Col},
			Line:  st.Line, Col: st.Col,
		})

	case *ExprStmt:
		_, _, err := lo.expr(st.X)
		return err

	case *IfStmt:
		c, err := lo.cond(st.Cond)
		if err != nil {
			return err
		}
		skip := lo.emit(RInstr{Op: RBrF, A: c, D: -1})
		if err := lo.block(st.Then); err != nil {
			return err
		}
		if st.Else == nil {
			lo.bind(skip)
			return nil
		}
		end := lo.emit(RInstr{Op: RJmp})
		lo.bind(skip)
		if err := lo.stmt(st.Else); err != nil {
			return err
		}
		lo.bind(end)
		return nil

	case *WhileStmt:
		return lo.loop(nil, st.Cond, nil, st.Body)

	case *ForStmt:
		f.pushScope() // the init clause's own scope
		defer f.popScope()
		return lo.loop(st.Init, st.Cond, st.Post, st.Body)

	case *BreakStmt:
		if len(f.loops) == 0 {
			return errAt(st.Line, st.Col, "break outside loop")
		}
		l := f.loops[len(f.loops)-1]
		l.breaks = append(l.breaks, lo.emit(RInstr{Op: RJmp}))
		return nil

	case *ContinueStmt:
		if len(f.loops) == 0 {
			return errAt(st.Line, st.Col, "continue outside loop")
		}
		l := f.loops[len(f.loops)-1]
		l.continues = append(l.continues, lo.emit(RInstr{Op: RJmp}))
		return nil

	case *ReturnStmt:
		switch {
		case f.decl.IsKernel:
			if st.Value != nil {
				return errAt(st.Line, st.Col, "kernel cannot return a value")
			}
			lo.emit(RInstr{Op: REnd})
			return nil
		case f.decl.Return == TypeVoid:
			if st.Value != nil {
				return errAt(st.Line, st.Col, "void function cannot return a value")
			}
		default:
			if st.Value == nil {
				return errAt(st.Line, st.Col, "function %s must return %s", f.decl.Name, f.decl.Return)
			}
			v, t, err := lo.expr(st.Value)
			if err != nil {
				return err
			}
			if v, err = lo.convert(v, t, f.decl.Return, st.Line, st.Col); err != nil {
				return err
			}
			lo.emit(RInstr{Op: RMov, D: f.ret, A: v})
		}
		f.exits = append(f.exits, lo.emit(RInstr{Op: RJmp}))
		return nil

	case *BarrierStmt:
		lo.plan.Fn.HasBarrier = true
		lo.emit(RInstr{Op: RBarrier})
		return nil
	}
	return fmt.Errorf("kernel: unhandled statement %T", s)
}

// loop lowers `for (init; cond; post) body`; a while loop is the same
// thing with only a condition.
func (lo *lowerer) loop(init Stmt, cond Expr, post Stmt, body *BlockStmt) error {
	f := lo.cur()
	if init != nil {
		if err := lo.stmt(init); err != nil {
			return err
		}
	}
	l := &loopJumps{}
	f.loops = append(f.loops, l)
	defer func() { f.loops = f.loops[:len(f.loops)-1] }()
	top := lo.label()
	if cond != nil {
		c, err := lo.cond(cond)
		if err != nil {
			return err
		}
		l.breaks = append(l.breaks, lo.emit(RInstr{Op: RBrF, A: c, D: -1}))
	}
	if err := lo.block(body); err != nil {
		return err
	}
	if post == nil {
		for _, at := range l.continues {
			lo.code[at].C = int32(top)
		}
	} else {
		lo.bind(l.continues...)
		if err := lo.stmt(post); err != nil {
			return err
		}
	}
	lo.emit(RInstr{Op: RJmp, C: int32(top)})
	lo.bind(l.breaks...)
	return nil
}

// element resolves the buffer and the index operand of buf[index].
func (lo *lowerer) element(x *IndexExpr) (sym, int32, error) {
	ident, ok := x.Buf.(*Ident)
	if !ok {
		return sym{}, 0, errAt(x.Line, x.Col, "indexed expression must be a buffer parameter")
	}
	b, ok := lo.cur().lookup(ident.Name)
	if !ok {
		return sym{}, 0, errAt(ident.Line, ident.Col, "undefined variable %s", ident.Name)
	}
	if !b.typ.IsPointer() {
		return sym{}, 0, errAt(ident.Line, ident.Col, "%s is not a buffer", ident.Name)
	}
	idx, t, err := lo.expr(x.Index)
	if err != nil {
		return sym{}, 0, err
	}
	if t != TypeInt {
		return sym{}, 0, errAt(x.Line, x.Col, "buffer index must be int, got %s", t)
	}
	return b, idx, nil
}

func (lo *lowerer) assign(st *AssignStmt) error {
	// rhs lowers the value, applies the compound operator to the target's
	// current value and converts to the target's type.
	rhs := func(typ Type, cur int32) (int32, error) {
		v, t, err := lo.expr(st.Value)
		if err != nil {
			return 0, err
		}
		if v, err = lo.convert(v, t, typ, st.Line, st.Col); err != nil {
			return 0, err
		}
		if st.Op == "=" {
			return v, nil
		}
		op := arithOp(st.Op[:len(st.Op)-1], typ)
		if op == RNop {
			return 0, errAt(st.Line, st.Col, "operator %s not defined for %s", st.Op[:len(st.Op)-1], typ)
		}
		return lo.op2(op, cur, v), nil
	}
	switch target := st.Target.(type) {
	case *Ident:
		v, ok := lo.cur().lookup(target.Name)
		if !ok {
			return errAt(target.Line, target.Col, "undefined variable %s", target.Name)
		}
		if v.typ.IsPointer() {
			return errAt(target.Line, target.Col, "cannot assign to buffer parameter %s", target.Name)
		}
		val, err := rhs(v.typ, v.at)
		if err != nil {
			return err
		}
		lo.emit(RInstr{Op: RMov, D: v.at, A: val})
		return nil

	case *IndexExpr:
		b, idx, err := lo.element(target)
		if err != nil {
			return err
		}
		var cur int32
		if st.Op != "=" {
			cur = lo.newReg()
			lo.emit(RInstr{Op: RLdElem, D: cur, A: idx, B: b.at})
		}
		val, err := rhs(b.typ.Elem(), cur)
		if err != nil {
			return err
		}
		lo.emit(RInstr{Op: RStElem, A: idx, B: b.at, C: val})
		return nil
	}
	return errAt(st.Line, st.Col, "invalid assignment target")
}

// cond lowers a condition, which must be int.
func (lo *lowerer) cond(e Expr) (int32, error) {
	v, t, err := lo.expr(e)
	if err != nil {
		return 0, err
	}
	if t != TypeInt {
		line, col := e.Pos()
		return 0, errAt(line, col, "condition must be int (use a comparison), got %s", t)
	}
	return v, nil
}

// convert returns v converted from type from to type to.
func (lo *lowerer) convert(v int32, from, to Type, line, col int) (int32, error) {
	switch {
	case from == to:
		return v, nil
	case from == TypeInt && to == TypeFloat:
		return lo.op1(RI2F, v), nil
	case from == TypeFloat && to == TypeInt:
		return lo.op1(RF2I, v), nil
	}
	return 0, errAt(line, col, "cannot convert %s to %s", from, to)
}

var intOps = map[string]ROp{
	"+": RAddI, "-": RSubI, "*": RMulI, "/": RDivI, "%": RModI,
	"&": RAndI, "|": ROrI, "^": RXorI, "<<": RShlI, ">>": RShrI,
	"<": RLtI, "<=": RLeI, ">": RGtI, ">=": RGeI, "==": REqI, "!=": RNeI,
}

var floatOps = map[string]ROp{
	"+": RAddF, "-": RSubF, "*": RMulF, "/": RDivF,
	"<": RLtF, "<=": RLeF, ">": RGtF, ">=": RGeF, "==": REqF, "!=": RNeF,
}

// arithOp returns the opcode of binary operator op on two operands of
// type t, or RNop when there is none.
func arithOp(op string, t Type) ROp {
	switch t {
	case TypeInt:
		return intOps[op]
	case TypeFloat:
		return floatOps[op]
	}
	return RNop
}

// expr lowers an expression and returns its operand and type.
func (lo *lowerer) expr(e Expr) (int32, Type, error) {
	switch x := e.(type) {
	case *IntLit:
		return lo.constRef(u64i(x.Value)), TypeInt, nil

	case *FloatLit:
		return lo.constRef(u64f(x.Value)), TypeFloat, nil

	case *Ident:
		if v, ok := lo.cur().lookup(x.Name); ok {
			if v.typ.IsPointer() {
				return 0, TypeVoid, errAt(x.Line, x.Col, "buffer %s used without index", x.Name)
			}
			return v.at, v.typ, nil
		}
		if cv, ok := predefinedConsts[x.Name]; ok {
			return lo.constRef(u64i(cv)), TypeInt, nil
		}
		return 0, TypeVoid, errAt(x.Line, x.Col, "undefined variable %s", x.Name)

	case *UnaryExpr:
		v, t, err := lo.expr(x.X)
		if err != nil {
			return 0, TypeVoid, err
		}
		switch x.Op {
		case "-":
			switch t {
			case TypeInt:
				return lo.op1(RNegI, v), t, nil
			case TypeFloat:
				return lo.op1(RNegF, v), t, nil
			}
			return 0, TypeVoid, errAt(x.Line, x.Col, "cannot negate %s", t)
		case "!", "~":
			if t != TypeInt {
				return 0, TypeVoid, errAt(x.Line, x.Col, "%s requires int operand, got %s", x.Op, t)
			}
			if x.Op == "!" {
				return lo.op1(RLNot, v), TypeInt, nil
			}
			return lo.op1(RNotI, v), TypeInt, nil
		}
		return 0, TypeVoid, errAt(x.Line, x.Col, "unknown unary operator %s", x.Op)

	case *CastExpr:
		v, t, err := lo.expr(x.X)
		if err != nil {
			return 0, TypeVoid, err
		}
		v, err = lo.convert(v, t, x.To, x.Line, x.Col)
		return v, x.To, err

	case *IndexExpr:
		b, idx, err := lo.element(x)
		if err != nil {
			return 0, TypeVoid, err
		}
		r := lo.newReg()
		lo.emit(RInstr{Op: RLdElem, D: r, A: idx, B: b.at})
		return r, b.typ.Elem(), nil

	case *BinaryExpr:
		if x.Op == "&&" || x.Op == "||" {
			return lo.shortCircuit(x)
		}
		return lo.binary(x)

	case *CondExpr:
		return lo.ternary(x)

	case *CallExpr:
		return lo.call(x)
	}
	return 0, TypeVoid, fmt.Errorf("kernel: unhandled expression %T", e)
}

func (lo *lowerer) binary(x *BinaryExpr) (int32, Type, error) {
	a, ta, err := lo.expr(x.L)
	if err != nil {
		return 0, TypeVoid, err
	}
	b, tb, err := lo.expr(x.R)
	if err != nil {
		return 0, TypeVoid, err
	}
	common := ta
	switch x.Op {
	case "%", "&", "|", "^", "<<", ">>":
		if ta != TypeInt || tb != TypeInt {
			return 0, TypeVoid, errAt(x.Line, x.Col, "operator %s requires int operands", x.Op)
		}
	default:
		// Mixed int/float operands promote the int one.
		if ta == TypeInt && tb == TypeFloat {
			a, common = lo.op1(RI2F, a), TypeFloat
		} else if ta == TypeFloat && tb == TypeInt {
			b = lo.op1(RI2F, b)
		} else if ta != tb {
			common = TypeVoid
		}
	}
	op := arithOp(x.Op, common)
	if op == RNop {
		return 0, TypeVoid, errAt(x.Line, x.Col, "operator %s not defined for %s and %s", x.Op, ta, tb)
	}
	if IsCompare(op) {
		common = TypeInt
	}
	return lo.op2(op, a, b), common, nil
}

// shortCircuit lowers a chain of one operator, a || b || c (or &&), to 0
// or 1. When no term after the first can trap or write (speculable), the
// chain is data: each term becomes a flag (a compare or a nested chain is
// one, anything else gets ne.i 0), the flags are summed, and || is sum != 0
// while && is sum == k for k terms, so that a branch on the chain is one
// branch. Otherwise the right operand is evaluated only when the left one
// does not decide.
func (lo *lowerer) shortCircuit(x *BinaryExpr) (int32, Type, error) {
	terms := chain(x.Op, x, nil)
	flags := true
	for _, t := range terms[1:] {
		flags = flags && speculable(t)
	}
	if flags {
		var sum int32
		for i, t := range terms {
			v, err := lo.cond(t)
			if err != nil {
				return 0, TypeVoid, err
			}
			if b, ok := t.(*BinaryExpr); !ok || !IsCompare(intOps[b.Op]) && b.Op != "&&" && b.Op != "||" {
				v = lo.op2(RNeI, v, lo.constRef(0))
			}
			if i == 0 {
				sum = v
			} else {
				sum = lo.op2(RAddI, sum, v)
			}
		}
		if x.Op == "||" {
			return lo.op2(RNeI, sum, lo.constRef(0)), TypeInt, nil
		}
		return lo.op2(REqI, sum, lo.constRef(u64i(int32(len(terms))))), TypeInt, nil
	}
	l, err := lo.cond(x.L)
	if err != nil {
		return 0, TypeVoid, err
	}
	decided, br := int32(0), RBrF
	if x.Op == "||" {
		decided, br = 1, RBrT
	}
	short := lo.emit(RInstr{Op: br, A: l, D: -1})
	r, err := lo.cond(x.R)
	if err != nil {
		return 0, TypeVoid, err
	}
	norm := lo.op2(RNeI, r, lo.constRef(0))
	res := lo.newReg()
	lo.emit(RInstr{Op: RMov, D: res, A: norm})
	end := lo.emit(RInstr{Op: RJmp})
	lo.bind(short)
	lo.emit(RInstr{Op: RMov, D: res, A: lo.constRef(u64i(decided))})
	lo.bind(end)
	return res, TypeInt, nil
}

// chain appends the terms of e, a chain of operator op, to terms.
func chain(op string, e Expr, terms []Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == op {
		return chain(op, b.R, chain(op, b.L, terms))
	}
	return append(terms, e)
}

// speculable reports whether e may be evaluated on a path that would not
// evaluate it: it reads only variables and literals, through casts,
// unary and binary operators other than / and %, so it has no load, no
// call and no division to trap or write.
func speculable(e Expr) bool {
	switch x := e.(type) {
	case *IntLit, *FloatLit, *Ident:
		return true
	case *CastExpr:
		return speculable(x.X)
	case *UnaryExpr:
		return speculable(x.X)
	case *BinaryExpr:
		return x.Op != "/" && x.Op != "%" && speculable(x.L) && speculable(x.R)
	}
	return false
}

func (lo *lowerer) ternary(x *CondExpr) (int32, Type, error) {
	c, err := lo.cond(x.Cond)
	if err != nil {
		return 0, TypeVoid, err
	}
	skip := lo.emit(RInstr{Op: RBrF, A: c, D: -1})
	res := lo.newReg()
	a, ta, err := lo.expr(x.Then)
	if err != nil {
		return 0, TypeVoid, err
	}
	thenMov := lo.emit(RInstr{Op: RMov, D: res, A: a})
	end := lo.emit(RInstr{Op: RJmp})
	lo.bind(skip)
	b, tb, err := lo.expr(x.Else)
	if err != nil {
		return 0, TypeVoid, err
	}
	scalar := func(t Type) bool { return t == TypeInt || t == TypeFloat }
	if !scalar(ta) || !scalar(tb) {
		return 0, TypeVoid, errAt(x.Line, x.Col, "ternary branches have mismatched types %s and %s", ta, tb)
	}
	// Branches of different scalar types promote to float; the then
	// branch's move, already emitted, becomes the conversion.
	if ta == TypeInt && tb == TypeFloat {
		lo.code[thenMov].Op = RI2F
		ta = TypeFloat
	} else if ta == TypeFloat && tb == TypeInt {
		b = lo.op1(RI2F, b)
	}
	lo.emit(RInstr{Op: RMov, D: res, A: b})
	lo.bind(end)
	return res, ta, nil
}

func (lo *lowerer) call(x *CallExpr) (int32, Type, error) {
	if sig, ok := builtinTable[x.Name]; ok {
		return lo.builtin(x, sig)
	}
	decl, ok := lo.unit.decls[x.Name]
	if !ok {
		return 0, TypeVoid, errAt(x.Line, x.Col, "undefined function %s", x.Name)
	}
	if decl.IsKernel {
		return 0, TypeVoid, errAt(x.Line, x.Col, "cannot call kernel %s from device code", x.Name)
	}
	if len(x.Args) != len(decl.Params) {
		return 0, TypeVoid, errAt(x.Line, x.Col, "%s expects %d arguments, got %d", x.Name, len(decl.Params), len(x.Args))
	}
	args := make([]sym, len(x.Args))
	for i, arg := range x.Args {
		p := decl.Params[i]
		if p.Type.IsPointer() {
			// A buffer is passed by naming it: the callee indexes the
			// caller's buffer-table entry.
			ident, isIdent := arg.(*Ident)
			if !isIdent {
				return 0, TypeVoid, errAt(x.Line, x.Col, "argument %d of %s must be a buffer name", i+1, x.Name)
			}
			b, ok := lo.cur().lookup(ident.Name)
			if !ok || b.typ != p.Type {
				return 0, TypeVoid, errAt(ident.Line, ident.Col, "argument %d of %s must be a %s buffer", i+1, x.Name, p.Type)
			}
			args[i] = b
			continue
		}
		v, t, err := lo.expr(arg)
		if err != nil {
			return 0, TypeVoid, err
		}
		if v, err = lo.convert(v, t, p.Type, x.Line, x.Col); err != nil {
			return 0, TypeVoid, err
		}
		args[i] = sym{p.Type, v}
	}
	for _, f := range lo.stack {
		if f.decl == decl {
			return 0, TypeVoid, errAt(x.Line, x.Col, "recursive call to %s (OpenCL C has no recursion)", x.Name)
		}
	}
	if len(lo.stack) > lowerMaxDepth {
		return 0, TypeVoid, errAt(x.Line, x.Col, "call to %s nests helpers more than %d deep", x.Name, lowerMaxDepth)
	}
	lo.unit.inlined[decl] = true
	ret, err := lo.expand(decl, args)
	return ret, decl.Return, err
}

// builtinOps are the builtins with an opcode of their own; the other math
// builtins go through RBuiltin.
var builtinOps = map[BuiltinID]ROp{
	BSqrt: RSqrtF, BFabs: RAbsF, BFloor: RFloorF, BCeil: RCeilF, BAbsI: RAbsI,
	BFmin: RMinF, BFmax: RMaxF, BMinI: RMinI, BMaxI: RMaxI,
}

func (lo *lowerer) builtin(x *CallExpr, sig builtinSig) (int32, Type, error) {
	if len(x.Args) != len(sig.params) {
		return 0, TypeVoid, errAt(x.Line, x.Col, "%s expects %d arguments, got %d", x.Name, len(sig.params), len(x.Args))
	}
	var ops [3]int32
	for i, arg := range x.Args {
		v, t, err := lo.expr(arg)
		if err != nil {
			return 0, TypeVoid, err
		}
		if ops[i], err = lo.convert(v, t, sig.params[i], x.Line, x.Col); err != nil {
			return 0, TypeVoid, err
		}
	}
	p := lo.plan
	switch sig.id {
	case BGetGlobalID:
		return lo.coord(&p.GidRegs, 0, ops[0]), TypeInt, nil
	case BGetLocalID:
		return lo.coord(&p.LidRegs, 0, ops[0]), TypeInt, nil
	case BGetGroupID:
		return lo.coord(&p.GroupRegs, 0, ops[0]), TypeInt, nil
	case BGetGlobalOffset:
		return lo.coord(&p.GOffRegs, 0, ops[0]), TypeInt, nil
	case BGetGlobalSize:
		return lo.coord(&p.GSizeRegs, 1, ops[0]), TypeInt, nil
	case BGetLocalSize:
		return lo.coord(&p.LSizeRegs, 1, ops[0]), TypeInt, nil
	case BGetNumGroups:
		return lo.coord(&p.NGroupRegs, 1, ops[0]), TypeInt, nil
	case BGetWorkDim:
		if p.WorkDimReg < 0 {
			p.WorkDimReg = lo.newReg()
		}
		return p.WorkDimReg, TypeInt, nil
	}
	if op, ok := builtinOps[sig.id]; ok {
		return lo.op2(op, ops[0], ops[1]), sig.result, nil
	}
	r := lo.newReg()
	lo.emit(RInstr{Op: RBuiltin, D: r, C: int32(sig.id), A: ops[0], B: ops[1], E: ops[2]})
	return r, sig.result, nil
}

// coord lowers a work-item query over the coordinate registers regs, which
// the driver presets per launch, group or item (with the defaults for
// dimensions the launch does not have). def is what a dimension outside
// 0..2 reads: 0 for ids and offsets, 1 for sizes.
func (lo *lowerer) coord(regs *[3]int32, def int32, dim int32) int32 {
	slot := func(d int32) int32 {
		if regs[d] < 0 {
			regs[d] = lo.newReg()
		}
		return regs[d]
	}
	if dim < 0 { // constant dimension: the register itself
		if d := i32(lo.consts[^dim]); d >= 0 && d <= 2 {
			return slot(d)
		}
		return lo.constRef(u64i(def))
	}
	// Dimension known only at run time: select among the three.
	res := lo.newReg()
	lo.emit(RInstr{Op: RMov, D: res, A: lo.constRef(u64i(def))})
	var found []int
	for d := int32(0); d <= 2; d++ {
		is := lo.op2(REqI, dim, lo.constRef(u64i(d)))
		next := lo.emit(RInstr{Op: RBrF, A: is, D: -1})
		lo.emit(RInstr{Op: RMov, D: res, A: slot(d)})
		if d < 2 {
			found = append(found, lo.emit(RInstr{Op: RJmp}))
		}
		lo.bind(next)
	}
	lo.bind(found...)
	return res
}
