package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"dopencl/internal/kernel"
)

// The AST oracle: MiniCL evaluated straight off kernel.Parse output, in
// plain Go int32 and float32, one goroutine per work-item, barrier() as a
// rendezvous of the group. It shares nothing with kernel.Compile — not the
// typing rules, not the implicit conversions, not the IR, not StepEval —
// so a mistake anywhere between the parser and the executor shows up as a
// difference from it. It is slow and meant to be obviously right.

// oval is a MiniCL scalar; float says which field holds it.
type oval struct {
	float bool
	i     int32
	f     float32
}

func oint(v int32) oval     { return oval{i: v} }
func ofloat(v float32) oval { return oval{float: true, f: v} }
func obool(b bool) oval {
	if b {
		return oint(1)
	}
	return oint(0)
}

// to converts v to int or float the way a C cast does.
func (v oval) to(float bool) oval {
	switch {
	case v.float == float:
		return v
	case float:
		return ofloat(float32(v.i))
	}
	return oint(int32(v.f))
}

// obuf is a buffer parameter bound to memory.
type obuf struct {
	mem   []byte
	float bool
}

// otrap is a kernel fault, carried by panic out of the evaluator.
type otrap string

// oreturn and oloop carry control flow out of nested statements; oabort
// unwinds an item whose group has already failed.
type oreturn struct{ v *oval }
type oabort struct{}
type oloop int

const (
	obreak oloop = iota
	ocontinue
)

// ogroup is the rendezvous state of one work-group.
type ogroup struct {
	mu      sync.Mutex
	cond    *sync.Cond
	items   int
	waiting int // items blocked in barrier()
	ended   int // items that have returned
	gen     int // bumped every time the waiting items are released
	failed  error
	trapped int // lowest item that has trapped; items while none has
}

const oDivergence = "barrier divergence: some work-items of a group finished while others wait at a barrier"

// settle runs with mu held whenever an item arrives at a barrier or ends:
// once every item has done one or the other, the round is over.
func (g *ogroup) settle() {
	if g.waiting+g.ended < g.items || g.waiting == 0 {
		return
	}
	if g.ended > 0 && g.failed == nil {
		g.failed = fmt.Errorf("%s", oDivergence)
	}
	g.waiting = 0
	g.gen++
	g.cond.Broadcast()
}

// oitem evaluates one work-item.
type oitem struct {
	file   *kernel.File
	nd     int
	lin    int      // this item's number within its group
	gid    [3]int32 // this item
	lid    [3]int32
	group  [3]int32 // this group and launch
	gsize  [3]int32
	lsize  [3]int32
	ngroup [3]int32
	goff   [3]int32
	g      *ogroup
	scopes []map[string]any // oval, *oval (variables) or obuf
}

// oracleRun executes the launch on the AST oracle and returns the error a
// kernel fault produced, formatted like a *TrapError.
func oracleRun(src, name string, args []Arg, global, offset, local []int) error {
	file, err := kernel.Parse(src)
	if err != nil {
		return err
	}
	var decl *kernel.FuncDecl
	for _, fn := range file.Funcs {
		if fn.Name == name && fn.IsKernel {
			decl = fn
		}
	}
	if decl == nil {
		return fmt.Errorf("oracle: no kernel %s", name)
	}
	nd := len(global)
	var goff, ngroups [3]int
	copy(goff[:], offset)
	totalGroups, items := 1, 1
	for d := 0; d < nd; d++ {
		ngroups[d] = global[d] / local[d]
		totalGroups *= ngroups[d]
		items *= local[d]
	}
	for gl := 0; gl < totalGroups; gl++ {
		g := &ogroup{items: items, trapped: items}
		g.cond = sync.NewCond(&g.mu)
		// Fresh, zeroed local memory per group; global memory is shared.
		bufs := make([]obuf, len(args))
		for i, a := range args {
			isFloat := decl.Params[i].Type == kernel.TypeFloatPtr
			switch a.Kind {
			case kernel.ArgGlobalBuf:
				bufs[i] = obuf{mem: a.Global, float: isFloat}
			case kernel.ArgLocalBuf:
				bufs[i] = obuf{mem: make([]byte, a.LocalSize), float: isFloat}
			}
		}
		var wg sync.WaitGroup
		for li := 0; li < items; li++ {
			it := &oitem{file: file, nd: nd, g: g, lin: li}
			gr, l := gl, li
			for d := 0; d < nd; d++ {
				it.group[d] = int32(gr % ngroups[d])
				gr /= ngroups[d]
				it.lid[d] = int32(l % local[d])
				l /= local[d]
				it.gsize[d], it.lsize[d] = int32(global[d]), int32(local[d])
				it.ngroup[d], it.goff[d] = int32(ngroups[d]), int32(goff[d])
				it.gid[d] = it.goff[d] + it.group[d]*it.lsize[d] + it.lid[d]
			}
			params := map[string]any{}
			for i, p := range decl.Params {
				switch args[i].Kind {
				case kernel.ArgScalarInt:
					v := oint(int32(uint32(args[i].Scalar)))
					params[p.Name] = &v
				case kernel.ArgScalarFloat:
					v := ofloat(math.Float32frombits(uint32(args[i].Scalar)))
					params[p.Name] = &v
				default:
					params[p.Name] = bufs[i]
				}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				it.run(decl, params)
			}()
		}
		wg.Wait()
		if g.failed != nil {
			return fmt.Errorf("vm: kernel %s: %v", name, g.failed)
		}
	}
	return nil
}

// run evaluates the kernel for this item and reports its end — or its
// fault — to the group.
func (it *oitem) run(decl *kernel.FuncDecl, params map[string]any) {
	g := it.g
	defer func() {
		r := recover()
		g.mu.Lock()
		defer g.mu.Unlock()
		switch t := r.(type) {
		case nil, oabort:
		case otrap:
			// Items run at once here, so which trap comes first is up to
			// the scheduler; the one reported is that of the lowest item,
			// as if they had run in order.
			if it.lin < g.trapped {
				g.failed, g.trapped = fmt.Errorf("%s", string(t)), it.lin
			}
			g.cond.Broadcast() // nobody waits for a failed group to rendezvous
		default:
			panic(r)
		}
		g.ended++
		g.settle()
	}()
	it.call(decl, params)
}

// call evaluates decl's body over its bound parameters and returns what it
// returned (nil for void).
func (it *oitem) call(decl *kernel.FuncDecl, params map[string]any) (ret *oval) {
	saved := it.scopes
	it.scopes = []map[string]any{params}
	defer func() {
		it.scopes = saved
		if r := recover(); r != nil {
			rv, ok := r.(oreturn)
			if !ok {
				panic(r)
			}
			ret = rv.v
		}
	}()
	it.block(decl.Body)
	if decl.Return != kernel.TypeVoid {
		panic(otrap("missing return in function " + decl.Name))
	}
	return nil
}

func (it *oitem) lookup(name string) any {
	for i := len(it.scopes) - 1; i >= 0; i-- {
		if v, ok := it.scopes[i][name]; ok {
			return v
		}
	}
	panic(fmt.Sprintf("oracle: undefined %s", name))
}

func (it *oitem) block(b *kernel.BlockStmt) {
	it.scopes = append(it.scopes, map[string]any{})
	defer func() { it.scopes = it.scopes[:len(it.scopes)-1] }()
	for _, s := range b.Stmts {
		it.stmt(s)
	}
}

// loopBody runs one iteration's body; it reports whether the loop goes on.
func (it *oitem) loopBody(b *kernel.BlockStmt) (goOn bool) {
	defer func() {
		if r := recover(); r != nil {
			l, ok := r.(oloop)
			if !ok {
				panic(r)
			}
			goOn = l == ocontinue
		}
	}()
	it.block(b)
	return true
}

func (it *oitem) stmt(s kernel.Stmt) {
	switch st := s.(type) {
	case *kernel.BlockStmt:
		it.block(st)
	case *kernel.DeclStmt:
		v := oval{float: st.Type == kernel.TypeFloat}
		if st.Init != nil {
			v = it.expr(st.Init).to(v.float)
		}
		it.scopes[len(it.scopes)-1][st.Name] = &v
	case *kernel.AssignStmt:
		it.assign(st.Target, st.Op, st.Value)
	case *kernel.IncDecStmt:
		it.assign(st.Target, map[string]string{"++": "+=", "--": "-="}[st.Op], &kernel.IntLit{Value: 1})
	case *kernel.ExprStmt:
		if c, ok := st.X.(*kernel.CallExpr); ok {
			it.callExpr(c) // may be void
		} else {
			it.expr(st.X)
		}
	case *kernel.IfStmt:
		if it.expr(st.Cond).i != 0 {
			it.block(st.Then)
		} else if st.Else != nil {
			it.stmt(st.Else)
		}
	case *kernel.WhileStmt:
		for it.expr(st.Cond).i != 0 && it.loopBody(st.Body) {
		}
	case *kernel.ForStmt:
		it.scopes = append(it.scopes, map[string]any{})
		defer func() { it.scopes = it.scopes[:len(it.scopes)-1] }()
		if st.Init != nil {
			it.stmt(st.Init)
		}
		for (st.Cond == nil || it.expr(st.Cond).i != 0) && it.loopBody(st.Body) {
			if st.Post != nil {
				it.stmt(st.Post)
			}
		}
	case *kernel.ReturnStmt:
		if st.Value == nil {
			panic(oreturn{})
		}
		v := it.expr(st.Value)
		panic(oreturn{&v})
	case *kernel.BreakStmt:
		panic(obreak)
	case *kernel.ContinueStmt:
		panic(ocontinue)
	case *kernel.BarrierStmt:
		it.barrier()
	default:
		panic(fmt.Sprintf("oracle: statement %T", s))
	}
}

// barrier blocks until every item of the group has arrived.
func (it *oitem) barrier() {
	g := it.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.failed == nil {
		gen := g.gen
		g.waiting++
		g.settle()
		for g.gen == gen && g.failed == nil {
			g.cond.Wait()
		}
	}
	if g.failed != nil {
		panic(oabort{})
	}
}

// elem resolves buf[index] to the buffer and the element's byte offset.
// The bounds check happens at the access, as a fault of that access.
func (it *oitem) elem(x *kernel.IndexExpr) (b obuf, off func() int) {
	b = it.lookup(x.Buf.(*kernel.Ident).Name).(obuf)
	idx := int(it.expr(x.Index).i)
	return b, func() int {
		if idx < 0 || 4*idx+4 > len(b.mem) {
			panic(otrap(fmt.Sprintf("buffer index %d out of range (buffer has %d elements)", idx, len(b.mem)/4)))
		}
		return 4 * idx
	}
}

func (b obuf) load(off int) oval {
	bits := binary.LittleEndian.Uint32(b.mem[off:])
	if b.float {
		return ofloat(math.Float32frombits(bits))
	}
	return oint(int32(bits))
}

// assign evaluates `target op value` left to right: the index, the
// element's old value if op reads it, the value, the store.
func (it *oitem) assign(target kernel.Expr, op string, value kernel.Expr) {
	apply := func(cur oval) oval {
		v := it.expr(value).to(cur.float)
		if op == "=" {
			return v
		}
		return arith(op[:len(op)-1], cur, v)
	}
	switch t := target.(type) {
	case *kernel.Ident:
		p := it.lookup(t.Name).(*oval)
		*p = apply(*p)
	case *kernel.IndexExpr:
		b, off := it.elem(t)
		cur := oval{float: b.float}
		if op != "=" {
			cur = b.load(off())
		}
		nv := apply(cur)
		bits := uint32(nv.i)
		if b.float {
			bits = math.Float32bits(nv.f)
		}
		binary.LittleEndian.PutUint32(b.mem[off():], bits)
	}
}

// arith applies a binary operator to two operands of the same type.
func arith(op string, a, b oval) oval {
	if a.float {
		x, y := a.f, b.f
		switch op {
		case "+":
			return ofloat(x + y)
		case "-":
			return ofloat(x - y)
		case "*":
			return ofloat(x * y)
		case "/":
			return ofloat(x / y)
		case "<":
			return obool(x < y)
		case "<=":
			return obool(x <= y)
		case ">":
			return obool(x > y)
		case ">=":
			return obool(x >= y)
		case "==":
			return obool(x == y)
		case "!=":
			return obool(x != y)
		}
		panic("oracle: float operator " + op)
	}
	x, y := a.i, b.i
	switch op {
	case "+":
		return oint(x + y)
	case "-":
		return oint(x - y)
	case "*":
		return oint(x * y)
	case "/":
		if y == 0 {
			panic(otrap("integer division by zero"))
		}
		return oint(x / y)
	case "%":
		if y == 0 {
			panic(otrap("integer modulo by zero"))
		}
		return oint(x % y)
	case "&":
		return oint(x & y)
	case "|":
		return oint(x | y)
	case "^":
		return oint(x ^ y)
	case "<<":
		return oint(x << (uint32(y) & 31))
	case ">>":
		return oint(x >> (uint32(y) & 31))
	case "<":
		return obool(x < y)
	case "<=":
		return obool(x <= y)
	case ">":
		return obool(x > y)
	case ">=":
		return obool(x >= y)
	case "==":
		return obool(x == y)
	case "!=":
		return obool(x != y)
	}
	panic("oracle: int operator " + op)
}

// isFloat gives the static type of e, which ?: needs for the branch it
// does not evaluate.
func (it *oitem) isFloat(e kernel.Expr) bool {
	switch x := e.(type) {
	case *kernel.FloatLit:
		return true
	case *kernel.Ident:
		if x.Name == "CLK_LOCAL_MEM_FENCE" || x.Name == "CLK_GLOBAL_MEM_FENCE" {
			return false
		}
		return it.lookup(x.Name).(*oval).float
	case *kernel.UnaryExpr:
		return x.Op == "-" && it.isFloat(x.X)
	case *kernel.CastExpr:
		return x.To == kernel.TypeFloat
	case *kernel.IndexExpr:
		return it.lookup(x.Buf.(*kernel.Ident).Name).(obuf).float
	case *kernel.BinaryExpr:
		switch x.Op {
		case "+", "-", "*", "/":
			return it.isFloat(x.L) || it.isFloat(x.R)
		}
	case *kernel.CondExpr:
		return it.isFloat(x.Then) || it.isFloat(x.Else)
	case *kernel.CallExpr:
		switch x.Name {
		case "sqrt", "rsqrt", "exp", "log", "sin", "cos", "tan", "fabs", "floor", "ceil",
			"pow", "fmin", "fmax", "fmod", "clamp":
			return true
		}
		for _, fn := range it.file.Funcs {
			if fn.Name == x.Name {
				return fn.Return == kernel.TypeFloat
			}
		}
	}
	return false
}

func (it *oitem) expr(e kernel.Expr) oval {
	switch x := e.(type) {
	case *kernel.IntLit:
		return oint(x.Value)
	case *kernel.FloatLit:
		return ofloat(x.Value)
	case *kernel.Ident:
		switch x.Name {
		case "CLK_LOCAL_MEM_FENCE":
			return oint(1)
		case "CLK_GLOBAL_MEM_FENCE":
			return oint(2)
		}
		return *it.lookup(x.Name).(*oval)
	case *kernel.UnaryExpr:
		v := it.expr(x.X)
		switch x.Op {
		case "-":
			if v.float {
				return ofloat(-v.f)
			}
			return oint(-v.i)
		case "!":
			return obool(v.i == 0)
		case "~":
			return oint(^v.i)
		}
	case *kernel.CastExpr:
		return it.expr(x.X).to(x.To == kernel.TypeFloat)
	case *kernel.IndexExpr:
		b, off := it.elem(x)
		return b.load(off())
	case *kernel.BinaryExpr:
		switch x.Op {
		case "&&":
			return obool(it.expr(x.L).i != 0 && it.expr(x.R).i != 0)
		case "||":
			return obool(it.expr(x.L).i != 0 || it.expr(x.R).i != 0)
		}
		a := it.expr(x.L)
		b := it.expr(x.R)
		float := a.float || b.float
		return arith(x.Op, a.to(float), b.to(float))
	case *kernel.CondExpr:
		float := it.isFloat(x.Then) || it.isFloat(x.Else)
		if it.expr(x.Cond).i != 0 {
			return it.expr(x.Then).to(float)
		}
		return it.expr(x.Else).to(float)
	case *kernel.CallExpr:
		if v := it.callExpr(x); v != nil {
			return *v
		}
	}
	panic(fmt.Sprintf("oracle: expression %T", e))
}

// callExpr evaluates a builtin or helper call; nil is a void result.
func (it *oitem) callExpr(x *kernel.CallExpr) *oval {
	for _, fn := range it.file.Funcs {
		if fn.Name != x.Name {
			continue
		}
		params := map[string]any{}
		for i, p := range fn.Params {
			if p.Type.IsPointer() {
				params[p.Name] = it.lookup(x.Args[i].(*kernel.Ident).Name)
				continue
			}
			v := it.expr(x.Args[i]).to(p.Type == kernel.TypeFloat)
			params[p.Name] = &v
		}
		ret := it.call(fn, params)
		if ret != nil {
			v := ret.to(fn.Return == kernel.TypeFloat)
			ret = &v
		}
		return ret
	}
	v := it.builtin(x)
	return &v
}

func (it *oitem) builtin(x *kernel.CallExpr) oval {
	arg := func(i int) oval { return it.expr(x.Args[i]) }
	// Work-item queries: a dimension the launch does not have reads def.
	coord := func(vals [3]int32, def int32) oval {
		d := arg(0).to(false).i
		if d < 0 || int(d) >= it.nd {
			return oint(def)
		}
		return oint(vals[d])
	}
	f := func(i int) float64 { return float64(arg(i).to(true).f) }
	n := func(i int) int32 { return arg(i).to(false).i }
	fl := func(v float64) oval { return ofloat(float32(v)) }
	switch x.Name {
	case "get_global_id":
		return coord(it.gid, 0)
	case "get_local_id":
		return coord(it.lid, 0)
	case "get_group_id":
		return coord(it.group, 0)
	case "get_global_offset":
		return coord(it.goff, 0)
	case "get_global_size":
		return coord(it.gsize, 1)
	case "get_local_size":
		return coord(it.lsize, 1)
	case "get_num_groups":
		return coord(it.ngroup, 1)
	case "get_work_dim":
		return oint(int32(it.nd))
	case "sqrt":
		return fl(math.Sqrt(f(0)))
	case "rsqrt":
		return fl(1 / math.Sqrt(f(0)))
	case "exp":
		return fl(math.Exp(f(0)))
	case "log":
		return fl(math.Log(f(0)))
	case "sin":
		return fl(math.Sin(f(0)))
	case "cos":
		return fl(math.Cos(f(0)))
	case "tan":
		return fl(math.Tan(f(0)))
	case "fabs":
		return fl(math.Abs(f(0)))
	case "floor":
		return fl(math.Floor(f(0)))
	case "ceil":
		return fl(math.Ceil(f(0)))
	case "pow":
		return fl(math.Pow(f(0), f(1)))
	case "fmin":
		return fl(math.Min(f(0), f(1)))
	case "fmax":
		return fl(math.Max(f(0), f(1)))
	case "fmod":
		return fl(math.Mod(f(0), f(1)))
	case "clamp":
		return fl(math.Min(math.Max(f(0), f(1)), f(2)))
	case "min":
		return oint(min(n(0), n(1)))
	case "max":
		return oint(max(n(0), n(1)))
	case "abs":
		v := n(0)
		if v < 0 {
			v = -v
		}
		return oint(v)
	}
	panic("oracle: builtin " + x.Name)
}
