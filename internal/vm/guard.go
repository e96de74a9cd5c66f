package vm

import "dopencl/internal/kernel"

// guardWords is how many mask words one decision of a position guard
// covers: up to 256 lanes of a row, four strips.
const guardWords = 4

// guard is a position guard laid out for a width: its steps set vals[d]
// to pos (op RNop) or to op(vals[x], vals[y]), for the slice, the branch
// and a last test of the branch's operand against 0 (vals[0] carries a
// fused chain from step to step). Lanes go on at on where vals[cond] is
// set, at off where it is not. What a slice reads is fixed along a row of
// a group, so one decision holds for every strip of the row it covers:
// taken is vals[cond] from item lo of row `row` (planRunner.rowID) up to
// item hi.
type guard struct {
	steps   []gstep
	cond    int
	on, off int
	cost    uint64  // instructions a lane runs in the slice and the branch
	wraps   []*wrap // the div/mod pairs the slice reads

	row    uint64
	lo, hi int
	taken  [guardWords]uint64
}

type gstep struct {
	op      kernel.ROp
	d, x, y int
	pos     position
}

// gval is a value of a position guard over lanes 0..n-1 from a strip's
// first: a + b*l at lane l, every lane inside int32, if k == 0; else a sum
// of k compare flags, not zero on the lanes of any and k on those of all
// (a bit per lane, as in a strip's mask).
type gval struct {
	a, b, k  int64
	any, all [guardWords]uint64
}

// layGuard resolves the guard at pc of code, a slot per value it reads.
func (r *planRunner) layGuard(code []kernel.RInstr, pc int) *guard {
	b := int(code[pc].C)
	g := &guard{on: int(code[b].C), off: b + 1, cost: uint64(b - pc)}
	if code[b].Op == kernel.RBrF {
		g.on, g.off = g.off, g.on
	}
	slots := map[int32]int{}
	slot := func(x int32) int {
		if _, ok := slots[x]; !ok {
			slots[x] = 1 + len(slots)
			pos := r.resolve(x)
			if pos.dm != nil {
				g.wraps = append(g.wraps, pos.dm)
			}
			g.steps = append(g.steps, gstep{d: slots[x], pos: pos})
		}
		return slots[x]
	}
	for t := pc + 1; t <= b; t++ {
		ins := &code[t]
		ops, ys := [3]kernel.ROp{ins.Op, ins.F1, ins.F2}, [3]int32{ins.B, ins.C, ins.E}
		if t == b {
			ops, ys = [3]kernel.ROp{ins.F2, ins.F1}, [3]int32{ins.E, ins.B}
		}
		x := slot(ins.A)
		for i, op := range ops {
			if op != kernel.RNop {
				y := slot(ys[i])
				g.steps = append(g.steps, gstep{op: op, x: x, y: y})
				x = 0
			}
		}
		if g.cond = x; t < b {
			slots[ins.D] = 1 + len(slots)
			g.steps[len(g.steps)-1].d = slots[ins.D]
		}
	}
	zero, c := 1+len(slots), 2+len(slots)
	g.steps = append(g.steps, gstep{d: zero, pos: position{row: []uint32{0}}},
		gstep{op: kernel.RNeI, d: c, x: g.cond, y: zero})
	if g.cond = c; len(r.vals) <= c {
		r.vals = make([]gval, 1+c)
	}
	return g
}

// decide runs the guard at pc: decided, each lane is charged the slice and
// the branch (run charged one) and the set parts as the branch would part
// it; else the strip's guard-only rows are filled and the slice runs.
func (r *planRunner) decide(g *guard, pc int) int {
	n, at := uint64(len(r.lanes)), int(r.at)
	if (g.row != r.rowID || at < g.lo || at+r.n > g.hi) && !r.evaluate(g) {
		r.sliced++
		r.instrCount -= n
		if r.lazy {
			r.fillLazy()
		}
		return pc + 1
	}
	r.instrCount += (g.cost - 1) * n
	switch m := g.taken[(at-g.lo)/laneWidth] & r.cur[0]; m {
	case 0:
		return g.off
	case r.cur[0]:
		return g.on
	default:
		r.side[0] = m
		return r.split(g.off, g.on)
	}
}

// evaluate decides g for the items of the row from the strip's first to
// the nearest of the row's end, guardWords*64 items on and the end of the
// period of each div/mod pair the slice reads. It reports false if the
// strip crosses such a period or the closed form cannot say over the
// range.
func (r *planRunner) evaluate(g *guard) bool {
	r.evals++
	n := min(r.d.local[0]-int(r.at), 64*guardWords)
	for _, w := range g.wraps {
		n = min(n, w.left)
	}
	if n < r.n || !r.closed(g, n) {
		return false
	}
	g.row, g.lo, g.hi = r.rowID, int(r.at), int(r.at)+n
	return true
}

// closed runs g's steps over lanes 0..n-1 from the strip's first, which
// lie in one period of every div/mod pair they read, and sets taken;
// false if a step leaves the closed form.
func (r *planRunner) closed(g *guard, n int) bool {
	v, ok := r.vals, true
	for i := 0; ok && i < len(g.steps); i++ {
		if s := &g.steps[i]; s.op == kernel.RNop {
			ok = r.load(&v[s.d], &s.pos, n)
		} else {
			ok = apply2(s.op, &v[s.d], &v[s.x], &v[s.y], n)
		}
	}
	for i := 0; ok && i < (n+63)/64; i++ {
		g.taken[i] = v[g.cond].any[i]
	}
	return ok
}

// fillLazy fills the strip's rows of the guard-only div/mod pairs, for a
// guard that runs its slice: nothing else reads them.
func (r *planRunner) fillLazy() {
	r.lazy = false
	for i := range r.plan.DivMod {
		if r.plan.DivMod[i].GuardOnly {
			r.fillPair(i)
		}
	}
}

// fillPair writes the mod and div rows of DivMod pair i for the lanes of
// the strip, from its lane 0 (r.wraps[i]).
func (r *planRunner) fillPair(i int) {
	dm := &r.plan.DivMod[i]
	mod, div := r.tmp, r.tmp
	if dm.ModReg >= 0 {
		mod = r.row(dm.ModReg)
	}
	if dm.DivReg >= 0 {
		div = r.row(dm.DivReg)
	}
	w, gid0 := int32(r.row(dm.W)[0]), int32(r.ind[0].first+r.at)
	m, q, inc := r.wraps[i].mod, r.wraps[i].div, r.wraps[i].left > 0
	for l := 0; l < r.n; l++ {
		mod[l], div[l] = uint32(m), uint32(q)
		if !inc {
			g := gid0 + int32(l) + 1
			m, q = g%w, g/w
		} else if m++; m == w {
			m, q = 0, q+1
		}
	}
}

// load sets v to what p is on lanes 0..n-1 from the strip's first and
// reports whether that is in the closed form. The lanes lie in one period
// of a div/mod pair's divisor (evaluate).
func (r *planRunner) load(v *gval, p *position, n int) bool {
	switch {
	case p.ind != nil:
		return affine(v, int64(int32(p.ind.first+r.at*p.ind.step)), int64(int32(p.ind.step)), n)
	case p.dm == nil:
		v.a, v.b = int64(int32(p.row[0])), 0
	case p.div:
		v.a, v.b = int64(p.dm.div), 0
	default:
		v.a, v.b = int64(p.dm.mod), 1
	}
	v.k = 0
	return true
}

// affine sets v to a + b*l on lanes 0..n-1 and reports whether every lane
// lies inside int32, where the steps' wrapping arithmetic is exact.
func affine(v *gval, a, b int64, n int) bool {
	v.a, v.b, v.k = a, b, 0
	in := func(x int64) bool { return x == int64(int32(x)) }
	return in(a) && in(b) && in(a+b*int64(n-1))
}

// flagSum reports whether v is a sum of flags, a uniform 0 or 1 being one
// flag, and of how many.
func flagSum(v *gval) (int64, bool) {
	if v.k > 0 {
		return v.k, true
	}
	return 1, v.b == 0 && uint64(v.a) <= 1
}

// word returns mask word i of the lanes 0..n-1 where the sum of flags v is
// not zero and where it is all of them (a uniform is one flag).
func (v *gval) word(i, n int) (any, all uint64) {
	if v.k > 0 {
		return v.any[i], v.all[i]
	}
	m := lanes(0, n, i) * uint64(v.a)
	return m, m
}

// apply2 sets d to op(x, y) on lanes 0..n-1 and reports whether that is in
// the closed form. d may be x or y. It costs a pass per mask word of n.
func apply2(op kernel.ROp, d, x, y *gval, n int) bool {
	compare := op >= kernel.RLtI && op <= kernel.RNeI
	words := (n + 63) / 64
	if x.k > 0 || y.k > 0 {
		kx, okx := flagSum(x)
		ky, oky := flagSum(y)
		switch {
		case op == kernel.RAddI && okx && oky:
			for i := 0; i < words; i++ {
				ax, lx := x.word(i, n)
				ay, ly := y.word(i, n)
				d.any[i], d.all[i] = ax|ay, lx&ly
			}
			d.k = kx + ky
		case compare && y.k == 0 && y.b == 0 && (y.a == 0 || y.a == x.k):
			// A sum strictly between 0 and k compares with 0 or k as 1 does.
			at := func(s int64) uint64 { return -kernel.StepEval(op, uint64(s), uint64(y.a)) }
			none, some, every := at(0), at(1), at(x.k)
			for i := 0; i < words; i++ {
				m := (^x.any[i]&none | x.all[i]&every | x.any[i]&^x.all[i]&some) & lanes(0, n, i)
				d.any[i], d.all[i] = m, m
			}
			d.k = 1
		default:
			return false
		}
		return true
	}
	xa, xb, ya, yb := x.a, x.b, y.a, y.b
	switch {
	case op == kernel.RAddI:
		return affine(d, xa+ya, xb+yb, n)
	case op == kernel.RSubI:
		return affine(d, xa-ya, xb-yb, n)
	case op == kernel.RMulI:
		return (xb == 0 || yb == 0) && affine(d, xa*ya, xa*yb+xb*ya, n)
	case !compare:
		return false
	}
	// x - y is exact: lt and le are the lanes where it is below 0 and 1.
	lt0, lt1 := below(xa-ya, xb-yb, n)
	le0, le1 := below(xa-ya-1, xb-yb, n)
	for i := 0; i < words; i++ {
		lt, le := lanes(lt0, lt1, i), lanes(le0, le1, i)
		m := [...]uint64{lt, le, ^le, ^lt, le &^ lt, ^(le &^ lt)}[op-kernel.RLtI] & lanes(0, n, i)
		d.any[i], d.all[i] = m, m
	}
	d.k = 1
	return true
}

// below returns the lanes lo..hi-1 of 0..n-1, the ones at which
// a + b*l < 0: a run from lane 0 if b > 0, to lane n-1 if b < 0.
func below(a, b int64, n int) (lo, hi int) {
	switch {
	case b < 0: // a + b*l >= 0, that is (-a-1) + (-b)*l < 0, on the others
		_, t := below(-a-1, -b, n)
		return t, n
	case a >= 0:
		return 0, 0
	case b == 0:
		return 0, n
	}
	return 0, int(min((b-a-1)/b, int64(n))) // lanes below ceil(-a/b)
}

// lanes returns the lanes lo..hi-1 that mask word i holds.
func lanes(lo, hi, i int) uint64 {
	lo, hi = max(lo-64*i, 0), min(hi-64*i, 64)
	if lo >= hi {
		return 0
	}
	return ^uint64(0) >> (64 - hi + lo) << lo
}
