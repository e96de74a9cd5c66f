package vm

import "dopencl/internal/kernel"

// guard is a position guard laid out for a width: its steps set vals[d]
// to pos (op RNop) or to op(vals[x], vals[y]), for the slice and the
// branch (vals[0] carries a fused chain from step to step). Lanes go on at
// on where vals[cond] is not zero, at off where it is.
type guard struct {
	steps   []gstep
	cond    int
	on, off int
	cost    uint64 // instructions a lane runs in the slice and the branch
}

type gstep struct {
	op      kernel.ROp
	d, x, y int
	pos     position
}

// gval is a value of a position guard over lanes 0..n-1 of a strip: a +
// b*l at lane l, every lane inside int32, if k == 0; else a sum of k
// compare flags, not zero on the lanes of any and k on those of all.
type gval struct {
	a, b, k  int64
	any, all uint64
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
			g.steps = append(g.steps, gstep{d: slots[x], pos: r.resolve(x)})
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
	if len(r.vals) <= len(slots) {
		r.vals = make([]gval, 1+len(slots))
	}
	return g
}

// decide runs the guard at pc: decided, each lane is charged the slice and
// the branch (run charged one) and the set parts as the branch would part
// it; else the slice runs.
func (r *planRunner) decide(g *guard, pc int) int {
	v, n, ok := r.vals, uint64(len(r.lanes)), true
	for i := 0; ok && i < len(g.steps); i++ {
		if s := &g.steps[i]; s.op == kernel.RNop {
			ok = r.load(&v[s.d], &s.pos)
		} else {
			ok = apply2(s.op, &v[s.d], &v[s.x], &v[s.y], r.n)
		}
	}
	var c, zero gval
	if !ok || !apply2(kernel.RNeI, &c, &v[g.cond], &zero, r.n) {
		r.sliced++
		r.instrCount -= n
		return pc + 1
	}
	r.instrCount += (g.cost - 1) * n
	switch m := c.any & r.cur[0]; m {
	case 0:
		return g.off
	case r.cur[0]:
		return g.on
	default:
		r.side[0] = m
		return r.split(g.off, g.on)
	}
}

// load sets v to what p is on the strip and reports whether that is in
// the closed form.
func (r *planRunner) load(v *gval, p *position) bool {
	switch {
	case p.ind != nil:
		return affine(v, int64(int32(p.ind.first+r.at*p.ind.step)), int64(int32(p.ind.step)), r.n)
	case p.dm == nil:
		*v = gval{a: int64(int32(p.row[0]))}
	case p.div:
		*v = gval{a: int64(p.dm.div)}
	default:
		*v = gval{a: int64(p.dm.mod), b: 1}
	}
	return p.dm == nil || p.dm.one
}

// affine sets v to a + b*l on lanes 0..n-1 and reports whether every lane
// lies inside int32, where the steps' wrapping arithmetic is exact.
func affine(v *gval, a, b int64, n int) bool {
	*v = gval{a: a, b: b}
	in := func(x int64) bool { return x == int64(int32(x)) }
	return in(a) && in(b) && in(a+b*int64(n-1))
}

// flags views v as a sum of flags: a uniform 0 or 1 is one flag, set on
// every lane or on none.
func flags(v *gval, n int) (gval, bool) {
	if v.k > 0 {
		return *v, true
	}
	m := full(n) * uint64(v.a)
	return gval{k: 1, any: m, all: m}, v.b == 0 && uint64(v.a) <= 1
}

// apply2 sets d to op(x, y) on lanes 0..n-1 of a strip and reports whether
// that is in the closed form. d may be x or y.
func apply2(op kernel.ROp, d, x, y *gval, n int) bool {
	compare := op >= kernel.RLtI && op <= kernel.RNeI
	if x.k > 0 || y.k > 0 {
		fx, okx := flags(x, n)
		fy, oky := flags(y, n)
		switch {
		case op == kernel.RAddI && okx && oky:
			*d = gval{k: fx.k + fy.k, any: fx.any | fy.any, all: fx.all & fy.all}
		case compare && y.k == 0 && y.b == 0 && (y.a == 0 || y.a == x.k):
			// A sum strictly between 0 and k compares with 0 or k as 1 does.
			at := func(s int64) uint64 { return -kernel.StepEval(op, uint64(s), uint64(y.a)) }
			m := (^x.any&at(0) | x.all&at(x.k) | x.any&^x.all&at(1)) & full(n)
			*d = gval{k: 1, any: m, all: m}
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
	lt, le := below(xa-ya, xb-yb, n), below(xa-ya-1, xb-yb, n)
	m := [...]uint64{lt, le, ^le, ^lt, le &^ lt, ^(le &^ lt)}[op-kernel.RLtI] & full(n)
	*d = gval{k: 1, any: m, all: m}
	return true
}

// below returns the lanes l of 0..n-1 at which a + b*l < 0: a run from
// lane 0 if b > 0, to lane n-1 if b < 0.
func below(a, b int64, n int) uint64 {
	switch {
	case b < 0: // a + b*l >= 0, that is (-a-1) + (-b)*l < 0, on the others
		return full(n) &^ below(-a-1, -b, n)
	case a >= 0:
		return 0
	case b == 0:
		return full(n)
	}
	return full(int(min((b-a-1)/b, int64(n)))) // lanes below ceil(-a/b)
}

// full is the mask of lanes 0..n-1.
func full(n int) uint64 { return ^uint64(0) >> (64 - n) }
