package vm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dopencl/internal/kernel"
)

// Tests for the work-group kernel compiler's execution core (fused.go):
// the cooperative bytecode interpreter is the oracle, and every compiled
// run must be bit-identical to it — including trap behaviour.

// launchShape is one ND-range configuration to cross engines over.
type launchShape struct {
	global, offset, local []int
}

// runEngines executes src's kernel under both engines over the given
// shape and returns the two output buffers (nil error required). The
// kernel must take (global int* out, ...extra) with out large enough for
// the shape.
func runEngines(t *testing.T, src, name string, extra []Arg, outLen int, sh launchShape) (compiled, interp []byte) {
	t.Helper()
	p := compile(t, src)
	fn := kernelFn(t, p, name)
	run := func(force bool) []byte {
		out := make([]byte, outLen)
		err := Run(Launch{
			Prog: p, Kernel: fn,
			Args:             append([]Arg{GlobalArg(out)}, extra...),
			GlobalSize:       sh.global,
			GlobalOffset:     sh.offset,
			LocalSize:        sh.local,
			ForceInterpreter: force,
		})
		if err != nil {
			t.Fatalf("run (force=%v): %v", force, err)
		}
		return out
	}
	return run(false), run(true)
}

// TestCoordinateBuiltinsAcrossEngines pins the semantics of every
// work-item coordinate builtin across both execution paths, including
// global offsets, multi-dimensional ranges, out-of-range dimension
// queries and guard-mixed groups (items of the same group surviving and
// failing the bounds guard).
func TestCoordinateBuiltinsAcrossEngines(t *testing.T) {
	// Each work-item encodes its full coordinate view into its own ten
	// slots (indexed by the linear item number over all dimensions, so no
	// two items share a slot and the result cannot depend on the order
	// items run in). The guard makes the tail of the range idle, so the
	// last active group is "ragged": some of its items store, some do not.
	src := `
kernel void coords(global int* out, int n) {
	int gid = get_global_id(0);
	int lin = (gid - get_global_offset(0)) + get_global_size(0) *
		((get_global_id(1) - get_global_offset(1)) + get_global_size(1) *
		(get_global_id(2) - get_global_offset(2)));
	int base = lin * 10;
	if (gid - get_global_offset(0) < n) {
		out[base + 0] = gid;
		out[base + 1] = get_local_id(0);
		out[base + 2] = get_group_id(0);
		out[base + 3] = get_global_size(0);
		out[base + 4] = get_local_size(0);
		out[base + 5] = get_num_groups(0);
		out[base + 6] = get_global_offset(0);
		out[base + 7] = get_work_dim();
		out[base + 8] = get_global_id(1) + get_global_offset(1) + get_group_id(2);
		out[base + 9] = get_global_size(1) * get_local_size(2) * get_num_groups(1);
	}
}
`
	shapes := []launchShape{
		{global: []int{64}, local: []int{16}},
		{global: []int{64}, offset: []int{128}, local: []int{16}},
		{global: []int{60}, local: []int{60}},           // single group
		{global: []int{16, 4}, local: []int{8, 2}},      // 2D
		{global: []int{8, 4, 2}, local: []int{4, 2, 1}}, // 3D
		{global: []int{12, 3}, offset: []int{5, 7}, local: []int{4, 3}},
	}
	for si, sh := range shapes {
		t.Run(fmt.Sprintf("shape%d", si), func(t *testing.T) {
			total := 1
			for _, g := range sh.global {
				total *= g
			}
			// n < total items in dimension 0 → the guard splits a group.
			n := sh.global[0] - 3
			if n < 1 {
				n = sh.global[0]
			}
			got, want := runEngines(t, src, "coords",
				[]Arg{IntArg(int32(n))}, 4*10*total, sh)
			if string(got) != string(want) {
				t.Fatalf("compiled output differs from interpreter oracle")
			}
			// Spot-check against first principles for item 0 of dim 0.
			res := bytesToInts(want)
			off := 0
			if sh.offset != nil {
				off = sh.offset[0]
			}
			if res[0] != int32(off) {
				t.Errorf("gid of first item = %d, want %d", res[0], off)
			}
			if res[3] != int32(sh.global[0]) {
				t.Errorf("get_global_size(0) = %d, want %d", res[3], sh.global[0])
			}
			if res[4] != int32(sh.local[0]) {
				t.Errorf("get_local_size(0) = %d, want %d", res[4], sh.local[0])
			}
			if res[5] != int32(sh.global[0]/sh.local[0]) {
				t.Errorf("get_num_groups(0) = %d, want %d", res[5], sh.global[0]/sh.local[0])
			}
			if res[7] != int32(len(sh.global)) {
				t.Errorf("get_work_dim() = %d, want %d", res[7], len(sh.global))
			}
			// Out-of-range dims: ids/offsets default to 0, sizes to 1.
			if len(sh.global) == 1 {
				if res[8] != 0 || res[9] != 1 {
					t.Errorf("out-of-range dim defaults: got %d,%d want 0,1", res[8], res[9])
				}
			}
		})
	}
}

// TestBarrierKernelsAcrossEngines runs barrier + local-memory kernels —
// which the compiled engine executes on its cooperative sub-loop path —
// against the interpreter, including a ragged guard inside the group.
func TestBarrierKernelsAcrossEngines(t *testing.T) {
	src := `
kernel void rotate(global int* out, local int* s, int n) {
	int lid = get_local_id(0);
	int gid = get_global_id(0);
	int lsz = get_local_size(0);
	s[lid] = gid * 3 + 1;
	barrier(CLK_LOCAL_MEM_FENCE);
	int v = s[(lid + 1) % lsz];
	barrier(CLK_LOCAL_MEM_FENCE);
	s[lid] = v + lid;
	barrier(CLK_LOCAL_MEM_FENCE);
	if (gid < n) {
		out[gid] = s[(lid + lsz - 1) % lsz];
	}
}
`
	for _, sh := range []launchShape{
		{global: []int{64}, local: []int{8}},
		{global: []int{64}, offset: []int{32}, local: []int{16}},
		{global: []int{30}, local: []int{30}},
	} {
		total := sh.global[0] + 64 // room for offsets
		got, want := runEngines(t, src, "rotate",
			[]Arg{LocalArg(4 * sh.local[0]), IntArg(int32(sh.global[0] - 2))}, 4*total, sh)
		if string(got) != string(want) {
			t.Fatalf("shape %v: compiled differs from interpreter", sh)
		}
	}
}

// TestTrapParityAcrossEngines checks that runtime traps fire identically
// (same message) under both engines, including traps that only some
// work-items of a group hit.
func TestTrapParityAcrossEngines(t *testing.T) {
	cases := []struct {
		name, src string
		args      func(fn *kernel.Func) []Arg
		global    int
	}{
		{
			name: "conditional-div-zero",
			src: `kernel void k(global int* o, int d) {
	int gid = get_global_id(0);
	if (gid == 13) { o[gid] = 100 / d; } else { o[gid] = gid; }
}`,
			args:   func(*kernel.Func) []Arg { return []Arg{IntArg(0)} },
			global: 64,
		},
		{
			name: "conditional-oob",
			src: `kernel void k(global int* o, int d) {
	int gid = get_global_id(0);
	if (gid > 60) { o[gid + 1000000] = 1; } else { o[gid] = gid; }
}`,
			args:   func(*kernel.Func) []Arg { return []Arg{IntArg(0)} },
			global: 64,
		},
		{
			name: "mod-zero-by-arg",
			src: `kernel void k(global int* o, int d) {
	int gid = get_global_id(0);
	o[gid] = gid % d;
}`,
			args:   func(*kernel.Func) []Arg { return []Arg{IntArg(0)} },
			global: 16,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := compile(t, tc.src)
			fn := kernelFn(t, p, "k")
			run := func(force bool) error {
				out := make([]byte, 4*tc.global)
				return Run(Launch{Prog: p, Kernel: fn,
					Args:       append([]Arg{GlobalArg(out)}, tc.args(fn)...),
					GlobalSize: []int{tc.global}, Workers: 1, ForceInterpreter: force})
			}
			errC, errI := run(false), run(true)
			if errI == nil {
				t.Fatalf("interpreter did not trap")
			}
			if errC == nil {
				t.Fatalf("compiled engine did not trap (interpreter: %v)", errI)
			}
			if errC.Error() != errI.Error() {
				t.Fatalf("trap mismatch:\n  compiled:    %v\n  interpreter: %v", errC, errI)
			}
		})
	}
}

// ---------------------------------------------------------------------
// Property test: randomized kernels, fused vs interpreter oracle.
// ---------------------------------------------------------------------

// kgen generates random MiniCL kernels that exercise integer and float
// arithmetic, control flow, coordinate builtins, global-memory reads,
// and optionally local memory with barriers. Every generated program is
// trap-free by construction (guarded divisors, masked indices/shifts) so
// outputs can be compared bit-for-bit.
type kgen struct {
	r        *rand.Rand
	b        strings.Builder
	nvars    int
	declared int // vars declared so far (prelude generates them in order)
	barrier  bool
	depth    int
}

func (g *kgen) pick(ss ...string) string { return ss[g.r.Intn(len(ss))] }

func (g *kgen) atom() string {
	switch g.r.Intn(8) {
	case 0:
		return fmt.Sprintf("%d", g.r.Intn(2001)-1000)
	case 1:
		return "gid"
	case 2:
		return "lid"
	case 3:
		return g.pick("get_group_id(0)", "get_global_size(0)", "get_local_size(0)",
			"get_num_groups(0)", "get_global_offset(0)", "get_work_dim()")
	case 4:
		return fmt.Sprintf("in[(%s) & 255]", g.expr())
	default:
		if g.declared == 0 {
			return "gid"
		}
		return fmt.Sprintf("v%d", g.r.Intn(g.declared))
	}
}

func (g *kgen) expr() string {
	if g.depth >= 3 {
		return g.atom()
	}
	g.depth++
	defer func() { g.depth-- }()
	a, b := g.atom(), g.atom()
	switch g.r.Intn(12) {
	case 0:
		return fmt.Sprintf("(%s / (((%s) & 7) + 1))", a, b)
	case 1:
		return fmt.Sprintf("(%s %% (((%s) & 7) + 1))", a, b)
	case 2:
		return fmt.Sprintf("(%s << ((%s) & 7))", a, b)
	case 3:
		return fmt.Sprintf("(%s >> ((%s) & 7))", a, b)
	case 4:
		// Float excursion: per-step float32 rounding must match.
		return fmt.Sprintf("(int)((float)(%s) * 0.5 + (float)(%s))", a, b)
	case 5:
		cmp := g.pick("<", "<=", ">", ">=", "==", "!=")
		return fmt.Sprintf("((%s %s %s) ? %s : %s)", a, cmp, b, g.atom(), g.atom())
	default:
		op := g.pick("+", "-", "*", "&", "|", "^")
		return fmt.Sprintf("(%s %s %s)", a, op, b)
	}
}

func (g *kgen) stmt(indent string) {
	switch g.r.Intn(6) {
	case 0, 1:
		fmt.Fprintf(&g.b, "%sv%d = %s;\n", indent, g.r.Intn(g.nvars), g.expr())
	case 2:
		fmt.Fprintf(&g.b, "%sv%d %s= %s;\n", indent, g.r.Intn(g.nvars), g.pick("+", "-", "*"), g.expr())
	case 3:
		cmp := g.pick("<", ">", "==", "!=")
		fmt.Fprintf(&g.b, "%sif (%s %s %s) {\n", indent, g.expr(), cmp, g.expr())
		g.stmt(indent + "\t")
		if g.r.Intn(2) == 0 {
			fmt.Fprintf(&g.b, "%s} else {\n", indent)
			g.stmt(indent + "\t")
		}
		fmt.Fprintf(&g.b, "%s}\n", indent)
	case 4:
		v := g.r.Intn(g.nvars)
		fmt.Fprintf(&g.b, "%sfor (int i%d = 0; i%d < %d; i%d++) {\n",
			indent, g.depth, g.depth, 1+g.r.Intn(6), g.depth)
		fmt.Fprintf(&g.b, "%s\tv%d = v%d + %s;\n", indent, v, v, g.expr())
		fmt.Fprintf(&g.b, "%s}\n", indent)
	default:
		fmt.Fprintf(&g.b, "%sv%d = (v%d & 255) + (%s & 65535);\n",
			indent, g.r.Intn(g.nvars), g.r.Intn(g.nvars), g.expr())
	}
}

// generate returns the kernel source. Barrier kernels exchange values
// through local memory between uniform barriers (all items of a group
// reach every barrier: the exchange happens at statement level, outside
// generated control flow).
func (g *kgen) generate() string {
	g.b.Reset()
	g.nvars = 2 + g.r.Intn(3)
	if g.barrier {
		g.b.WriteString("kernel void k(global int* out, const global int* in, local int* s, int n) {\n")
	} else {
		g.b.WriteString("kernel void k(global int* out, const global int* in, int n) {\n")
	}
	g.b.WriteString("\tint gid = get_global_id(0);\n\tint lid = get_local_id(0);\n")
	g.declared = 0
	for i := 0; i < g.nvars; i++ {
		fmt.Fprintf(&g.b, "\tint v%d = %s;\n", i, g.expr())
		g.declared = i + 1
	}
	nstmts := 2 + g.r.Intn(5)
	for i := 0; i < nstmts; i++ {
		g.stmt("\t")
		if g.barrier && i == nstmts/2 {
			v := g.r.Intn(g.nvars)
			fmt.Fprintf(&g.b, "\ts[lid] = v%d;\n", v)
			g.b.WriteString("\tbarrier(CLK_LOCAL_MEM_FENCE);\n")
			fmt.Fprintf(&g.b, "\tv%d = s[(lid + 1) %% get_local_size(0)];\n", g.r.Intn(g.nvars))
			g.b.WriteString("\tbarrier(CLK_LOCAL_MEM_FENCE);\n")
		}
	}
	// Mixed-guard store: items past n stay idle.
	g.b.WriteString("\tif (gid - get_global_offset(0) < n) {\n")
	for i := 0; i < g.nvars; i++ {
		fmt.Fprintf(&g.b, "\t\tout[(gid - get_global_offset(0)) * %d + %d] = v%d;\n", g.nvars, i, i)
	}
	g.b.WriteString("\t}\n}\n")
	return g.b.String()
}

// TestRandomKernelsFusedMatchesInterpreter is the compiler's property
// test: 120 randomized kernels (half with barriers + local memory), each
// over a randomized shape with global offsets and a ragged guard, must
// produce bit-identical output under the compiled engine and the
// cooperative interpreter. Run with -race this also proves the fused
// path's worker parallelism is race-clean.
func TestRandomKernelsFusedMatchesInterpreter(t *testing.T) {
	const cases = 120
	for seed := 0; seed < cases; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(int64(seed)*7919 + 17))
			g := &kgen{r: r, barrier: seed%2 == 1}
			src := g.generate()
			p, err := kernel.Compile(src)
			if err != nil {
				t.Fatalf("generated kernel does not compile: %v\n%s", err, src)
			}
			fn, _ := p.Kernel("k")

			local := []int{1 << (1 + r.Intn(5))} // 2..32
			groups := 1 + r.Intn(6)
			global := []int{local[0] * groups}
			var offset []int
			if r.Intn(2) == 0 {
				offset = []int{r.Intn(100)}
			}
			n := 1 + r.Intn(global[0]) // ragged guard boundary

			in := make([]byte, 4*256)
			r.Read(in)
			outLen := 4 * g.nvars * global[0]
			run := func(force bool) ([]byte, error) {
				out := make([]byte, outLen)
				args := []Arg{GlobalArg(out), GlobalArg(in)}
				if g.barrier {
					args = append(args, LocalArg(4*local[0]))
				}
				args = append(args, IntArg(int32(n)))
				err := Run(Launch{Prog: p, Kernel: fn, Args: args,
					GlobalSize: global, GlobalOffset: offset, LocalSize: local,
					Workers: 1 + r.Intn(4), ForceInterpreter: force})
				return out, err
			}
			got, errC := run(false)
			want, errI := run(true)
			if (errC == nil) != (errI == nil) {
				t.Fatalf("error mismatch: compiled=%v interpreter=%v\n%s", errC, errI, src)
			}
			if errC != nil {
				if errC.Error() != errI.Error() {
					t.Fatalf("trap mismatch: compiled=%v interpreter=%v\n%s", errC, errI, src)
				}
				return
			}
			if string(got) != string(want) {
				for i := 0; i < outLen/4; i++ {
					a := bytesToInts(got)[i]
					b := bytesToInts(want)[i]
					if a != b {
						t.Fatalf("output[%d]: compiled=%d interpreter=%d\nshape global=%v offset=%v local=%v n=%d\n%s",
							i, a, b, global, offset, local, n, src)
					}
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Performance: speedup, engine split, allocation discipline.
// ---------------------------------------------------------------------

const speedupKernel = `
kernel void spin(global int* out, int w, int h, int maxIter) {
	int gid = get_global_id(0);
	int total = w * h;
	if (gid >= total) { return; }
	int col = gid % w;
	int row = gid / w;
	float x0 = (float)col * 0.003 - 2.0;
	float y0 = (float)row * 0.003 - 1.0;
	float x = 0.0;
	float y = 0.0;
	int iter = 0;
	while (iter < maxIter) {
		float xx = x * x;
		float yy = y * y;
		if (xx + yy > 4.0) { iter = maxIter + iter; }
		if (iter < maxIter) {
			float xt = xx - yy + x0;
			y = 2.0 * x * y + y0;
			x = xt;
			iter = iter + 1;
		}
	}
	out[gid] = iter;
}
`

// TestCompiledSpeedupOverInterpreter requires the compiled engine to
// beat the cooperative interpreter by at least 1.5x wall clock on a
// compute-bound kernel (the modeled-instruction-count advantage is ~6x;
// 1.5x leaves generous headroom for noisy CI machines) while remaining
// bit-identical.
func TestCompiledSpeedupOverInterpreter(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	p := compile(t, speedupKernel)
	fn := kernelFn(t, p, "spin")
	const w, h, maxIter = 256, 256, 200
	run := func(force bool) ([]byte, time.Duration) {
		out := make([]byte, 4*w*h)
		l := Launch{Prog: p, Kernel: fn,
			Args:       []Arg{GlobalArg(out), IntArg(w), IntArg(h), IntArg(maxIter)},
			GlobalSize: []int{w * h}, Workers: 1, ForceInterpreter: force}
		if err := Run(l); err != nil { // warm plan cache outside timing
			t.Fatalf("warm run: %v", err)
		}
		start := time.Now()
		if err := Run(l); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out, time.Since(start)
	}
	outC, durC := run(false)
	outI, durI := run(true)
	if string(outC) != string(outI) {
		t.Fatal("compiled output differs from interpreter")
	}
	speedup := durI.Seconds() / durC.Seconds()
	t.Logf("interpreter %v, compiled %v: %.2fx", durI, durC, speedup)
	if speedup < 1.5 {
		t.Fatalf("compiled engine only %.2fx faster than interpreter (want >= 1.5x)", speedup)
	}
}

// TestStatsEngineSplit verifies the fused/cooperative group accounting
// and that compile info (pass timings) reaches Stats.
func TestStatsEngineSplit(t *testing.T) {
	p := compile(t, speedupKernel)
	fn := kernelFn(t, p, "spin")
	out := make([]byte, 4*1024)
	l := Launch{Prog: p, Kernel: fn,
		Args:       []Arg{GlobalArg(out), IntArg(32), IntArg(32), IntArg(10)},
		GlobalSize: []int{1024}, LocalSize: []int{64}}
	stats, err := RunStats(l)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if stats.FusedGroups != 16 || stats.CoopGroups != 0 {
		t.Errorf("fused/coop = %d/%d, want 16/0", stats.FusedGroups, stats.CoopGroups)
	}
	if stats.Compile == nil || stats.Compile.Fallback != "" {
		t.Errorf("compile info missing or fallback: %+v", stats.Compile)
	}
	if stats.Compile != nil && len(stats.Compile.Passes) == 0 {
		t.Error("no per-pass compile timings recorded")
	}
	l.ForceInterpreter = true
	stats, err = RunStats(l)
	if err != nil {
		t.Fatalf("run interp: %v", err)
	}
	if stats.FusedGroups != 0 || stats.CoopGroups != 16 {
		t.Errorf("interp fused/coop = %d/%d, want 0/16", stats.FusedGroups, stats.CoopGroups)
	}
	if stats.Compile != nil {
		t.Error("forced interpreter should not report compile info")
	}

	// Barrier kernels run on the cooperative sub-loop path.
	pb := compile(t, `kernel void b(global int* out, local int* s) {
	int lid = get_local_id(0);
	s[lid] = lid;
	barrier(CLK_LOCAL_MEM_FENCE);
	out[get_global_id(0)] = s[(lid + 1) % get_local_size(0)];
}`)
	fnb := kernelFn(t, pb, "b")
	stats, err = RunStats(Launch{Prog: pb, Kernel: fnb,
		Args:       []Arg{GlobalArg(make([]byte, 4*64)), LocalArg(4 * 16)},
		GlobalSize: []int{64}, LocalSize: []int{16}})
	if err != nil {
		t.Fatalf("run barrier: %v", err)
	}
	if stats.FusedGroups != 0 || stats.CoopGroups != 4 {
		t.Errorf("barrier fused/coop = %d/%d, want 0/4", stats.FusedGroups, stats.CoopGroups)
	}
}

// TestEstimateCostExtrapolation checks that a cost estimate from a
// sampled run matches the instruction count of the full run: the
// per-group (prologue) and per-item components must be separated, or
// fused kernels with hoisted prologues extrapolate wrongly.
func TestEstimateCostExtrapolation(t *testing.T) {
	p := compile(t, speedupKernel)
	fn := kernelFn(t, p, "spin")
	const groups, local = 64, 64
	out := make([]byte, 4*groups*local)
	base := Launch{Prog: p, Kernel: fn,
		Args:       []Arg{GlobalArg(out), IntArg(64), IntArg(64), IntArg(8)},
		GlobalSize: []int{groups * local}, LocalSize: []int{local}, Workers: 1}
	full, err := RunStats(base)
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	sampled := base
	sampled.GroupLimit = 8
	s, err := RunStats(sampled)
	if err != nil {
		t.Fatalf("sampled run: %v", err)
	}
	est := s.EstimateCost(groups)
	got := float64(full.Instructions)
	if est < got*0.9 || est > got*1.1 {
		t.Errorf("estimate %f vs actual %f (%.1f%% off)", est, got, 100*(est/got-1))
	}
	// The estimate must account for per-group cost: a plan with a
	// prologue must report a nonzero per-group share.
	if s.PrologueInstructions == 0 {
		t.Error("no prologue instructions recorded for a hoisted plan")
	}
}

// TestDispatchAllocsZero is the zero-allocation claim as a plain test:
// steady-state fused dispatch must not touch the heap.
func TestDispatchAllocsZero(t *testing.T) {
	p := compile(t, speedupKernel)
	fn := kernelFn(t, p, "spin")
	allocs, err := DispatchAllocsPerOp(Launch{Prog: p, Kernel: fn,
		Args:       []Arg{GlobalArg(make([]byte, 4*4096)), IntArg(64), IntArg(64), IntArg(20)},
		GlobalSize: []int{4096}})
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	if allocs != 0 {
		t.Fatalf("fused dispatch allocates %.2f objects per work-group, want 0", allocs)
	}
}

// BenchmarkFusedDispatch measures the steady-state fused dispatch inner
// loop — one op is one work-group dispatch on a preallocated runner. Run
// with -benchmem: allocs/op must be 0 (enforced by TestDispatchAllocsZero
// and the CI bench smoke).
func BenchmarkFusedDispatch(b *testing.B) {
	p, err := kernel.Compile(speedupKernel)
	if err != nil {
		b.Fatal(err)
	}
	fn, _ := p.Kernel("spin")
	plan := p.WorkGroup(fn)
	if plan.Fallback != "" {
		b.Fatalf("fallback: %s", plan.Fallback)
	}
	out := make([]byte, 4*4096)
	const local = 256
	disp := &dispatch{
		prog: p, fn: fn,
		args:   []Arg{GlobalArg(out), IntArg(64), IntArg(64), IntArg(20)},
		global: []int{4096}, local: []int{local},
		numGroups: []int{4096 / local}, itemsPerGroup: local,
	}
	r := newPlanRunner(disp, plan)
	if err := r.runGroup(0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.runGroup(i % (4096 / local)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFusedLaunch measures a full Run launch (worker pool spin-up
// included) on the compiled engine.
func BenchmarkFusedLaunch(b *testing.B) {
	p, err := kernel.Compile(speedupKernel)
	if err != nil {
		b.Fatal(err)
	}
	fn, _ := p.Kernel("spin")
	out := make([]byte, 4*4096)
	l := Launch{Prog: p, Kernel: fn,
		Args:       []Arg{GlobalArg(out), IntArg(64), IntArg(64), IntArg(20)},
		GlobalSize: []int{4096}, Workers: 1}
	if err := Run(l); err != nil { // compile the plan outside the loop
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Run(l); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpreterDispatch is the same workload on the cooperative
// interpreter, for side-by-side comparison in benchstat.
func BenchmarkInterpreterDispatch(b *testing.B) {
	p, err := kernel.Compile(speedupKernel)
	if err != nil {
		b.Fatal(err)
	}
	fn, _ := p.Kernel("spin")
	out := make([]byte, 4*4096)
	l := Launch{Prog: p, Kernel: fn,
		Args:       []Arg{GlobalArg(out), IntArg(64), IntArg(64), IntArg(20)},
		GlobalSize: []int{4096}, Workers: 1, ForceInterpreter: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Run(l); err != nil {
			b.Fatal(err)
		}
	}
}
