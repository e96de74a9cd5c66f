package vm

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dopencl/internal/kernel"
)

// Tests for the kernel compiler's passes and the plan runner (fused.go).
// Every launch is held against two references: the same executor running
// the IR as lowered (Launch.Unoptimized), which isolates the passes, and
// the AST oracle of oracle_test.go, which shares no code with the compiler
// at all. The three must agree bit for bit, traps included.

// launchShape is one ND-range configuration to cross engines over.
type launchShape struct {
	global, offset, local []int
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// crossCheck runs src's kernel over the shape three ways — optimized plan,
// unoptimized plan, AST oracle — each on a fresh set of arguments from
// mkArgs, and fails the test unless all three trap with the same message
// or none traps and every global buffer ends up bit-identical. It returns
// the optimized run's arguments and error.
func crossCheck(t *testing.T, src, name string, mkArgs func() []Arg, sh launchShape, workers int) ([]Arg, error) {
	t.Helper()
	p, err := kernel.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	fn := kernelFn(t, p, name)
	local := sh.local
	if local == nil {
		local = make([]int, len(sh.global))
		autoLocalSize(sh.global, local)
	}
	run := func(unoptimized bool) ([]Arg, error) {
		args := mkArgs()
		return args, Run(Launch{Prog: p, Kernel: fn, Args: args,
			GlobalSize: sh.global, GlobalOffset: sh.offset, LocalSize: local,
			Workers: workers, Unoptimized: unoptimized})
	}
	opt, optErr := run(false)
	ref, refErr := run(true)
	ast := mkArgs()
	astErr := oracleRun(src, name, ast, sh.global, sh.offset, local)
	for _, other := range []struct {
		name string
		args []Arg
		err  error
	}{{"unoptimized plan", ref, refErr}, {"AST oracle", ast, astErr}} {
		if errText(optErr) != errText(other.err) {
			t.Fatalf("optimized plan: %v\n%s: %v\nshape %+v\n%s", optErr, other.name, other.err, sh, src)
		}
		if optErr != nil {
			continue
		}
		for ai := range opt {
			got, want := bytesToInts(opt[ai].Global), bytesToInts(other.args[ai].Global)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("argument %d word %d: optimized plan %#x, %s %#x\nshape %+v\n%s",
						ai, i, uint32(got[i]), other.name, uint32(want[i]), sh, src)
				}
			}
		}
	}
	return opt, optErr
}

// outThen returns a mkArgs for crossCheck: a zeroed output buffer of outLen
// bytes followed by extra (whose buffers the kernel must only read).
func outThen(outLen int, extra ...Arg) func() []Arg {
	return func() []Arg {
		return append([]Arg{GlobalArg(make([]byte, outLen))}, extra...)
	}
}

// TestCoordinateBuiltinsAcrossEngines pins the semantics of every
// work-item coordinate builtin, including global offsets,
// multi-dimensional ranges, out-of-range dimension queries, dimensions
// known only at run time and guard-mixed groups (items of the same group
// surviving and failing the bounds guard).
func TestCoordinateBuiltinsAcrossEngines(t *testing.T) {
	// Each work-item encodes its full coordinate view into its own 38
	// slots (indexed by the linear item number over all dimensions, so no
	// two items share a slot and the result cannot depend on the order
	// items run in). The guard makes the tail of the range idle, so the
	// last active group is "ragged": some of its items store, some do not.
	src := `
kernel void coords(global int* out, int n, int one) {
	int gid = get_global_id(0);
	int lin = (gid - get_global_offset(0)) + get_global_size(0) *
		((get_global_id(1) - get_global_offset(1)) + get_global_size(1) *
		(get_global_id(2) - get_global_offset(2)));
	int base = lin * 38;
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
		// The same queries with the dimension known only at run time:
		// d - one runs over -1..2 and d over 0..3, out of range at both ends.
		for (int d = 0; d < 4; d++) {
			int at = base + 10 + d * 7;
			out[at + 0] = get_global_id(d - one);
			out[at + 1] = get_local_id(d);
			out[at + 2] = get_group_id(d - one);
			out[at + 3] = get_global_size(d);
			out[at + 4] = get_local_size(d - one);
			out[at + 5] = get_num_groups(d);
			out[at + 6] = get_global_offset(d - one);
		}
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
			args, err := crossCheck(t, src, "coords",
				outThen(4*38*total, IntArg(int32(n)), IntArg(1)), sh, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Spot-check against first principles for item 0 of dim 0.
			res := bytesToInts(args[0].Global)
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
			// Run-time dimensions: d - one == 0 at d == 1, d == 0 at d == 0.
			if res[10+7+0] != res[0] || res[10+3] != res[3] || res[10+7+4] != res[4] {
				t.Errorf("run-time dimension 0 differs from constant dimension 0: %v", res[:38])
			}
			if res[10+0] != 0 || res[10+4] != 1 || res[10+3*7+1] != 0 || res[10+3*7+3] != 1 {
				t.Errorf("run-time dimensions -1 and 3 must read the defaults: %v", res[:38])
			}
		})
	}
}

// TestBarrierKernelsAcrossEngines runs barrier + local-memory kernels —
// whose groups execute as one strip of all their items — three ways,
// including a ragged guard inside the group.
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
		if _, err := crossCheck(t, src, "rotate",
			outThen(4*total, LocalArg(4*sh.local[0]), IntArg(int32(sh.global[0]-2))), sh, 0); err != nil {
			t.Fatalf("shape %v: %v", sh, err)
		}
	}
}

// blocksumSrc is the cmdstream workload's tree reduction, verbatim from
// benchmark/w_cmdstream.go: its barrier stands inside a while loop, under
// which the items of a group must keep arriving together.
const blocksumSrc = `
kernel void blocksum(global float* sums, const global float* work, local float* scratch) {
	int lid = get_local_id(0);
	int lsz = get_local_size(0);
	scratch[lid] = work[get_global_id(0)];
	barrier(CLK_LOCAL_MEM_FENCE);
	int stride = lsz / 2;
	while (stride > 0) {
		if (lid < stride) {
			scratch[lid] = scratch[lid] + scratch[lid + stride];
		}
		barrier(CLK_LOCAL_MEM_FENCE);
		stride = stride / 2;
	}
	if (lid == 0) {
		sums[get_group_id(0)] = scratch[0];
	}
}
`

func blocksumWork(groups, local int) []byte {
	work := make([]float32, groups*local)
	for i := range work {
		work[i] = float32(i%23) * 0.37
	}
	return floatsToBytes(work)
}

// TestBlockSumAcrossEngines holds the block sum to the other two engines
// and to the same additions in the same order in Go.
func TestBlockSumAcrossEngines(t *testing.T) {
	const groups, local = 16, 16
	work := blocksumWork(groups, local)
	args, err := crossCheck(t, blocksumSrc, "blocksum",
		outThen(4*groups, GlobalArg(work), LocalArg(4*local)),
		launchShape{global: []int{groups * local}, local: []int{local}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := bytesToFloats(args[0].Global)
	for g := 0; g < groups; g++ {
		scratch := bytesToFloats(work[4*g*local : 4*(g+1)*local])
		for stride := local / 2; stride > 0; stride /= 2 {
			for lid := 0; lid < stride; lid++ {
				scratch[lid] += scratch[lid+stride]
			}
		}
		if got[g] != scratch[0] {
			t.Errorf("group %d: sum %v, want %v", g, got[g], scratch[0])
		}
	}
}

// TestFormerFallbacksAcrossEngines runs the shapes the compiler used to
// decline: a barrier under a branch and a dimension known only at run time.
func TestFormerFallbacksAcrossEngines(t *testing.T) {
	underBranch := `
kernel void k(global int* o, local int* s, int first) {
	int lid = get_local_id(0);
	s[lid] = lid;
	if (lid >= first) { barrier(CLK_LOCAL_MEM_FENCE); }
	int from = (first == 0) ? (lid + 1) % get_local_size(0) : lid;
	o[get_global_id(0)] = s[from] + lid;
}`
	sh := launchShape{global: []int{16}, local: []int{4}}
	// Every item takes the branch: an ordinary barrier.
	if _, err := crossCheck(t, underBranch, "k", outThen(4*16, LocalArg(4*4), IntArg(0)), sh, 0); err != nil {
		t.Fatal(err)
	}
	// Item 0 skips it and ends while the rest wait.
	_, err := crossCheck(t, underBranch, "k", outThen(4*16, LocalArg(4*4), IntArg(1)), sh, 0)
	if err == nil || !strings.Contains(err.Error(), oDivergence) {
		t.Fatalf("diverging items: got %v, want %q", err, oDivergence)
	}

	dynamic := `
kernel void k(global int* o, int d) {
	o[get_global_id(0) + 4 * get_global_id(1)] = get_global_id(d) + 100 * get_local_size(d);
}`
	for d := int32(-1); d <= 3; d++ {
		if _, err := crossCheck(t, dynamic, "k", outThen(4*8, IntArg(d)),
			launchShape{global: []int{4, 2}, local: []int{2, 1}}, 0); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
	}
}

// TestTypingRulesThreeWay holds the compiler's typing rules — the implicit
// int/float conversions of operators, ?:, initializers, assignments,
// arguments and return values — against the AST oracle, which has its own.
func TestTypingRulesThreeWay(t *testing.T) {
	src := `
float half(float x) { return x / 2; }
int trunc(float x) { return x; }
float widen(int i) { return i; }
void bump(global float* o, int at, int by) { by += 1; o[at] += by; }
kernel void k(global float* o, const global int* in, int n, float f) {
	int i = get_global_id(0);
	int v = in[i];
	float a = v;
	int b = f * 3;
	o[8 * i + 0] = v * f + 1;
	o[8 * i + 1] = (v > 2) ? v : f;
	o[8 * i + 2] = (v > 2) ? f : v;
	o[8 * i + 3] = half(v) + trunc(f * v) + widen(n);
	a += v;
	b *= f;
	b -= 0.5;
	o[8 * i + 4] = a / b;
	o[8 * i + 5] = ((v < f) + (f <= v)) * 10 + (v == a) + !(v != 3 || v >= 3.5);
	o[8 * i + 6] = sqrt(v) + fmin(v, f) + min(v, trunc(f)) + pow(2, v & 3) + clamp(v, 1, 2.5);
	bump(o, 8 * i + 7, f);
	bump(o, 8 * i + 7, v);
}`
	const n = 32
	in := make([]int32, n)
	for i := range in {
		in[i] = int32(i*7%13) - 4
	}
	args, err := crossCheck(t, src, "k", outThen(4*8*n, GlobalArg(intsToBytes(in)), IntArg(n), FloatArg(2.75)),
		launchShape{global: []int{n}, local: []int{8}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// First principles for one item: v = in[5] = 5, f = 2.75.
	got := bytesToFloats(args[0].Global)[8*5 : 8*6]
	want := []float32{5*2.75 + 1, 5, 2.75, 2.5 + 13 + 32, 10.0 / 16, 10, 0, 9}
	want[6] = float32(math.Sqrt(5)) + 2.75 + 2 + 2 + 2.5
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("o[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestTrapParityAcrossEngines checks that runtime traps fire identically
// (same message) three ways, including traps that only some work-items of
// a group hit and the zero divisor of a strength-reduced gid % d, which
// the optimized plan hands to the unoptimized one.
func TestTrapParityAcrossEngines(t *testing.T) {
	cases := []struct {
		name, src, want string
		global          int
		visible         int // leading items whose stores must have happened despite the trap
	}{
		{
			name: "conditional-div-zero",
			src: `kernel void k(global int* o, int d) {
	int gid = get_global_id(0);
	if (gid == 13) { o[gid] = 100 / d; } else { o[gid] = gid; }
}`,
			want:   "vm: kernel k: integer division by zero",
			global: 64,
		},
		{
			name: "conditional-oob",
			src: `kernel void k(global int* o, int d) {
	int gid = get_global_id(0);
	if (gid == 61) { o[gid + 1000000] = 1; } else { o[gid] = gid; }
}`,
			want:   "vm: kernel k: buffer index 1000061 out of range (buffer has 64 elements)",
			global: 64,
		},
		{
			name: "mod-zero-by-arg",
			src: `kernel void k(global int* o, int d) {
	int gid = get_global_id(0);
	o[gid] = gid % d;
}`,
			want:   "vm: kernel k: integer modulo by zero",
			global: 16,
		},
		{
			name: "mod-zero-not-reached",
			src: `kernel void k(global int* o, int d) {
	int gid = get_global_id(0);
	if (d != 0) { o[gid] = gid % d; } else { o[gid] = 0 - gid; }
}`,
			global: 16,
		},
		// In lock step the first lane to reach a trap need not be the
		// lowest item that traps; the lowest is still the one reported.
		{
			name: "late-trap-of-lower-item",
			src: `kernel void k(global int* o, int d) {
	int gid = get_global_id(0);
	if (gid == 40) { o[gid + 1000000] = 1; }
	int s = gid;
	for (int i = 0; i < 100; i++) { s = s * 3 + i; }
	if (gid == 3) { o[gid] = s / d; } else { o[gid] = s; }
}`,
			want:   "vm: kernel k: integer division by zero",
			global: 64,
		},
		{
			// And once an item has trapped, no later trap of a higher one
			// replaces it.
			name: "early-trap-of-lower-item",
			src: `kernel void k(global int* o, int d) {
	int gid = get_global_id(0);
	if (gid == 3) { o[gid + 1000000] = 1; }
	int s = gid;
	for (int i = 0; i < 100; i++) { s = s * 3 + i; }
	if (gid == 40) { o[gid] = s / d; } else { o[gid] = s; }
}`,
			want:   "vm: kernel k: buffer index 1000003 out of range (buffer has 64 elements)",
			global: 64,
		},
		{
			name: "two-oob-lanes-in-one-strip",
			src: `kernel void k(global int* o, int d) {
	int gid = get_global_id(0);
	if (gid == 50) { o[gid + 1000] = 1; }
	int s = gid;
	for (int i = 0; i < 10; i++) { s = s * 3 + i; }
	if (gid == 20 || gid == 57) { o[gid + 1000] = s; } else { o[gid] = s; }
}`,
			want:   "vm: kernel k: buffer index 1020 out of range (buffer has 64 elements)",
			global: 64,
		},
		{
			// A group is executed strip by strip: by the time item 100
			// traps, the 64 items of the first strip have run and stored.
			name: "trap-in-second-strip",
			src: `kernel void k(global int* o, int d) {
	int gid = get_global_id(0);
	o[gid] = gid + 1;
	if (gid == 100) { o[gid] = gid % d; }
}`,
			want:    "vm: kernel k: integer modulo by zero",
			global:  128,
			visible: 64,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// One worker and one group. The oracle's items run at once; it
			// reports the trap of the lowest of them, like the executor.
			args, err := crossCheck(t, tc.src, "k", outThen(4*tc.global, IntArg(0)),
				launchShape{global: []int{tc.global}, local: []int{tc.global}}, 1)
			if errText(err) != tc.want {
				t.Fatalf("trap %q, want %q", errText(err), tc.want)
			}
			for i, v := range bytesToInts(args[0].Global)[:tc.visible] {
				if v != int32(i+1) {
					t.Fatalf("o[%d] = %d after the trap, want the store of item %d", i, v, i)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Property test: randomized kernels, three ways.
// ---------------------------------------------------------------------

// kgen generates random MiniCL kernels that exercise integer and float
// arithmetic, control flow whose path and trip counts depend on the item
// (so that the lanes of a strip part and meet again), coordinate builtins
// (with constant and with run-time dimensions), global-memory reads, and
// optionally local memory with barriers — at statement level, inside a
// uniform for loop, inside a helper the kernel calls, after code on which
// the items diverge, and on both sides of a branch. Every generated
// program is trap-free by construction (guarded divisors, masked
// indices/shifts) so outputs can be compared bit-for-bit.
type kgen struct {
	r        *rand.Rand
	b        strings.Builder
	nvars    int
	declared int // vars declared so far (prelude generates them in order)
	barrier  barrierShape
	depth    int
	names    int // loop variables handed out
}

// barrierShape is where a generated kernel puts its barriers.
type barrierShape int

const (
	noBarrier barrierShape = iota
	barrierTopLevel
	barrierInLoop
	barrierInHelper
	barrierInDivergentLoop       // each iteration diverges, reconverges, exchanges
	barrierInDivergentLoopHelper // the same, the exchange in an inlined helper
	barrierInBranches            // odd and even items wait at different barriers
	barrierShapes
)

func (g *kgen) pick(ss ...string) string { return ss[g.r.Intn(len(ss))] }

func (g *kgen) fresh() string {
	g.names++
	return fmt.Sprintf("c%d", g.names)
}

func (g *kgen) atom() string {
	switch g.r.Intn(9) {
	case 8:
		// A dimension known only at run time, also one the launch does not
		// have; 3 is beyond any.
		return fmt.Sprintf("%s((%s) & 3)", g.pick("get_global_id", "get_local_id", "get_group_id",
			"get_global_size", "get_local_size", "get_num_groups", "get_global_offset"), g.expr())
	case 0:
		return fmt.Sprintf("%d", g.r.Intn(2001)-1000)
	case 1:
		return "gid"
	case 2:
		return "lid"
	case 3:
		return g.pick("get_group_id(0)", "get_global_size(0)", "get_local_size(0)",
			"get_num_groups(0)", "get_global_offset(0)", "get_work_dim()", "get_global_id(1)", "get_local_id(2)")
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

// loop writes a loop whose trip count (0..7) depends on the item.
func (g *kgen) loop(indent string) {
	c, v := g.fresh(), g.r.Intn(g.nvars)
	if g.r.Intn(2) == 0 {
		fmt.Fprintf(&g.b, "%sfor (int %s = 0; %s < ((%s) & 7); %s++) {\n", indent, c, c, g.expr(), c)
		fmt.Fprintf(&g.b, "%s\tv%d = v%d + %s + %s;\n", indent, v, v, c, g.expr())
	} else {
		fmt.Fprintf(&g.b, "%sint %s = (%s) & 7;\n%swhile (%s > 0) {\n", indent, c, g.expr(), indent, c)
		fmt.Fprintf(&g.b, "%s\t%s--;\n%s\tv%d = v%d * 3 + %s;\n", indent, c, indent, v, v, g.expr())
	}
	fmt.Fprintf(&g.b, "%s}\n", indent)
}

func (g *kgen) stmt(indent string) {
	switch g.r.Intn(8) {
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
	case 5:
		// A while loop the items leave at different times and ways.
		c, v := g.fresh(), g.r.Intn(g.nvars)
		fmt.Fprintf(&g.b, "%sint %s = (%s) & 15;\n%swhile (%s > 0) {\n", indent, c, g.expr(), indent, c)
		fmt.Fprintf(&g.b, "%s\t%s = %s - 1;\n", indent, c, c)
		fmt.Fprintf(&g.b, "%s\tif (((%s) & 3) == 0) { continue; }\n", indent, g.expr())
		fmt.Fprintf(&g.b, "%s\tif (((%s + %s) & 15) == 1) { break; }\n", indent, g.expr(), c)
		fmt.Fprintf(&g.b, "%s\tv%d = v%d + (%s);\n%s}\n", indent, v, v, g.expr(), indent)
	case 6:
		// Nested branches whose sides both loop.
		fmt.Fprintf(&g.b, "%sif (%s %s %s) {\n", indent, g.expr(), g.pick("<", ">", "!="), g.expr())
		fmt.Fprintf(&g.b, "%s\tif (((%s) & 1) == 0) {\n", indent, g.expr())
		g.loop(indent + "\t\t")
		fmt.Fprintf(&g.b, "%s\t} else {\n", indent)
		g.loop(indent + "\t\t")
		fmt.Fprintf(&g.b, "%s\t}\n%s} else {\n", indent, indent)
		g.loop(indent + "\t")
		fmt.Fprintf(&g.b, "%s}\n", indent)
	default:
		fmt.Fprintf(&g.b, "%sv%d = (v%d & 255) + (%s & 65535);\n",
			indent, g.r.Intn(g.nvars), g.r.Intn(g.nvars), g.expr())
	}
}

// item stands in the generated source for the item's number in the
// launch, which in one dimension is written so that the store guard is
// the compiler's hoistable bounds check.
const item = "ITEM"

// generate returns the kernel source. Barrier kernels exchange values
// through local memory between barriers that every item of a group
// reaches: the exchange stands outside generated control flow, under a loop
// whose trip count is the same for all, or on both sides of a branch.
func (g *kgen) generate() string {
	g.b.Reset()
	g.nvars = 2 + g.r.Intn(3)
	if g.barrier == barrierInHelper || g.barrier == barrierInDivergentLoopHelper {
		g.b.WriteString(`int exchange(local int* s, int at, int lsz, int v) {
	s[at] = v;
	barrier(CLK_LOCAL_MEM_FENCE);
	int got = s[(at + 1) % lsz];
	barrier(CLK_LOCAL_MEM_FENCE);
	return got;
}
`)
	}
	if g.barrier != noBarrier {
		g.b.WriteString("kernel void k(global int* out, const global int* in, local int* s, int n) {\n")
	} else {
		g.b.WriteString("kernel void k(global int* out, const global int* in, int n) {\n")
	}
	g.b.WriteString(`	int gid = get_global_id(0);
	int lid = get_local_id(0);
	int lin = (gid - get_global_offset(0)) + get_global_size(0) * ((get_global_id(1) - get_global_offset(1)) +
		get_global_size(1) * (get_global_id(2) - get_global_offset(2)));
	int llin = lid + get_local_size(0) * (get_local_id(1) + get_local_size(1) * get_local_id(2));
	int lsz = get_local_size(0) * get_local_size(1) * get_local_size(2);
`)
	g.declared = 0
	for i := 0; i < g.nvars; i++ {
		fmt.Fprintf(&g.b, "\tint v%d = %s;\n", i, g.expr())
		g.declared = i + 1
	}
	nstmts := 2 + g.r.Intn(5)
	for i := 0; i < nstmts; i++ {
		g.stmt("\t")
		if i != nstmts/2 {
			continue
		}
		from, to := g.r.Intn(g.nvars), g.r.Intn(g.nvars)
		switch g.barrier {
		case barrierTopLevel:
			fmt.Fprintf(&g.b, "\ts[llin] = v%d;\n", from)
			g.b.WriteString("\tbarrier(CLK_LOCAL_MEM_FENCE);\n")
			fmt.Fprintf(&g.b, "\tv%d = s[(llin + 1) %% lsz];\n", to)
			g.b.WriteString("\tbarrier(CLK_LOCAL_MEM_FENCE);\n")
		case barrierInLoop, barrierInDivergentLoop, barrierInDivergentLoopHelper:
			// n is a kernel argument: the trip count is uniform but not
			// known to the compiler.
			fmt.Fprintf(&g.b, "\tfor (int t = 0; t < 1 + (n & 3); t++) {\n")
			if g.barrier != barrierInLoop {
				fmt.Fprintf(&g.b, "\t\tif (((%s + t) & 1) == 0) {\n", g.expr())
				g.stmt("\t\t\t")
				g.b.WriteString("\t\t} else {\n")
				g.loop("\t\t\t")
				g.b.WriteString("\t\t}\n")
			}
			if g.barrier == barrierInDivergentLoopHelper {
				fmt.Fprintf(&g.b, "\t\tv%d = v%d + exchange(s, llin, lsz, v%d + t);\n", to, to, from)
			} else {
				fmt.Fprintf(&g.b, "\t\ts[llin] = v%d + t;\n", from)
				g.b.WriteString("\t\tbarrier(CLK_LOCAL_MEM_FENCE);\n")
				fmt.Fprintf(&g.b, "\t\tv%d = v%d + s[(llin + 1 + t) %% lsz];\n", to, to)
				g.b.WriteString("\t\tbarrier(CLK_LOCAL_MEM_FENCE);\n")
			}
			g.b.WriteString("\t}\n")
		case barrierInHelper:
			fmt.Fprintf(&g.b, "\tv%d = exchange(s, llin, lsz, v%d) + %s;\n", to, from, g.expr())
		case barrierInBranches:
			fmt.Fprintf(&g.b, "\tif ((%s) & 1) {\n\t\ts[llin] = v%d;\n", g.expr(), from)
			g.b.WriteString("\t\tbarrier(CLK_LOCAL_MEM_FENCE);\n\t} else {\n")
			fmt.Fprintf(&g.b, "\t\ts[llin] = v%d + 1;\n", from)
			g.b.WriteString("\t\tbarrier(CLK_LOCAL_MEM_FENCE);\n\t}\n")
			fmt.Fprintf(&g.b, "\tv%d = s[(llin + 1) %% lsz];\n", to)
			g.b.WriteString("\tbarrier(CLK_LOCAL_MEM_FENCE);\n")
		}
	}
	// Mixed-guard store: items past n stay idle.
	g.b.WriteString("\tif (" + item + " < n) {\n")
	for i := 0; i < g.nvars; i++ {
		fmt.Fprintf(&g.b, "\t\tout[%s * %d + %d] = v%d;\n", item, g.nvars, i, i)
	}
	g.b.WriteString("\t}\n}\n")
	return g.b.String()
}

// stripEdges are the dimension-0 group sizes every random kernel runs at:
// around the strip width, so that last strips are partial, and a single
// lane.
var stripEdges = []int{1, 3, 63, 64, 65, 100, 256}

// TestRandomKernelsThreeWay is the compiler's and the executor's property
// test: 120 randomized kernels (half with barriers + local memory), each
// over every group size of stripEdges in one dimension and over a 2-D or
// 3-D range of multi-row groups, with global offsets and a ragged guard,
// must come out bit-identical from the optimized plan, the unoptimized
// plan and the AST oracle. Run with -race this also proves the plan
// runner's worker parallelism is race-clean.
func TestRandomKernelsThreeWay(t *testing.T) {
	const cases = 120
	for seed := 0; seed < cases; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(int64(seed)*7919 + 17))
			g := &kgen{r: r}
			if seed%2 == 1 {
				g.barrier = barrierTopLevel + barrierShape(seed/2)%(barrierShapes-1)
			}
			src := g.generate()
			src1 := strings.ReplaceAll(src, item, "(gid - get_global_offset(0))")
			srcN := strings.ReplaceAll(src, item, "lin")

			var shapes []launchShape
			for _, l0 := range stripEdges {
				sh := launchShape{global: []int{l0 * (1 + r.Intn(3))}, local: []int{l0}}
				if r.Intn(2) == 0 {
					sh.offset = []int{r.Intn(100)}
				}
				shapes = append(shapes, sh)
			}
			l0 := stripEdges[seed%len(stripEdges)]
			if seed/len(stripEdges)%2 == 0 {
				shapes = append(shapes, launchShape{global: []int{l0 * (1 + r.Intn(2)), 4},
					offset: []int{1 + r.Intn(100), 7}, local: []int{l0, 2}})
			} else {
				shapes = append(shapes, launchShape{global: []int{l0, 2, 4},
					offset: []int{1 + r.Intn(100), 5, 3}, local: []int{l0, 2, 2}})
			}

			in := make([]byte, 4*256)
			r.Read(in)
			for _, sh := range shapes {
				total, group := 1, 1
				for d := range sh.global {
					total *= sh.global[d]
					group *= sh.local[d]
				}
				extra := []Arg{GlobalArg(in)}
				if g.barrier != noBarrier {
					extra = append(extra, LocalArg(4*group))
				}
				extra = append(extra, IntArg(int32(1+r.Intn(total)))) // ragged guard boundary
				src := src1
				if len(sh.global) > 1 {
					src = srcN
				}
				if _, err := crossCheck(t, src, "k", outThen(4*g.nvars*total, extra...), sh, 1+r.Intn(4)); err != nil {
					t.Fatalf("generated kernel trapped: %v\nshape %+v\n%s", err, sh, src)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Engine split, cost estimates, allocation discipline.
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

// TestStatsEngineSplit pins what FusedGroups and CoopGroups count: whether
// a group ran strip after strip or, its kernel having barriers, as one
// strip of all its items — and nothing else. In particular the unoptimized
// plan and a group handed over to it are not "cooperative": there is no
// second engine to count.
func TestStatsEngineSplit(t *testing.T) {
	split := func(name string, l Launch, fused, coop int) Stats {
		t.Helper()
		stats, err := RunStats(l)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if stats.FusedGroups != fused || stats.CoopGroups != coop {
			t.Errorf("%s: fused/coop = %d/%d, want %d/%d", name, stats.FusedGroups, stats.CoopGroups, fused, coop)
		}
		if stats.FusedGroups+stats.CoopGroups != stats.GroupsRun {
			t.Errorf("%s: fused %d + coop %d != groups run %d", name, stats.FusedGroups, stats.CoopGroups, stats.GroupsRun)
		}
		if stats.Compile == nil || stats.Compile.BodyInstrs == 0 {
			t.Errorf("%s: compile info missing: %+v", name, stats.Compile)
		}
		return stats
	}

	p := compile(t, speedupKernel)
	l := Launch{Prog: p, Kernel: kernelFn(t, p, "spin"),
		Args:       []Arg{GlobalArg(make([]byte, 4*1024)), IntArg(32), IntArg(32), IntArg(10)},
		GlobalSize: []int{1024}, LocalSize: []int{64}}
	if stats := split("optimized", l, 16, 0); len(stats.Compile.Passes) == 0 {
		t.Error("no per-pass compile timings recorded")
	}
	l.Unoptimized = true
	if stats := split("unoptimized", l, 16, 0); len(stats.Compile.Passes) != 0 {
		t.Errorf("unoptimized plan reports passes: %+v", stats.Compile.Passes)
	}

	// A zero width sends every group of the optimized plan to the
	// unoptimized one; each is still counted once, as fused.
	l.Unoptimized = false
	l.Args = []Arg{GlobalArg(make([]byte, 4*1024)), IntArg(0), IntArg(32), IntArg(10)}
	split("zero width", l, 16, 0)

	// Groups of barrier kernels are the cooperative ones, optimized or not.
	pb := compile(t, `kernel void b(global int* out, local int* s) {
	int lid = get_local_id(0);
	s[lid] = lid;
	barrier(CLK_LOCAL_MEM_FENCE);
	out[get_global_id(0)] = s[(lid + 1) % get_local_size(0)];
}`)
	lb := Launch{Prog: pb, Kernel: kernelFn(t, pb, "b"),
		Args:       []Arg{GlobalArg(make([]byte, 4*64)), LocalArg(4 * 16)},
		GlobalSize: []int{64}, LocalSize: []int{16}}
	split("barrier", lb, 0, 4)
	lb.Unoptimized = true
	split("barrier unoptimized", lb, 0, 4)
}

// TestEstimateCostExtrapolation checks that a cost estimate from a
// sampled run matches the instruction count of the full run: the
// per-group (prologue) and per-item components must be separated, or
// fused kernels with hoisted prologues extrapolate wrongly — and every
// group must be counted in the same unit, whichever way it ran.
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

	// The block sum: its barrier stands in a uniform while loop, and every
	// group does the same work, so a sample must extrapolate almost
	// exactly.
	pb := compile(t, blocksumSrc)
	const bgroups, blocal = 64, 16
	bbase := Launch{Prog: pb, Kernel: kernelFn(t, pb, "blocksum"),
		Args: []Arg{GlobalArg(make([]byte, 4*bgroups)), GlobalArg(blocksumWork(bgroups, blocal)),
			LocalArg(4 * blocal)},
		GlobalSize: []int{bgroups * blocal}, LocalSize: []int{blocal}, Workers: 1}
	full, err = RunStats(bbase)
	if err != nil {
		t.Fatalf("block sum, full run: %v", err)
	}
	bbase.GroupLimit = 8
	s, err = RunStats(bbase)
	if err != nil {
		t.Fatalf("block sum, sampled run: %v", err)
	}
	est, got = s.EstimateCost(bgroups), float64(full.Instructions)
	if est < got*0.95 || est > got*1.05 {
		t.Errorf("block sum: estimate %f vs actual %f (%.1f%% off)", est, got, 100*(est/got-1))
	}
}

// TestDispatchAllocsZero is the zero-allocation claim as a plain test:
// steady-state dispatch must not touch the heap.
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

// BenchmarkFusedDispatch measures steady-state dispatch — one op is one
// work-group of four strips on a preallocated runner. Run
// with -benchmem: allocs/op must be 0 (enforced by TestDispatchAllocsZero
// and the CI bench smoke).
func BenchmarkFusedDispatch(b *testing.B) {
	p, err := kernel.Compile(speedupKernel)
	if err != nil {
		b.Fatal(err)
	}
	fn, _ := p.Kernel("spin")
	plan := p.WorkGroup(fn)
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
// included).
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
