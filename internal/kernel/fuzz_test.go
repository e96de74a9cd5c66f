package kernel_test

import (
	"strings"
	"testing"

	"dopencl/internal/apps/cgsolve"
	"dopencl/internal/apps/heat"
	"dopencl/internal/apps/mandelbrot"
	"dopencl/internal/apps/osem"
	"dopencl/internal/kernel"
)

// fuzzSeeds are every kernel source in the tree — the four apps by import,
// the benchmark's and the examples' (main packages) by copy — plus what
// Compile refuses and the shapes that used to need a second engine.
var fuzzSeeds = []string{
	mandelbrot.KernelSource, mandelbrot.PartitionedKernelSource,
	heat.KernelSource, cgsolve.KernelSource,
	osem.KernelSource,

	// benchmark/w_cmdstream.go
	`
kernel void mix(global float* work, const global float* in, int off, float keep) {
	int i = get_global_id(0);
	work[i] = work[i] * keep + in[off + i];
}

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

kernel void touch(global float* work) {
	work[get_global_id(0)] = 1.0;
}
`,
	// benchmark/w_heat.go, after heat's step
	`
kernel void dotrows(global float* part, const global float* x, const global float* y, int w, int h) {
	int lr = get_global_id(0) - get_global_offset(0);
	float acc = 0.0;
	for (int c = 0; c < w; c++) {
		acc = acc + x[lr * w + c] * y[lr * w + c];
	}
	part[lr] = acc;
}
`,
	// benchmark/w_serve.go, examples/multitenant
	`
kernel void axpb(const global int* in, global int* out, int f, int n) {
	int i = get_global_id(0);
	if (i < n) { out[i] = in[i] * f + 1; }
}
`,
	// examples/quickstart
	`
kernel void vadd(global float* out, const global float* a, const global float* b, int n) {
	int i = get_global_id(0);
	if (i < n) {
		out[i] = a[i] + b[i];
	}
}
`,
	// Every kind of jump: loops with break and continue, ?:, && and ||.
	`kernel void k(global int* o, int n) {
	for (int i = 0; i < n; i++) {
		if (i % 2 == 0) { continue; }
		if (i > 10) { break; }
		o[i % 4] += i;
	}
	while (n > 0) { n--; }
}`,
	`kernel void k(global float* o) {
	o[0] = (o[0] > 0.0) ? o[0] : -o[0];
	o[1] = ((1 < 2) && (3 < 4)) ? 1.0 : 0;
	o[2] = ((1 > 2) || (3 > 4)) ? 1 : 0.0;
}`,
	// Chains of && and ||: flags where no term after the first can trap
	// or write, branches before a load, a division and a storing call.
	`int mark(global int* o, int i) { o[i] = 1; return 1; }
kernel void k(global int* o, const global int* in, int n, int d, float f) {
	int i = get_global_id(0);
	int x = in[i & 7];
	o[i] = (i == 0 || i == n - 1 || (float)x > f) + (i > 2 && -x && !(x & 3));
	if (i >= 0 && i < n && in[i] > 5) { o[i] += 2; }
	if (d != 0 && x / d > 1 || d == 0 && x % 3 == 0) { o[i] += 4; }
	if (x > 3 || mark(o, i + n) > 0) { o[i] += 8; }
}`,
	// Barriers under a branch, in a loop and in a helper; a run-time
	// dimension; every math builtin.
	`int exchange(local int* s, int lid, int v) {
	s[lid] = v;
	barrier(CLK_LOCAL_MEM_FENCE);
	return s[(lid + 1) % get_local_size(0)];
}
kernel void k(global int* o, local int* s, int d) {
	int lid = get_local_id(d);
	if (lid > 0) { barrier(CLK_LOCAL_MEM_FENCE); }
	for (int i = 0; i < d; i++) { o[lid] = exchange(s, lid, i); }
	o[lid] = get_global_size(d - 1) + get_work_dim();
}`,
	`kernel void k(global float* o, float x, int i) {
	o[0] = sqrt(x) + rsqrt(x) + exp(x) + log(x) + sin(x) + cos(x) + tan(x) + fabs(x);
	o[1] = floor(x) + ceil(x) + pow(x, 2.0) + fmin(x, 1.0) + fmax(x, 1) + fmod(x, 3.0) + clamp(x, 0.0, 1.0);
	o[2] = min(i, 3) + max(i, 4) + abs(i) + i / 3 + i % 5;
}`,
	// What Loads follows and what it must refuse: a tap in a helper, a
	// shadowed local, products with constants, a loop-carried index and a
	// value merged by ?:.
	`int up(const global int* in, int i, int w) { return in[i - w]; }
kernel void k(global int* out, const global int* in, int w, int h, int b) {
	int g = get_global_id(0);
	int i = -g * 2 + 3 * w;
	for (int k = 0; k < h; k++) { i += w; out[g] += in[i - b] + up(in, i, w); }
	{ int i = g; out[g] += in[i * w]; }
	out[g] += in[(h > 0) ? g : w];
}`,
	// A driver-preset argument the kernel reassigns under a branch: its
	// value after the join is the argument on one path and 0 on the other.
	`kernel void k(global int* out, const global int* in, int w, int h) {
	int g = get_global_id(0);
	if (h < 0) { w = 0; }
	out[g] = in[g + w];
	for (int k = 0; k < 2; k++) { h = h - 1; }
	out[g] += in[g + h];
}`,
	// Refused at Compile.
	`int down(int x) { if (x > 0) { return down(x - 1); } return 0; }
kernel void k(global int* o) { o[0] = down(get_global_id(0)); }`,
	`int odd(int x) { return even(x - 1); } int even(int x) { return odd(x - 1); }
kernel void k(global int* o) { o[0] = even(5); }`,
	"void f3() {}\nvoid f2() { " + strings.Repeat("f3(); ", 100) + "}\nvoid f1() { " +
		strings.Repeat("f2(); ", 100) + "}\nkernel void k() { " + strings.Repeat("f1(); ", 100) + "}",
	"float bad(float x) { if (x > 0.0) { return x; } }\nkernel void k(global float* o) { o[0] = bad(-1.0); }",
	"kernel void k() { for (;;) { } }",
	strings.Repeat("(", 400),
}

// FuzzCompile feeds arbitrary source through Parse, Compile and the
// passes: none may panic or run past the size caps, and whatever plan
// comes out — as lowered and optimized — must be well formed. The load
// analysis (Program.Loads) runs on every global buffer of every kernel:
// it must not panic either, every load it reports must be one, and every
// index it claims to know must be the one two runs of the item read.
func FuzzCompile(f *testing.F) {
	for _, src := range fuzzSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := kernel.Compile(src)
		if err != nil {
			return
		}
		for _, fn := range prog.Funcs {
			for _, plan := range []*kernel.WGFunc{prog.Unoptimized(fn), prog.WorkGroup(fn)} {
				if err := kernel.CheckPlan(plan); err != nil {
					t.Fatalf("kernel %s: %v\n%s\nsource:\n%s", fn.Name, err, plan.Disassemble(), src)
				}
			}
			code := prog.Unoptimized(fn).Code
			for i, a := range fn.Args {
				if a.Kind != kernel.ArgGlobalBuf {
					continue
				}
				for _, ld := range prog.Loads(fn, i) {
					if ins := code[ld.PC]; ins.Op != kernel.RLdElem || int(ins.B) != prog.Unoptimized(fn).ArgBufs[i] {
						t.Fatalf("kernel %s: Loads reports pc %d (%s) for argument %d", fn.Name, ld.PC, ins.Op, i)
					}
				}
				for run, gid := range []int32{0, 13} {
					ints := make([]int32, len(fn.Args))
					for j := range ints {
						ints[j] = int32(7*j+3) * int32(1-2*run)
					}
					if err := kernel.CheckLoads(prog, fn, i, gid, ints); err != nil {
						t.Fatalf("kernel %s, argument %d: %v\n%s\nsource:\n%s", fn.Name, i, err, prog.Unoptimized(fn).Disassemble(), src)
					}
				}
			}
		}
	})
}

// TestSinkMovesEachDefOnce pins that the sink pass ends by its rule, one
// bottom-up sweep, and not at a cap: no def of any seed kernel moves
// twice.
func TestSinkMovesEachDefOnce(t *testing.T) {
	for _, src := range fuzzSeeds {
		prog, err := kernel.Compile(src)
		if err != nil {
			continue
		}
		for _, fn := range prog.Funcs {
			seen := map[int32]bool{}
			for _, d := range kernel.SinkMoves(fn) {
				if seen[d] {
					t.Errorf("kernel %s: the sink pass moved r%d twice\n%s", fn.Name, d, src)
				}
				seen[d] = true
			}
		}
	}
}

// TestIndexOnlyInductions walks the optimized plan of every kernel of the
// seeds, every kernel source in the tree among them: CheckPlan holds each
// index-only induction, and gid0 and lid0 when marked so, to being read
// only as the plain index of an access or by a later induction, since the
// executor keeps no row for it. heat's step, whose every tap is indexed
// through an induction, must have more of them than the six a cap once
// allowed, all index-only, and no index arithmetic left in its body. It
// and cg's applyA have exactly 10: each computes one affine expression in
// two blocks, and the second reuses the first's induction.
func TestIndexOnlyInductions(t *testing.T) {
	marked := 0
	for _, src := range fuzzSeeds {
		prog, err := kernel.Compile(src)
		if err != nil {
			continue
		}
		for _, fn := range prog.Funcs {
			w := prog.WorkGroup(fn)
			if err := kernel.CheckPlan(w); err != nil {
				t.Errorf("kernel %s: %v\n%s", fn.Name, err, w.Disassemble())
			}
			for _, a := range w.Affine {
				if a.IndexOnly {
					marked++
				}
			}
		}
	}
	if marked == 0 {
		t.Errorf("no seed kernel has an index-only induction")
	}
	for _, k := range []struct{ src, name string }{{heat.KernelSource, heat.StepKernel}, {cgsolve.KernelSource, "applyA"}} {
		prog, _ := kernel.Compile(k.src)
		fn, _ := prog.Kernel(k.name)
		if n := len(prog.WorkGroup(fn).Affine); n != 10 {
			t.Errorf("kernel %s has %d inductions, want 10:\n%s", k.name, n, prog.WorkGroup(fn).Disassemble())
		}
	}
	prog, _ := kernel.Compile(heat.KernelSource)
	fn, _ := prog.Kernel(heat.StepKernel)
	w := prog.WorkGroup(fn)
	if len(w.Affine) <= 6 || !w.IndexOnlyIDs[0] {
		t.Errorf("%d inductions, gid0 index-only %v, want more than 6 and true:\n%s", len(w.Affine), w.IndexOnlyIDs[0], w.Disassemble())
	}
	for _, a := range w.Affine {
		if !a.IndexOnly {
			t.Errorf("induction r%d has a row:\n%s", a.Reg, w.Disassemble())
		}
	}
	for _, ins := range w.Code {
		if ins.Op == kernel.RAddI || ins.Op == kernel.RSubI || ins.F1 == kernel.RSubI {
			t.Errorf("index arithmetic left in the body:\n%s", w.Disassemble())
			break
		}
	}
}

// TestSeedsCompile keeps the seed list honest: everything in it that is
// not a refusal must actually reach CheckPlan.
func TestSeedsCompile(t *testing.T) {
	refused := 0
	for _, src := range fuzzSeeds {
		if _, err := kernel.Compile(src); err != nil {
			refused++
		}
	}
	if refused != 4 {
		t.Errorf("%d of %d seeds are refused, want the 4 written to be", refused, len(fuzzSeeds))
	}
}
