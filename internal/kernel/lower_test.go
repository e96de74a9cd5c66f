package kernel

import (
	"strings"
	"testing"
)

// mandelblockSrc mirrors internal/apps/mandelbrot.PartitionedKernelSource
// (kept inline — the apps package depends on this one). The shape
// assertions below pin the compiler's output budget for the repository's
// headline workload; loosen them only with a benchmark run in hand.
const mandelblockSrc = `
kernel void mandelblock(global int* out, int width, int height,
                        float xmin, float ymin, float dx, float dy,
                        int maxIter) {
	int gid = get_global_id(0);
	if (gid >= width * height) {
		return;
	}
	int col = gid % width;
	int row = gid / width;
	float cx = xmin + (float)col * dx;
	float cy = ymin + (float)row * dy;
	float zx = 0.0;
	float zy = 0.0;
	int iter = 0;
	while (iter < maxIter) {
		float zx2 = zx * zx;
		float zy2 = zy * zy;
		if (zx2 + zy2 > 4.0) {
			break;
		}
		float nzx = zx2 - zy2 + cx;
		zy = 2.0 * zx * zy + cy;
		zx = nzx;
		iter = iter + 1;
	}
	out[gid - get_global_offset(0)] = iter;
}
`

func compileWG(t *testing.T, src, name string) *WGFunc {
	t.Helper()
	p, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	fn, ok := p.Kernel(name)
	if !ok {
		t.Fatalf("kernel %s not found", name)
	}
	return p.WorkGroup(fn)
}

// TestMandelblockPlanShape pins the optimization budget achieved on the
// partitioned Mandelbrot kernel: the bounds check is a position guard, the
// div/mod pair and the store-index arithmetic become loop-carried
// induction variables, the uniform prologue is a single instruction, and
// the whole per-item body fits in a handful of fused instructions
// (as lowered, the same kernel is several times that).
func TestMandelblockPlanShape(t *testing.T) {
	w := compileWG(t, mandelblockSrc, "mandelblock")
	if w.HasBarriers() {
		t.Fatal("mandelblock should be barrier-free")
	}
	if countOp(w, RGuard) != 1 || w.Code[0].Op != RGuard || w.Code[w.Code[0].C].Op != RBrF {
		t.Errorf("bounds check not guarded (its strips will run its compare):\n%s", w.Disassemble())
	}
	if len(w.DivMod) != 1 {
		t.Errorf("div/mod induction pairs = %d, want 1 (col/row)", len(w.DivMod))
	}
	if len(w.Affine) < 1 {
		t.Errorf("affine induction registers = %d, want >= 1 (store index)", len(w.Affine))
	}
	if got := len(w.Prologue); got > 2 {
		t.Errorf("prologue = %d instructions, want <= 2:\n%s", got, w.Disassemble())
	}
	if got := len(w.Code); got > 20 {
		t.Errorf("fused body = %d instructions, want <= 20:\n%s", got, w.Disassemble())
	}
	if w.Info.BodyInstrs != len(w.Code) {
		t.Errorf("Info.BodyInstrs = %d, len(Code) = %d", w.Info.BodyInstrs, len(w.Code))
	}
	if len(w.Info.Passes) == 0 || w.Info.Total <= 0 {
		t.Errorf("pass timings missing: %+v", w.Info)
	}
}

// TestWorkGroupPlanCached verifies that compilation happens once per
// kernel function: repeated WorkGroup calls (graph replays, scheduler
// chunks) return the same plan without recompiling.
func TestWorkGroupPlanCached(t *testing.T) {
	p, err := Compile(mandelblockSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	fn, _ := p.Kernel("mandelblock")
	before := WorkGroupCompiles()
	w1 := p.WorkGroup(fn)
	mid := WorkGroupCompiles()
	if mid != before+1 {
		t.Fatalf("first WorkGroup call compiled %d times, want 1", mid-before)
	}
	for i := 0; i < 10; i++ {
		if w2 := p.WorkGroup(fn); w2 != w1 {
			t.Fatal("WorkGroup returned a different plan instance")
		}
	}
	if got := WorkGroupCompiles(); got != mid {
		t.Fatalf("repeated WorkGroup calls recompiled (%d extra)", got-mid)
	}
}

// TestFormerFallbacksCompile pins that the shapes the compiler used to
// hand to a second engine are ordinary code now: a barrier under a branch
// and a work-item query whose dimension is known only at run time get a
// plan like anything else. (internal/vm runs both against its references;
// the third former refusal, recursion, is a build error:
// TestCompileRefusals.)
func TestFormerFallbacksCompile(t *testing.T) {
	cases := []struct {
		name, src string
		barriers  int
	}{
		{
			"barrier-under-control-flow",
			`kernel void k(global int* o, local int* s) {
	int lid = get_local_id(0);
	if (lid > 0) { barrier(CLK_LOCAL_MEM_FENCE); }
	o[lid] = lid;
}`,
			1,
		},
		{
			"dynamic-dimension-query",
			`kernel void k(global int* o, int d) {
	o[0] = get_global_id(d);
}`,
			0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := compileWG(t, tc.src, "k")
			if w.Fallback != "" {
				t.Fatalf("fallback: %s", w.Fallback)
			}
			if got := countOp(w, RBarrier); got != tc.barriers || w.HasBarriers() != (tc.barriers > 0) {
				t.Errorf("barriers = %d (HasBarriers %v), want %d:\n%s", got, w.HasBarriers(), tc.barriers, w.Disassemble())
			}
		})
	}
}

func countOp(w *WGFunc, op ROp) int {
	n := 0
	for _, ins := range w.Code {
		if ins.Op == op {
			n++
		}
	}
	return n
}

// TestBarrierKernelPlan checks that each barrier() is one RBarrier in the
// plan, before and after the passes, whether it stands at statement level,
// in a loop or in an inlined helper.
func TestBarrierKernelPlan(t *testing.T) {
	p, err := Compile(`
void sync2(local int* s, int lid) {
	barrier(CLK_LOCAL_MEM_FENCE);
	s[lid] = s[lid] + 1;
	barrier(CLK_LOCAL_MEM_FENCE);
}
kernel void k(global int* o, local int* s, int n) {
	int lid = get_local_id(0);
	s[lid] = lid * 2;
	barrier(CLK_LOCAL_MEM_FENCE);
	int v = s[(lid + 1) % get_local_size(0)];
	for (int i = 0; i < n; i++) {
		barrier(CLK_LOCAL_MEM_FENCE);
		v = v + s[i % get_local_size(0)];
	}
	sync2(s, lid);
	o[get_global_id(0)] = v;
}`)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := p.Kernel("k")
	if !fn.HasBarrier {
		t.Error("HasBarrier not set")
	}
	for _, w := range []*WGFunc{p.Unoptimized(fn), p.WorkGroup(fn)} {
		if !w.HasBarriers() {
			t.Error("plan does not report its barriers")
		}
		if got := countOp(w, RBarrier); got != 4 {
			t.Errorf("barrier instructions = %d, want 4:\n%s", got, w.Disassemble())
		}
	}
}

// TestConstantFoldingCollapsesUniformMath checks that compile-time
// constant expressions fold away entirely and uniform argument math is
// hoisted to the prologue.
func TestConstantFoldingCollapsesUniformMath(t *testing.T) {
	w := compileWG(t, `
kernel void k(global int* o, int a) {
	int c = (3 + 4) * 2;
	int u = a * 100 + c;
	o[get_global_id(0)] = u;
}`, "k")
	// The whole computation is group-uniform: the body should reduce to
	// the guarded store (index induction + store) with u in the prologue.
	if len(w.Prologue) == 0 {
		t.Errorf("uniform math not hoisted to prologue:\n%s", w.Disassemble())
	}
	if len(w.Code) > 4 {
		t.Errorf("body = %d instrs, want <= 4 (store + loop bookkeeping):\n%s",
			len(w.Code), w.Disassemble())
	}
	dis := w.Disassemble()
	if strings.Contains(dis, "#14") == false && strings.Contains(dis, "14") == false {
		t.Logf("note: folded constant 14 not visible in disassembly:\n%s", dis)
	}
}

// TestDisassemblyRoundTrip sanity-checks the disassembler output used in
// docs and debugging: it names the kernel, shows the prologue/body split
// and renders constants.
func TestDisassemblyRoundTrip(t *testing.T) {
	w := compileWG(t, mandelblockSrc, "mandelblock")
	dis := w.Disassemble()
	for _, want := range []string{"workgroup mandelblock", "prologue (once per group)",
		"body (fused per-item loop)", "induction", "guard:"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}
