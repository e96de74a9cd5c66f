package kernel_test

import (
	"slices"
	"strings"
	"testing"

	"dopencl/internal/apps/cgsolve"
	"dopencl/internal/apps/heat"
	"dopencl/internal/apps/mandelbrot"
	"dopencl/internal/kernel"
)

// TestCheckPlanRefusesBrokenGuards takes heat's step plan, whose boundary
// test is a position guard over a four-instruction slice, breaks each of
// the conditions the guard pass places on a slice in turn, and requires
// CheckPlan (and so FuzzCompile) to refuse every broken copy.
func TestCheckPlanRefusesBrokenGuards(t *testing.T) {
	prog, err := kernel.Compile(heat.KernelSource)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := prog.Kernel(heat.StepKernel)
	w := prog.WorkGroup(fn)
	if err := kernel.CheckPlan(w); err != nil {
		t.Fatalf("the plan itself: %v\n%s", err, w.Disassemble())
	}
	g := slices.IndexFunc(w.Code, func(ins kernel.RInstr) bool { return ins.Op == kernel.RGuard })
	if g < 0 || w.Code[g].C-int32(g) != 5 {
		t.Fatalf("no guard over a four-instruction slice:\n%s", w.Disassemble())
	}
	b := int(w.Code[g].C)
	load := w.Code[g-1].D // the centre tap, loaded before the slice
	for _, tc := range []struct {
		name, want string
		mutate     func(code []kernel.RInstr)
	}{
		{"a float step in the slice", "out of the closed form", func(c []kernel.RInstr) { c[g+1].Op = kernel.RAddF }},
		{"a fused step out of the form", "out of the closed form", func(c []kernel.RInstr) { c[g+4].F1 = kernel.RAndI }},
		{"a branch step out of the form", "out of the closed form", func(c []kernel.RInstr) { c[b].F1 = kernel.RLtF }},
		{"a read of a loaded value", "which the body writes", func(c []kernel.RInstr) { c[g+1].B = load }},
		{"a result read before its def", "which the body writes", func(c []kernel.RInstr) { c[g+1].B = c[g+4].D }},
		{"a result read after the branch", "outside the slice", func(c []kernel.RInstr) { c[len(c)-2].C = c[g+1].D }},
		{"a result written twice", "written 2 times", func(c []kernel.RInstr) { c[g+2].D = c[g+1].D }},
		{"a preset register as a result", "is preset", func(c []kernel.RInstr) { c[g+1].D = w.DivMod[0].ModReg }},
		{"a branch that writes back", "writes back", func(c []kernel.RInstr) { c[b].D = c[g+1].D }},
		{"a jump into the slice", "inside the slice", func(c []kernel.RInstr) { c[b].C = int32(g + 2) }},
		{"a guard of no branch", "not a conditional branch", func(c []kernel.RInstr) { c[g].C = int32(g + 3) }},
		{"a guard of an earlier branch", "not a conditional branch", func(c []kernel.RInstr) { c[g].C = int32(g - 1) }},
	} {
		broken := *w
		broken.Code = slices.Clone(w.Code)
		tc.mutate(broken.Code)
		if err := kernel.CheckPlan(&broken); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckPlan says %v, want %q:\n%s", tc.name, err, tc.want, broken.Disassemble())
		}
	}
}

// TestGuardOnlyPairs pins which div/mod pairs the index pass marks
// guard-only: heat.step's and cg.applyA's, which only their boundary
// guard's slice reads, and neither Mandelbrot kernel's, whose bodies read
// col and row. CheckPlan (and so FuzzCompile) must refuse each plan with
// its mark flipped, and heat.step's with a read of its pair after the
// branch, before the guard or in the prologue.
func TestGuardOnlyPairs(t *testing.T) {
	plan := func(src, name string) *kernel.WGFunc {
		prog, err := kernel.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		fn, _ := prog.Kernel(name)
		return prog.WorkGroup(fn)
	}
	refuse := func(what string, w *kernel.WGFunc, want string) {
		t.Helper()
		if err := kernel.CheckPlan(w); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: CheckPlan says %v, want %q:\n%s", what, err, want, w.Disassemble())
		}
	}
	for _, tc := range []struct {
		src, name string
		guardOnly bool
	}{
		{heat.KernelSource, heat.StepKernel, true},
		{cgsolve.KernelSource, "applyA", true},
		{mandelbrot.KernelSource, "mandelbrot", false},
		{mandelbrot.PartitionedKernelSource, "mandelblock", false},
	} {
		w := plan(tc.src, tc.name)
		if len(w.DivMod) != 1 || w.DivMod[0].GuardOnly != tc.guardOnly {
			t.Errorf("%s: want one div/mod pair, guard-only %v:\n%s", tc.name, tc.guardOnly, w.Disassemble())
			continue
		}
		if err := kernel.CheckPlan(w); err != nil {
			t.Errorf("%s: the plan itself: %v", tc.name, err)
		}
		flipped := *w
		flipped.DivMod = []kernel.DivModSpec{w.DivMod[0]}
		flipped.DivMod[0].GuardOnly = !tc.guardOnly
		refuse(tc.name+" with its mark flipped", &flipped,
			map[bool]string{true: "outside every guard slice", false: "not marked guard-only"}[!tc.guardOnly])
	}
	w := plan(heat.KernelSource, heat.StepKernel)
	mod, g := w.DivMod[0].ModReg, slices.IndexFunc(w.Code, func(ins kernel.RInstr) bool { return ins.Op == kernel.RGuard })
	for _, tc := range []struct {
		name   string
		mutate func(w *kernel.WGFunc)
	}{
		{"a read after the branch", func(w *kernel.WGFunc) { w.Code[len(w.Code)-2].C = mod }},
		{"a read before the guard", func(w *kernel.WGFunc) { w.Code[g-1].A = mod }},
		{"a read in the prologue", func(w *kernel.WGFunc) { w.Prologue[0].A = mod }},
	} {
		broken := *w
		broken.Code, broken.Prologue = slices.Clone(w.Code), slices.Clone(w.Prologue)
		tc.mutate(&broken)
		refuse(tc.name, &broken, "outside every guard slice")
	}
}
