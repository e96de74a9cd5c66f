package kernel_test

import (
	"encoding/binary"
	"testing"

	"dopencl/internal/apps/heat"
	"dopencl/internal/kernel"
	"dopencl/internal/vm"
)

// countSteps counts the instructions of code that run op, as their
// opcode or as a fused step.
func countSteps(code []kernel.RInstr, ops ...kernel.ROp) int {
	n := 0
	for _, ins := range code {
		for _, s := range []kernel.ROp{ins.Op, ins.F1, ins.F2} {
			for _, op := range ops {
				if s == op {
					n++
				}
			}
		}
	}
	return n
}

// TestSpeculableChainIsOneBranch pins the flag form of && and ||: heat's
// boundary test, four compares that cannot trap, lowers to the compares,
// three adds and one ne.i, with no ne.i on a compare and no branch but
// the if's, and the optimized body still indexes its interior store with
// a fused subtraction (which a sink pass trading two defs at one use
// once lost).
func TestSpeculableChainIsOneBranch(t *testing.T) {
	p, err := kernel.Compile(heat.KernelSource)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := p.Kernel(heat.StepKernel)
	raw := p.Unoptimized(fn)
	for _, c := range []struct {
		what string
		ops  []kernel.ROp
		want int
	}{
		{"conditional branches (the if's)", []kernel.ROp{kernel.RBrT, kernel.RBrF}, 1},
		{"jumps", []kernel.ROp{kernel.RJmp}, 0},
		{"ne.i (the chain's last)", []kernel.ROp{kernel.RNeI}, 1},
	} {
		if got := countSteps(raw.Code, c.ops...); got != c.want {
			t.Errorf("%d %s as lowered, want %d:\n%s", got, c.what, c.want, raw.Disassemble())
		}
	}
	if got := countSteps(raw.Code, kernel.RAddI); got < 3 {
		t.Errorf("%d add.i as lowered, want at least the chain's 3:\n%s", got, raw.Disassemble())
	}
	w := p.WorkGroup(fn)
	if got := countSteps(w.Code, kernel.RBrT, kernel.RBrF); got != 1 {
		t.Errorf("%d conditional branches in the plan, want the if's:\n%s", got, w.Disassemble())
	}
	if st := w.Code[len(w.Code)-2]; st.Op != kernel.RStElem || st.F1 != kernel.RSubI {
		t.Errorf("interior store %s has no fused sub.i index:\n%s", st.Op, w.Disassemble())
	}
}

// TestGuardedChainsKeepBranches pins the chains that must stay branches:
// a term after the first that loads, divides or calls is evaluated only
// when the terms before it do not decide, one branch per such term.
func TestGuardedChainsKeepBranches(t *testing.T) {
	for _, tc := range []struct {
		name, cond string
		branches   int
	}{
		{"bounds-guarded load", "i >= 0 && i < n && in[i] > 5", 1},
		{"guarded division", "d != 0 && x / d > 1", 1},
		{"guarded remainder", "d == 0 || x % d == 0", 1},
		{"call to a storing helper", "x > 3 || mark(o, i) > 0", 1},
		{"two guarded terms", "d != 0 && x / d > 1 && in[x / d] > 0", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := kernel.Compile(`int mark(global int* o, int i) { o[i] = 1; return 1; }
kernel void k(global int* o, const global int* in, int i, int n, int d, int x) {
	if (` + tc.cond + `) { o[0] = 7; }
}`)
			if err != nil {
				t.Fatal(err)
			}
			fn, _ := p.Kernel("k")
			raw := p.Unoptimized(fn)
			// The if's own branch is one more.
			if got := countSteps(raw.Code, kernel.RBrT, kernel.RBrF); got != tc.branches+1 {
				t.Errorf("%d conditional branches as lowered, want %d:\n%s", got, tc.branches+1, raw.Disassemble())
			}
		})
	}
}

// TestChainValues pins && and || used as values: 0 or 1 whatever the
// terms, in the flag form (terms that cannot trap) and the branch form
// (a division or a load after the first term) alike, as lowered and
// optimized.
func TestChainValues(t *testing.T) {
	for _, tc := range []struct {
		expr string
		want int32
	}{
		{"2 && 3", 1}, {"0 || -5", 1}, {"a && b", 1}, {"z || a", 1}, {"a && z", 0}, {"z || z", 0},
		{"a && b && -1", 1}, {"z || z || 7", 1}, {"(a || z) && (b && -2)", 1}, {"a && (z || z)", 0},
		{"(int)(float)a && 1.5 > 1.0", 1}, {"a && b / a", 1}, {"z || o[1]", 1}, {"z || o[0]", 0},
	} {
		src := `kernel void k(global int* o, int a, int b, int z) { o[0] = 0; o[1] = 9; o[2] = ` + tc.expr + `; }`
		p, err := kernel.Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", tc.expr, err)
		}
		fn, _ := p.Kernel("k")
		for _, unoptimized := range []bool{true, false} {
			out := make([]byte, 12)
			err := vm.Run(vm.Launch{Prog: p, Kernel: fn, GlobalSize: []int{1}, Unoptimized: unoptimized,
				Args: []vm.Arg{vm.GlobalArg(out), vm.IntArg(2), vm.IntArg(3), vm.IntArg(0)}})
			if err != nil {
				t.Fatalf("%s: %v", tc.expr, err)
			}
			if got := int32(binary.LittleEndian.Uint32(out[8:])); got != tc.want {
				t.Errorf("%s = %d (unoptimized %v), want %d", tc.expr, got, unoptimized, tc.want)
			}
		}
	}
}
