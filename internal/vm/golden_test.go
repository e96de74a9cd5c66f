package vm_test

import (
	"encoding/binary"
	"math"
	"testing"

	"dopencl/internal/apps/cgsolve"
	"dopencl/internal/apps/heat"
	"dopencl/internal/apps/mandelbrot"
	"dopencl/internal/apps/osem"
	"dopencl/internal/kernel"
	"dopencl/internal/vm"
)

// Stats.Instructions is what modeled devices charge for and what sched
// calibrates on, so how the executor schedules the items of a group must
// never show in it. The counts below were recorded with the per-item
// executor that preceded the lane executor (PR 16), for the 13 kernels of
// internal/apps and the benchmark's four, at shapes that cover whole and
// partial strips, guard-retired and guard-mixed groups, offsets and
// barriers. The six kernels whose conditions chain && or || over terms
// that cannot trap (heat.step, cg.applyA and osem's forward and backward,
// whole and partitioned) were re-recorded when such chains began to lower
// to flags and one branch: heat.step 11182 -> 8732, cg.applyA 11716 ->
// 8844, osem.forward 9780 -> 7220, osem.backward 314651 -> 246811,
// osem.part.forward 7784 -> 5736, osem.part.backward 235979 -> 185099.
// Their prologue counts, and every other kernel's counts, did not move.
// heat.step and cg.applyA were re-recorded again when every affine index
// became an induction (the cap of six inductions went): the index chains
// of their neighbour taps, and heat.step's interior store subtraction,
// left the body, heat.step 8732 -> 7892, cg.applyA 8844 -> 7836. Their
// prologue counts, and every other kernel's counts, did not move.
// The kernels whose leading bounds check was a group-level guard that
// skipped its branch in groups where every item survived (mandelbrot,
// mandelblock and osem's forward, backward and update) were re-recorded
// when position guards replaced it: such a group now runs the branch,
// decided per strip, one more instruction per item — mandelbrot 117621
// -> 118389, mandelblock 110681 -> 111449, osem.forward 7220 -> 7252,
// osem.backward 246811 -> 246875, osem.part.forward 5736 -> 5768,
// osem.part.backward 185099 -> 185147, osem.part.update 223 -> 247.
// Groups where no item survived are charged the branch and the end, as
// they were. Prologue counts, and every other kernel's counts, heat.step
// and cg.applyA among them, did not move.

// benchmark/w_cmdstream.go and benchmark/w_serve.go, by copy (main package).
const benchSource = `
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

kernel void axpb(const global int* in, global int* out, int f, int n) {
	int i = get_global_id(0);
	if (i < n) { out[i] = in[i] * f + 1; }
}
`

// floats is a buffer of n floats following a fixed pattern in [lo, lo+span).
func floats(n int, lo, span float32) vm.Arg {
	b := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		v := lo + span*float32((i*37+11)%101)/101
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return vm.GlobalArg(b)
}

func ints(n int) vm.Arg {
	b := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(i*7%13-4))
	}
	return vm.GlobalArg(b)
}

func TestInstructionCountsGolden(t *testing.T) {
	i, f := vm.IntArg, vm.FloatArg
	osemArgs := func(out, second int) []vm.Arg {
		// 4x4x4 voxels, 40 events of 8 samples.
		return []vm.Arg{floats(out, 0.5, 2), floats(second, 0.5, 2), floats(40*6, 0, 4), i(40), i(4), i(4), i(4), i(8)}
	}
	cases := []struct {
		name, src, kernel     string
		args                  []vm.Arg
		global, offset, local int
		instr, prologue       uint64
	}{
		{"mandelbrot", mandelbrot.KernelSource, "mandelbrot",
			[]vm.Arg{floats(1280, 0, 0), i(40), i(25), i(1), i(2), f(-2), f(-1.25), f(3.0 / 40), f(2.5 / 50), i(64)},
			1280, 0, 256, 118389, 5},
		{"mandelblock", mandelbrot.PartitionedKernelSource, "mandelblock",
			[]vm.Arg{floats(896, 0, 0), i(48), i(20), f(-2), f(-1.25), f(3.0 / 48), f(2.5 / 20), i(64)},
			896, 128, 128, 111449, 7},
		{"heat.step", heat.KernelSource, "step",
			[]vm.Arg{floats(512, 0, 0), floats(512, 0, 1), i(32), i(16), i(0), f(0.1)}, 512, 0, 64, 7892, 16},
		{"cg.applyA", cgsolve.KernelSource, "applyA",
			[]vm.Arg{floats(600, 0, 0), floats(600, 0, 1), i(30), i(20), i(0)}, 600, 0, 100, 7836, 12},
		{"cg.axpy", cgsolve.KernelSource, "axpy",
			[]vm.Arg{floats(256, 0, 1), floats(256, 0, 1), i(16), i(16), f(0.5)}, 256, 0, 32, 1536, 0},
		{"cg.xpay", cgsolve.KernelSource, "xpay",
			[]vm.Arg{floats(192, 0, 1), floats(192, 0, 1), i(16), i(12), f(0.5)}, 192, 64, 192, 1152, 0},
		{"cg.dotrows", cgsolve.KernelSource, "dotrows",
			[]vm.Arg{floats(16, 0, 0), floats(16*24, 0, 1), floats(16*24, 0, 1), i(24), i(16)}, 16, 0, 8, 1984, 0},
		{"osem.forward", osem.KernelSource, "forward", osemArgs(64, 64), 64, 0, 32, 7252, 4},
		{"osem.backward", osem.KernelSource, "backward", osemArgs(64, 40), 64, 0, 16, 246875, 16},
		{"osem.update", osem.KernelSource, "update",
			[]vm.Arg{floats(64, 0, 1), floats(64, -1, 2), i(50)}, 64, 0, 64, 300, 0},
		{"osem.part.forward", osem.KernelSource, "forward", osemArgs(32, 64), 32, 8, 8, 5768, 8},
		{"osem.part.backward", osem.KernelSource, "backward", osemArgs(48, 40), 48, 16, 48, 185147, 4},
		{"osem.part.update", osem.KernelSource, "update",
			[]vm.Arg{floats(48, 0, 1), floats(48, -1, 2), i(60)}, 48, 16, 24, 247, 0},
		{"bench.mix", benchSource, "mix",
			[]vm.Arg{floats(256, 0, 1), floats(512, 0, 1), i(100), f(0.5)}, 256, 0, 64, 1280, 0},
		{"bench.blocksum", benchSource, "blocksum",
			[]vm.Arg{floats(4, 0, 0), floats(256, 0, 1), vm.LocalArg(4 * 64)}, 256, 0, 64, 10488, 0},
		{"bench.touch", benchSource, "touch", []vm.Arg{floats(208, 0, 0)}, 208, 0, 16, 416, 0},
		{"bench.axpb", benchSource, "axpb", []vm.Arg{ints(64), ints(64), i(3), i(50)}, 64, 0, 64, 278, 0},
	}
	for _, tc := range cases {
		prog, err := kernel.Compile(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fn, ok := prog.Kernel(tc.kernel)
		if !ok {
			t.Fatalf("%s: no kernel %s", tc.name, tc.kernel)
		}
		stats, err := vm.RunStats(vm.Launch{Prog: prog, Kernel: fn, Args: tc.args,
			GlobalSize: []int{tc.global}, GlobalOffset: []int{tc.offset}, LocalSize: []int{tc.local}, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if stats.Instructions != tc.instr || stats.PrologueInstructions != tc.prologue {
			t.Errorf("%s: %d instructions, %d of them once per group; recorded %d, %d",
				tc.name, stats.Instructions, stats.PrologueInstructions, tc.instr, tc.prologue)
		}
	}
}
