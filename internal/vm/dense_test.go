package vm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Tests for the dense runs of fused.go: a running set that is one run of
// lanes executes its steps, branch counts and unit-stride accesses over
// slices of the rows instead of through its lane list. Whether a set is a
// run depends on which lanes a branch left running, so every kernel here
// is held against the AST oracle and the unoptimized plan with sets that
// are runs starting at lane 0 and elsewhere, sets with a gap, and accesses
// that are and are not unit-stride.

// denseInput returns n words of deterministic pseudo-random ints in
// -1000..999.
func denseInput(n int) []int32 {
	r := rand.New(rand.NewSource(int64(n)))
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = int32(r.Intn(2000) - 1000)
	}
	return vs
}

// denseFloats returns n float32 values in -4..4, negative zero among them.
func denseFloats(n int) []float32 {
	vs := make([]float32, n)
	for i, v := range denseInput(n) {
		vs[i] = float32(v) / 250
	}
	vs[n/2] = float32(math.Copysign(0, -1))
	return vs
}

// TestDenseRunsAcrossEngines runs kernels whose branches leave runs that
// start past lane 0, sets with gaps and shrinking loop sets, with unit,
// strided, reversed and gathered accesses and a local-memory arena, over
// group sizes that fill a strip, leave a last strip of 36 or are 48.
func TestDenseRunsAcrossEngines(t *testing.T) {
	cases := []struct{ name, src string }{
		{
			// The set that survives the branch is lanes 5.. of every strip,
			// a run that does not start at lane 0; the other side is 0..4.
			name: "run-not-at-lane-0",
			src: `kernel void k(global int* o, const global int* in) {
	int gid = get_global_id(0) - get_global_offset(0);
	int lid = get_local_id(0);
	int v = in[gid];
	if (lid % 64 >= 5) {
		v = v * 3 + lid;
		o[gid] = v;
	} else {
		o[gid] = 0 - v;
	}
	o[gid + get_global_size(0)] = v + 1;
}`,
		},
		{
			// A set with a gap: one lane, then every fourth lane, sits out.
			// Running either set densely would overwrite the registers of
			// the lanes it does not hold.
			name: "sets-with-gaps",
			src: `kernel void k(global int* o, const global int* in) {
	int gid = get_global_id(0) - get_global_offset(0);
	int v = in[gid];
	int w = v;
	if (gid != 37) {
		v = v * 5 + 1;
	}
	if (gid % 4 != 2) {
		w = w - v;
	}
	o[gid] = v;
	o[gid + get_global_size(0)] = w;
}`,
		},
		{
			// The compare of each loop branch is written and counted in one
			// pass, including the iterations where the run has shrunk.
			name: "loop-exits-shrink-the-run",
			src: `kernel void k(global int* o, const global int* in) {
	int gid = get_global_id(0) - get_global_offset(0);
	int v = in[gid];
	int i = 0;
	while (i < (gid & 15) && v != 7 && v > -9000) {
		v = v + (v >> 2) + i;
		i = i + 1;
	}
	o[gid] = v;
	o[gid + get_global_size(0)] = i;
}`,
		},
		{
			name: "non-unit-strides",
			src: `kernel void k(global int* o, const global int* in) {
	int gid = get_global_id(0) - get_global_offset(0);
	int n = get_global_size(0);
	int a = in[2 * gid];
	int b = in[n - 1 - gid];
	int c = in[(gid * 7) & (n - 1)];
	o[2 * gid] = a + b;
	o[2 * gid + 1] = c;
	o[2 * n + n - 1 - gid] = a - c;
}`,
		},
		{
			// A load whose destination is its own index register, once as
			// a unit-stride run and once gathered.
			name: "load-into-its-index",
			src: `kernel void k(global int* o, const global int* in) {
	int gid = get_global_id(0) - get_global_offset(0);
	int j = gid;
	j = in[j];
	int g = (gid * 5) & (get_global_size(0) - 1);
	g = in[g];
	o[gid] = j;
	o[gid + get_global_size(0)] = g;
}`,
		},
		{
			name: "local-arena",
			src: `kernel void k(global int* o, const global int* in, local int* s) {
	int gid = get_global_id(0) - get_global_offset(0);
	int lid = get_local_id(0);
	int lsz = get_local_size(0);
	s[lid] = in[gid];
	barrier(CLK_LOCAL_MEM_FENCE);
	int v = s[(lid + 1) % lsz] + s[lid];
	barrier(CLK_LOCAL_MEM_FENCE);
	s[lsz - 1 - lid] = v;
	barrier(CLK_LOCAL_MEM_FENCE);
	o[gid] = s[lid];
}`,
		},
	}
	shapes := []launchShape{
		{global: []int{128}, local: []int{64}},
		{global: []int{96}, local: []int{48}},
		{global: []int{256}, local: []int{128}},
		{global: []int{200}, local: []int{100}}, // a last strip of 36
		{global: []int{128}, offset: []int{3}, local: []int{32}},
	}
	for _, tc := range cases {
		for si, sh := range shapes {
			t.Run(fmt.Sprintf("%s/shape%d", tc.name, si), func(t *testing.T) {
				n := sh.global[0]
				in := intsToBytes(denseInput(2 * n))
				mk := func() []Arg {
					args := []Arg{GlobalArg(make([]byte, 4*3*n)), GlobalArg(append([]byte(nil), in...))}
					if tc.name == "local-arena" {
						args = append(args, LocalArg(4*sh.local[0]))
					}
					return args
				}
				if _, err := crossCheck(t, tc.src, "k", mk, sh, 2); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestDenseFloatStepsAcrossEngines holds the float32 view of a run's rows
// to the per-lane bit casts: a heat-shaped stencil whose edge branch
// leaves interior runs that start past lane 0 and end before the strip's
// last lane.
func TestDenseFloatStepsAcrossEngines(t *testing.T) {
	src := `kernel void k(global float* o, const global float* in, int w, float alpha) {
	int gid = get_global_id(0);
	int x = gid % w;
	float c = in[gid];
	if (x == 0 || x == w - 1) {
		o[gid] = c;
		return;
	}
	float m = in[gid - 1] + in[gid + 1];
	int q = (int)(m * 4.0);
	o[gid] = c + alpha * (m - 2.0 * c) / (1.0 + c * c) + (float)q;
	if (m < c) {
		o[gid] = c - m;
	}
}`
	for _, c := range []struct{ global, local, w int }{
		{256, 64, 64}, {240, 48, 48}, {300, 100, 100}, {256, 64, 16},
	} {
		sh := launchShape{global: []int{c.global}, local: []int{c.local}}
		in := floatsToBytes(denseFloats(c.global))
		mk := func() []Arg {
			return []Arg{GlobalArg(make([]byte, 4*c.global)), GlobalArg(append([]byte(nil), in...)),
				IntArg(int32(c.w)), FloatArg(0.2)}
		}
		if _, err := crossCheck(t, src, "k", mk, sh, 1); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
	}
}

// TestDenseWindowTrapsAcrossEngines runs unit-stride accesses whose window
// runs off either end of a buffer inside a run: the dense block must
// refuse the window, so that the lanes trap as one at a time would — the
// same text, naming the lowest item's index, and the same stores from the
// items below it.
func TestDenseWindowTrapsAcrossEngines(t *testing.T) {
	cases := []struct {
		name, src, want string
		global, local   int
		// same lists, per buffer argument, the words [lo, hi) that items
		// below the trapping one wrote or left alone: items above it may
		// still store in the oracle, which runs every item to its end.
		same [][2]int
	}{
		{
			name: "store-off-the-top",
			src: `kernel void k(global int* o, global int* t) {
	int gid = get_global_id(0);
	o[gid] = gid + 1;
	if (gid >= 5) { t[gid + 20] = gid; }
}`,
			want:   "vm: kernel k: buffer index 64 out of range (buffer has 64 elements)",
			global: 64, local: 64,
			same: [][2]int{{0, 64}, {0, 64}},
		},
		{
			name: "store-off-the-bottom",
			src: `kernel void k(global int* o, global int* t) {
	int gid = get_global_id(0);
	o[gid] = gid + 1;
	if (gid >= 5) { t[gid - 9] = gid; } else { t[gid + 100] = gid; }
}`,
			want:   "vm: kernel k: buffer index -4 out of range (buffer has 128 elements)",
			global: 64, local: 64,
			same: [][2]int{{0, 64}, {64, 128}},
		},
		{
			name: "load-off-the-top",
			src: `kernel void k(global int* o, global int* t) {
	int gid = get_global_id(0);
	if (gid >= 3) { o[gid] = t[gid + 30] + 1; } else { o[gid] = 0 - gid; }
}`,
			want:   "vm: kernel k: buffer index 64 out of range (buffer has 64 elements)",
			global: 64, local: 64,
			same: [][2]int{{0, 34}, {0, 64}},
		},
		{
			name: "load-off-the-bottom",
			src: `kernel void k(global int* o, global int* t) {
	int gid = get_global_id(0);
	if (gid >= 6) { o[gid] = t[gid - 10]; } else { o[gid] = gid + 7; }
}`,
			want:   "vm: kernel k: buffer index -4 out of range (buffer has 64 elements)",
			global: 64, local: 64,
			same: [][2]int{{0, 6}, {0, 64}},
		},
		{
			// The first strip stores its whole window as a block; the
			// partial second strip runs off the top at item 92.
			name: "store-off-the-top-in-a-partial-strip",
			src: `kernel void k(global int* o, global int* t) {
	int gid = get_global_id(0);
	o[gid] = gid + 1;
	t[gid + 8] = gid;
}`,
			want:   "vm: kernel k: buffer index 100 out of range (buffer has 100 elements)",
			global: 100, local: 100,
			same: [][2]int{{0, 92}, {0, 100}},
		},
		{
			name: "load-off-the-top-with-local-size-48",
			src: `kernel void k(global int* o, global int* t) {
	int gid = get_global_id(0);
	if (gid % 48 != 0) { o[gid] = t[gid + 60]; } else { o[gid] = 1; }
}`,
			want:   "vm: kernel k: buffer index 96 out of range (buffer has 96 elements)",
			global: 96, local: 48,
			same: [][2]int{{0, 36}, {0, 96}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			windowTrap(t, tc.src, tc.want, tc.global, tc.local, tc.same)
		})
	}
}

// windowTrap runs kernel k of src over global items in groups of local on
// one worker, its arguments an output of global words and an input of
// same[1][1] words, three ways: each must trap with want, and the words
// [lo, hi) that same lists per argument must agree.
func windowTrap(t *testing.T, src, want string, global, local int, same [][2]int) {
	t.Helper()
	words := []int{global, same[1][1]}
	mk := func() []Arg {
		return []Arg{GlobalArg(make([]byte, 4*words[0])),
			GlobalArg(intsToBytes(denseInput(words[1])))}
	}
	p := compile(t, src)
	fn := kernelFn(t, p, "k")
	sh := []int{global}
	run := func(unoptimized bool) ([]Arg, error) {
		args := mk()
		return args, Run(Launch{Prog: p, Kernel: fn, Args: args, GlobalSize: sh,
			LocalSize: []int{local}, Workers: 1, Unoptimized: unoptimized})
	}
	opt, err := run(false)
	if errText(err) != want {
		t.Fatalf("optimized plan: trap %q, want %q", errText(err), want)
	}
	ref, refErr := run(true)
	ast := mk()
	astErr := oracleRun(src, "k", ast, sh, nil, []int{local})
	for _, other := range []struct {
		name string
		args []Arg
		err  error
	}{{"unoptimized plan", ref, refErr}, {"AST oracle", ast, astErr}} {
		if errText(other.err) != want {
			t.Fatalf("%s: trap %q, want %q", other.name, errText(other.err), want)
		}
		for ai, w := range same {
			got, want := bytesToInts(opt[ai].Global)[w[0]:w[1]], bytesToInts(other.args[ai].Global)[w[0]:w[1]]
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("argument %d word %d: optimized plan %d, %s %d",
						ai, w[0]+i, got[i], other.name, want[i])
				}
			}
		}
	}
}
