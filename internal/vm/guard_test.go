package vm

import (
	"fmt"
	"testing"

	"dopencl/internal/apps/heat"
	"dopencl/internal/kernel"
)

// Tests for position guards: a branch whose condition depends only on
// where an item is, decided per strip in closed form. Every kernel here
// is held against the unoptimized plan and the AST oracle, over shapes
// where the closed form decides every strip, some or none, and must have
// the guards it is written to have, so that the tests run the path they
// are about.

// guards counts the position guards of kernel k's plan.
func guards(t *testing.T, src string) int {
	t.Helper()
	p := compile(t, src)
	n := 0
	for _, ins := range p.WorkGroup(kernelFn(t, p, "k")).Code {
		if ins.Op == kernel.RGuard {
			n++
		}
	}
	return n
}

// slicedStrips runs the launch on one runner of the optimized plan and
// returns how often a position guard fell into its slice, and how many
// strips ran.
func slicedStrips(t *testing.T, l Launch) (sliced, strips int) {
	t.Helper()
	d := new(dispatch)
	groups, err := prepare(d, l.Prog, l.Kernel, l.Args, l.GlobalSize, l.GlobalOffset, l.LocalSize)
	if err != nil {
		t.Fatal(err)
	}
	r := newPlanRunner(d, l.Prog.WorkGroup(l.Kernel))
	for g := 0; g < groups; g++ {
		if err := r.runGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	perRow := (d.local[0] + laneWidth - 1) / laneWidth
	return int(r.sliced), groups * d.itemsPerGroup / d.local[0] * perRow
}

// TestPositionGuardsAcrossEngines runs position guards over strips the
// closed form decides and strips it leaves to the slice: a stencil's
// boundary test on rows of 256 (every strip inside one row), 64 (a strip
// is a row), 63, 65 and 48 (strips cross rows) and behind offsets that
// misalign the strips; && and || chains and lt/le/gt/ge/eq/ne bounds on
// inductions of step 3 and -1; a 2-D range whose condition reads
// get_global_id(1); conditions whose end lanes leave int32; and guards
// inside a loop the items leave at different times and inside an if, so
// that the running set is not the whole strip.
func TestPositionGuardsAcrossEngines(t *testing.T) {
	cases := []struct {
		name, src string
		guards    int
		shapes    []launchShape
		ints      [][2]int32
	}{
		{
			name: "boundary",
			src: `kernel void k(global int* o, const global int* in, int w, int h) {
	int g = get_global_id(0);
	int x = g % w;
	int y = g / w;
	int l = g - get_global_offset(0);
	if (x == 0 || x == w - 1 || y == 0 || y == h - 1) {
		o[l] = in[l] + 1000;
		return;
	}
	o[l] = in[l] * 3 + x - y;
}`,
			guards: 1,
			shapes: []launchShape{
				{global: []int{1536}, local: []int{256}},
				{global: []int{1536}, offset: []int{5}, local: []int{256}},
				{global: []int{1536}, offset: []int{64}, local: []int{128}},
				{global: []int{600}, offset: []int{7}, local: []int{100}},
			},
			ints: [][2]int32{{256, 6}, {64, 24}, {63, 24}, {65, 23}, {48, 32}},
		},
		{
			name: "chains-on-steps-3-and-minus-1",
			src: `kernel void k(global int* o, const global int* in, int a, int b) {
	int g = get_global_id(0);
	int t = 3 * g + a;
	int u = b - g;
	int s = 0;
	if (t >= 40 && t < 170 && u > 7) { s = s + 1; }
	if (u <= 20 || t == 61 || u == b - 9) { s = s + 10; }
	if (t > 95 && u != 30 && g - 3 >= a) { s = s + 100; }
	if (g > 20 && !(b & 1) || u < a) { s = s + 1000; }
	o[g - get_global_offset(0)] = s + t - u;
}`,
			guards: 4,
			shapes: []launchShape{
				{global: []int{128}, local: []int{64}},
				{global: []int{200}, local: []int{100}},
				{global: []int{96}, offset: []int{5}, local: []int{48}},
			},
			ints: [][2]int32{{0, 50}, {1, 200}, {-5, 90}},
		},
		{
			name: "2-d-reads-gid1",
			src: `kernel void k(global int* o, const global int* in, int a, int b) {
	int x = get_global_id(0) - get_global_offset(0);
	int y = get_global_id(1);
	int n = get_global_size(0);
	if (y == 2 || x < y + a) { o[(y - get_global_offset(1)) * n + x] = x - y; }
	else { o[(y - get_global_offset(1)) * n + x] = x + y * b; }
}`,
			guards: 1,
			shapes: []launchShape{
				{global: []int{64, 3}, local: []int{32, 3}},
				{global: []int{48, 4}, offset: []int{2, 1}, local: []int{24, 2}},
				{global: []int{128, 4}, local: []int{128, 2}},
			},
			ints: [][2]int32{{3, 100}, {40, 7}},
		},
		{
			// a + 65536*g leaves int32 inside a strip for the a given;
			// so does x * 40000000 for x = g % w past 53.
			name: "end-lane-out-of-int32",
			src: `kernel void k(global int* o, const global int* in, int a, int w) {
	int g = get_global_id(0);
	int v = g * 65536 + a;
	int x = g % w;
	int s = 0;
	if (v > 0) { s = 1; }
	if (x * 40000000 < 5) { s = s + 2; }
	o[g] = s;
}`,
			guards: 2,
			shapes: []launchShape{
				{global: []int{128}, local: []int{64}},
				{global: []int{256}, local: []int{128}},
			},
			ints: [][2]int32{{2147483647 - 65536*20, 100}, {-65536 * 40, 64}},
		},
		{
			// v % 3 leaves the guard under the if a set with gaps; v % 5
			// is each item's trip count, so the guard in the loop runs on
			// fewer lanes each time round.
			name: "in-a-loop-and-under-an-if",
			src: `kernel void k(global int* o, const global int* in, int a, int b) {
	int g = get_global_id(0);
	int v = in[g];
	int s = 0;
	if (v % 3 != 0) {
		if (g < a || g >= b) { s = s + 1; } else { s = s + 2; }
	}
	for (int i = 0; i < v % 5; i++) {
		if (g > a && g < b) { s = s + i; } else { s = s - 1; }
	}
	o[g] = s;
}`,
			guards: 2,
			shapes: []launchShape{
				{global: []int{128}, local: []int{64}},
				{global: []int{200}, local: []int{100}},
			},
			ints: [][2]int32{{40, 90}, {0, 64}, {70, 20}},
		},
	}
	for _, tc := range cases {
		if got := guards(t, tc.src); got != tc.guards {
			p := compile(t, tc.src)
			t.Fatalf("%s: %d position guards, want %d:\n%s", tc.name, got, tc.guards, p.WorkGroup(kernelFn(t, p, "k")).Disassemble())
		}
		for si, sh := range tc.shapes {
			for _, ab := range tc.ints {
				t.Run(fmt.Sprintf("%s/shape%d/%d,%d", tc.name, si, ab[0], ab[1]), func(t *testing.T) {
					n := 1
					for _, g := range sh.global {
						n *= g
					}
					in := intsToBytes(denseInput(n + 8))
					mk := func() []Arg {
						return []Arg{GlobalArg(make([]byte, 4*n)), GlobalArg(append([]byte(nil), in...)),
							IntArg(ab[0]), IntArg(ab[1])}
					}
					if _, err := crossCheck(t, tc.src, "k", mk, sh, 1); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestPositionGuardDecisions pins which strips the closed form decides:
// the boundary test of a row of 256 or 64 on every strip; of a row of 48
// on none, since every strip crosses a row; of a row of 63 in groups of
// four rows on all but the last strip of a group, whose 60 lanes end where
// the row does; a bound on an induction that leaves int32 inside a strip
// on that strip only; an && whose term is a uniform !x, a flag the
// prologue computes, on every strip.
func TestPositionGuardDecisions(t *testing.T) {
	boundary := `kernel void k(global int* o, int w, int h) {
	int g = get_global_id(0);
	int x = g % w;
	int y = g / w;
	if (x == 0 || x == w - 1 || y == 0 || y == h - 1) { o[g] = 1; return; }
	o[g] = 2;
}`
	overflow := `kernel void k(global int* o, int a, int h) {
	int g = get_global_id(0);
	if (g * 65536 + a > 0) { o[g] = 1; } else { o[g] = 2; }
}`
	uniformNot := `kernel void k(global int* o, int a, int h) {
	int g = get_global_id(0);
	if (g > a && !(h & 1)) { o[g] = 1; } else { o[g] = 2; }
}`
	for _, tc := range []struct {
		name, src      string
		w, h, local    int
		sliced, strips int
	}{
		{"row-of-256", boundary, 256, 8, 256, 0, 32},
		{"row-of-64", boundary, 64, 8, 128, 0, 8},
		{"row-of-48", boundary, 48, 8, 192, 6, 6},
		{"row-of-63", boundary, 63, 8, 252, 6, 8},
		// The strip at item 64 passes 2^31 - 1 at lane 21.
		{"end-lane-out-of-int32", overflow, 2147483647 - 65536*84, 1, 64, 1, 4},
		{"and-a-uniform-not", uniformNot, 100, 2, 64, 0, 4},
	} {
		p := compile(t, tc.src)
		fn := kernelFn(t, p, "k")
		n := tc.w * tc.h
		if tc.src != boundary {
			n = 256
		}
		l := Launch{Prog: p, Kernel: fn, GlobalSize: []int{n}, LocalSize: []int{tc.local},
			Args: []Arg{GlobalArg(make([]byte, 4*n)), IntArg(int32(tc.w)), IntArg(int32(tc.h))}}
		if sliced, strips := slicedStrips(t, l); sliced != tc.sliced || strips != tc.strips {
			t.Errorf("%s: %d of %d strips fell into the slice, want %d of %d", tc.name, sliced, strips, tc.sliced, tc.strips)
		}
	}
}

// TestHeatStepGuardDecidedPerStrip pins the case the guards are for:
// heat's boundary test on a 256x256 grid is decided on every strip, and on
// a grid 48 wide, where strips cross rows, runs its slice on every strip.
func TestHeatStepGuardDecidedPerStrip(t *testing.T) {
	p := compile(t, heat.KernelSource)
	fn := kernelFn(t, p, heat.StepKernel)
	for _, tc := range []struct {
		w, h int
		all  bool
	}{{256, 256, false}, {48, 64, true}} {
		n := tc.w * tc.h
		l := Launch{Prog: p, Kernel: fn, GlobalSize: []int{n}, Args: []Arg{GlobalArg(make([]byte, 4*n)),
			GlobalArg(make([]byte, 4*n)), IntArg(int32(tc.w)), IntArg(int32(tc.h)), IntArg(0), FloatArg(0.1)}}
		sliced, strips := slicedStrips(t, l)
		if want := map[bool]int{false: 0, true: strips}[tc.all]; sliced != want || strips == 0 {
			t.Errorf("%dx%d: %d of %d strips ran the slice, want %d", tc.w, tc.h, sliced, strips, want)
		}
	}
}

// TestPositionGuardTrapParity splits a strip at a position guard whose
// two sides both trap: the side that runs first traps at the lower item in
// one kernel and at the higher in the other, and each engine must report
// the lowest item's trap with the same text, after the same stores below
// it.
func TestPositionGuardTrapParity(t *testing.T) {
	for _, tc := range []struct {
		name, src, want string
		same            [][2]int
	}{
		{
			name: "first-side-traps-lower",
			src: `kernel void k(global int* o, global int* t) {
	int g = get_global_id(0);
	if (g < 30) { o[g] = t[g + 80]; } else { o[g] = t[2 * g]; }
}`,
			want: "vm: kernel k: buffer index 100 out of range (buffer has 100 elements)",
			same: [][2]int{{0, 20}, {0, 100}},
		},
		{
			name: "second-side-traps-lower",
			src: `kernel void k(global int* o, global int* t) {
	int g = get_global_id(0);
	if (g >= 30) { o[g] = t[g + 60]; } else { o[g] = t[g + 90]; }
}`,
			want: "vm: kernel k: buffer index 100 out of range (buffer has 100 elements)",
			same: [][2]int{{0, 10}, {0, 100}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if guards(t, tc.src) != 1 {
				t.Fatalf("no position guard in the plan")
			}
			windowTrap(t, tc.src, tc.want, 64, 64, tc.same)
		})
	}
}
