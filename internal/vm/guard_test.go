package vm

import (
	"bytes"
	"fmt"
	"testing"

	"dopencl/internal/apps/heat"
	"dopencl/internal/kernel"
)

// Tests for position guards: a branch whose condition depends only on
// where an item is, decided in closed form once for the strips of a row
// that lie in one period of its div/mod pairs. Every kernel here
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

// guardCounts runs the launch on one runner of the optimized plan and
// returns how often a position guard evaluated its slice in closed form,
// how often it fell into the slice, and how many strips ran.
func guardCounts(t *testing.T, l Launch) (evals, sliced, strips int) {
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
	return int(r.evals), int(r.sliced), groups * d.itemsPerGroup / d.local[0] * perRow
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

// TestPositionGuardDecisions pins which strips the closed form decides,
// and how often it is evaluated: the boundary test of a row of 256 on
// every strip, once per row of the group; of a row of 64 on every strip,
// once per strip, since each strip ends a period; of a row of 48 on none,
// since every strip crosses a row; of a row of 63 in groups of four rows
// on all but the last strip of a group, whose 60 lanes end where the row
// does; a bound on an induction that leaves int32 inside a strip on that
// strip only; an && whose term is a uniform !x, a flag the prologue
// computes, on every strip.
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
		name, src             string
		w, h, local           int
		evals, sliced, strips int
	}{
		{"row-of-256", boundary, 256, 8, 256, 8, 0, 32},
		{"row-of-64", boundary, 64, 8, 128, 8, 0, 8},
		{"row-of-48", boundary, 48, 8, 192, 6, 6, 6},
		{"row-of-63", boundary, 63, 8, 252, 8, 6, 8},
		// The strip at item 64 passes 2^31 - 1 at lane 21.
		{"end-lane-out-of-int32", overflow, 2147483647 - 65536*84, 1, 64, 4, 1, 4},
		{"and-a-uniform-not", uniformNot, 100, 2, 64, 4, 0, 4},
	} {
		p := compile(t, tc.src)
		fn := kernelFn(t, p, "k")
		n := tc.w * tc.h
		if tc.src != boundary {
			n = 256
		}
		l := Launch{Prog: p, Kernel: fn, GlobalSize: []int{n}, LocalSize: []int{tc.local},
			Args: []Arg{GlobalArg(make([]byte, 4*n)), IntArg(int32(tc.w)), IntArg(int32(tc.h))}}
		if evals, sliced, strips := guardCounts(t, l); evals != tc.evals || sliced != tc.sliced || strips != tc.strips {
			t.Errorf("%s: %d evaluations, %d of %d strips fell into the slice, want %d, %d of %d",
				tc.name, evals, sliced, strips, tc.evals, tc.sliced, tc.strips)
		}
	}
}

// TestHeatStepGuardDecidedPerStrip pins the case the guards are for:
// heat's boundary test on a 256x256 grid is decided on every strip, with
// one evaluation per row of 256 (four strips); on a grid 48 wide, where
// strips cross rows, every strip runs the slice, which reads the rows of
// heat's guard-only div/mod pair that the runner fills only there. The
// results must be the unoptimized plan's.
func TestHeatStepGuardDecidedPerStrip(t *testing.T) {
	p := compile(t, heat.KernelSource)
	fn := kernelFn(t, p, heat.StepKernel)
	if dm := p.WorkGroup(fn).DivMod; len(dm) != 1 || !dm[0].GuardOnly {
		t.Fatalf("heat.step's div/mod pair is not guard-only:\n%s", p.WorkGroup(fn).Disassemble())
	}
	for _, tc := range []struct {
		w, h                  int
		evals, sliced, strips int
	}{{256, 256, 256, 0, 1024}, {48, 64, 48, 48, 48}} {
		n := tc.w * tc.h
		args := func() []Arg {
			return []Arg{GlobalArg(make([]byte, 4*n)), GlobalArg(floatsToBytes(denseFloats(n))),
				IntArg(int32(tc.w)), IntArg(int32(tc.h)), IntArg(0), FloatArg(0.1)}
		}
		l := Launch{Prog: p, Kernel: fn, GlobalSize: []int{n}, Args: args()}
		if evals, sliced, strips := guardCounts(t, l); evals != tc.evals || sliced != tc.sliced || strips != tc.strips {
			t.Errorf("%dx%d: %d evaluations, %d of %d strips ran the slice, want %d, %d of %d",
				tc.w, tc.h, evals, sliced, strips, tc.evals, tc.sliced, tc.strips)
		}
		ref := Launch{Prog: p, Kernel: fn, GlobalSize: []int{n}, Args: args(), Unoptimized: true}
		if err := Run(ref); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(l.Args[0].Global, ref.Args[0].Global) {
			t.Errorf("%dx%d: the output differs from the unoptimized plan's", tc.w, tc.h)
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

// TestPositionGuardRows holds decisions that cover several strips of a
// row to the unoptimized plan and the AST oracle: groups of 256 on grids
// 256, 128 and 192 wide (a period ends at a strip boundary), 160, 100, 127
// and 191 wide (it ends inside one), behind offsets 5, 7, 64 and 382;
// groups of 512, a row longer than one decision; a guard that only the
// third strip of a row reaches, under an if on loaded data; a guard inside
// a loop, visited again on the same strip; and a 2-D range in groups of
// (64, 4) whose guard reads get_global_id(1), so that each row of a group
// decides anew. The boundary test is written twice: once with col and row
// read only by the guard (a guard-only pair, whose rows the runner fills
// only on strips that run the slice) and once also read by the body.
func TestPositionGuardRows(t *testing.T) {
	const test = `if (x == 0 || x == w - 1 || y == 0 || y == h - 1)`
	kernelOf := func(body string) string {
		return `kernel void k(global int* o, const global int* in, int w, int h) {
	int g = get_global_id(0);
	int x = g % w;
	int y = g / w;
	int l = g - get_global_offset(0);
	` + body + `
}`
	}
	guardOnly := kernelOf(test + ` { o[l] = in[l] + 1000; return; }
	o[l] = in[l] * 3 + l;`)
	bodyReads := kernelOf(test + ` { o[l] = in[l] + 1000; return; }
	o[l] = in[l] * 3 + x - y;`)
	thirdStrip := kernelOf(`int s = in[l];
	if (s == 7) { ` + test + ` { s = 1000; } else { s = -1000; } }
	o[l] = s;`)
	inALoop := kernelOf(`int s = 0;
	for (int i = 0; i < (in[l] & 3) + 1; i++) { ` + test + ` { s = s + i + 1; } else { s = s - 1; } }
	o[l] = s;`)
	twoD := `kernel void k(global int* o, const global int* in, int w, int h) {
	int x = get_global_id(0);
	int y = get_global_id(1);
	int l = (y - get_global_offset(1)) * get_global_size(0) + x - get_global_offset(0);
	if (x == w || y == h || x + y == w + h) { o[l] = in[l] + 1000; } else { o[l] = in[l] * 3; }
}`
	for _, tc := range []struct {
		src       string
		guardOnly bool
	}{{guardOnly, true}, {bodyReads, false}, {thirdStrip, true}, {inALoop, true}} {
		p := compile(t, tc.src)
		w := p.WorkGroup(kernelFn(t, p, "k"))
		if len(w.DivMod) != 1 || w.DivMod[0].GuardOnly != tc.guardOnly || guards(t, tc.src) != 1 {
			t.Fatalf("want one guard and one div/mod pair, guard-only %v:\n%s", tc.guardOnly, w.Disassemble())
		}
	}
	if guards(t, twoD) != 1 {
		t.Fatalf("no position guard in the 2-D kernel")
	}
	run := func(name, src string, sh launchShape, w, h int32, in []int32) {
		t.Run(fmt.Sprintf("%s/%v+%v/%v/w=%d,h=%d", name, sh.global, sh.offset, sh.local, w, h), func(t *testing.T) {
			n := len(in)
			mk := func() []Arg {
				return []Arg{GlobalArg(make([]byte, 4*n)), GlobalArg(intsToBytes(in)), IntArg(w), IntArg(h)}
			}
			if _, err := crossCheck(t, src, "k", mk, sh, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, local := range []int{256, 512} {
		n := 6 * local
		widths := map[int][]int32{256: {256, 128, 192, 160, 100, 127, 191}, 512: {512, 256, 300, 100}}[local]
		for _, w := range widths {
			for _, off := range []int{0, 5, 7, 64, 382} {
				sh := launchShape{global: []int{n}, offset: []int{off}, local: []int{local}}
				h := int32((off+n)/int(w)) - 1
				run("guard-only", guardOnly, sh, w, h, denseInput(n))
				run("body-reads", bodyReads, sh, w, h, denseInput(n))
			}
		}
	}
	// In the third strip of each row of 256 alone, in[l] is 7.
	third := denseInput(1536)
	for l := range third {
		if third[l] = max(third[l], 8); l%256 >= 128 && l%256 < 192 {
			third[l] = 7
		}
	}
	for _, w := range []int32{256, 128, 100} {
		for _, off := range []int{0, 5} {
			sh := launchShape{global: []int{1536}, offset: []int{off}, local: []int{256}}
			run("third-strip", thirdStrip, sh, w, int32((off+1536)/int(w))-1, third)
			run("in-a-loop", inALoop, sh, w, int32((off+1536)/int(w))-1, denseInput(1536))
		}
	}
	for _, off := range [][]int{{0, 0}, {64, 3}, {5, 1}} {
		sh := launchShape{global: []int{128, 8}, offset: off, local: []int{64, 4}}
		for _, wh := range [][2]int32{{70, 2}, {100, 5}, {3, 130}} {
			run("2-d-reads-gid1", twoD, sh, wh[0], wh[1], denseInput(1024))
		}
	}
}
