package vm

import (
	"fmt"
	"testing"
)

// Tests for index-only inductions: an induction (or gid0, or lid0) that a
// plan reads only as the plain index of an access has no row, and an
// access through it computes lane l's index as base + l*step. Every kernel
// here is held against the unoptimized plan and the AST oracle, and must
// have the index-only inductions it is written to have, so that the tests
// run the path they are about.

// indexOnly counts the index-only inductions of kernel k's plan, and gid0
// and lid0 if they are index-only.
func indexOnly(t *testing.T, src string) int {
	t.Helper()
	p := compile(t, src)
	w := p.WorkGroup(kernelFn(t, p, "k"))
	n := 0
	for _, a := range w.Affine {
		if a.IndexOnly {
			n++
		}
	}
	for _, id := range w.IndexOnlyIDs {
		if id {
			n++
		}
	}
	return n
}

// TestIndexOnlyInductionsAcrossEngines runs index-only accesses of more
// inductions than the six a cap once allowed, of steps 1, 3, -1 and a step
// that is 0 at run time, and through a set with gaps left by a divergent
// if, over whole and partial last strips, a global offset and 2-D ranges.
func TestIndexOnlyInductionsAcrossEngines(t *testing.T) {
	cases := []struct {
		name, src string
		min       int  // index-only inductions the plan must have
		twoD      bool // it runs on 2-D ranges: no two items store to one word
	}{
		{
			name: "more-than-six",
			src: `kernel void k(global int* o, const global int* in, int w, int z) {
	int g = get_global_id(0) - get_global_offset(0);
	int n = get_global_size(0);
	o[g] = in[g] + in[g + 1] + in[g + 2] + in[g + 3] + in[g + w] + in[g + w + 1];
	o[g + n] = in[g + 2 * w] - in[g + 2 * w + 3] + in[g + 5];
}`,
			min: 10,
		},
		{
			name: "steps-3-minus-1-and-0",
			src: `kernel void k(global int* o, const global int* in, int w, int z) {
	int g = get_global_id(0) - get_global_offset(0);
	int n = get_global_size(0);
	o[3 * g] = in[3 * g + 1];
	o[4 * n - 1 - g] = in[n - 1 - g];
	o[4 * n + g] = in[g * z + w];
	o[7 * n + g] = in[g * z + 2] + in[2 * g - g * z];
}`,
			min: 8,
		},
		{
			// v % 3 leaves sets with gaps, which access through the
			// inductions lane by lane.
			name: "gapped-set-under-an-if",
			src: `kernel void k(global int* o, const global int* in, int w, int z) {
	int g = get_global_id(0) - get_global_offset(0);
	int v = in[g + 1];
	if (v % 3 != 0) {
		o[g + 2] = in[2 * g] + v;
	} else {
		o[g + 2] = 0 - in[g + w];
		o[2 * get_global_size(0) + 5 * g] = v;
	}
}`,
			min: 5,
		},
		{
			// gid0 itself indexes, and lid0 does.
			name: "gid0-and-lid0",
			src: `kernel void k(global int* o, const global int* in, int w, int z) {
	o[get_global_id(0)] = in[get_local_id(0)] + in[get_global_id(0) + w];
}`,
			min: 3,
		},
		{
			// The rows of a 2-D group load through the inductions of g,
			// which stores at a row of its own (and so has a row).
			name: "rows-of-a-2-d-range",
			src: `kernel void k(global int* o, const global int* in, int w, int z) {
	int g = get_global_id(0) - get_global_offset(0);
	int y = get_global_id(1) - get_global_offset(1);
	o[g + y * get_global_size(0)] = in[g + 1] - in[g + w] * in[2 * g + z];
}`,
			min:  3,
			twoD: true,
		},
	}
	shapes := []launchShape{
		{global: []int{128}, local: []int{64}},
		{global: []int{200}, local: []int{100}}, // a last strip of 36
		{global: []int{96}, offset: []int{5}, local: []int{48}},
		{global: []int{64, 3}, local: []int{32, 3}},
		{global: []int{48, 4}, offset: []int{2, 1}, local: []int{24, 2}},
	}
	for _, tc := range cases {
		if got := indexOnly(t, tc.src); got < tc.min {
			t.Fatalf("%s: %d index-only inductions, want at least %d", tc.name, got, tc.min)
		}
		for si, sh := range shapes {
			if len(sh.global) > 1 && !tc.twoD {
				continue
			}
			for _, z := range []int32{0, 2} {
				t.Run(fmt.Sprintf("%s/shape%d/z%d", tc.name, si, z), func(t *testing.T) {
					n := sh.global[0] + 8
					in := intsToBytes(denseInput(4 * n))
					mk := func() []Arg {
						return []Arg{GlobalArg(make([]byte, 4*8*n)), GlobalArg(append([]byte(nil), in...)),
							IntArg(7), IntArg(z)}
					}
					if _, err := crossCheck(t, tc.src, "k", mk, sh, 1); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestIndexOnlyWindowTrapsAcrossEngines runs index-only accesses whose
// window runs off an end of the buffer in the middle of a strip: the lanes
// must trap as one at a time would, at the same item with the same text,
// after the same stores from the items below it.
func TestIndexOnlyWindowTrapsAcrossEngines(t *testing.T) {
	cases := []struct {
		name, src, want string
		same            [][2]int
	}{
		{
			name: "unit-step-store-off-the-top",
			src: `kernel void k(global int* o, global int* t) {
	int g = get_global_id(0);
	o[g] = g + 1;
	t[g + 30] = 5;
}`,
			want: "vm: kernel k: buffer index 120 out of range (buffer has 120 elements)",
			same: [][2]int{{0, 128}, {0, 120}},
		},
		{
			name: "unit-step-load-off-the-top",
			src: `kernel void k(global int* o, global int* t) {
	int g = get_global_id(0);
	o[g] = t[g + 50];
}`,
			want: "vm: kernel k: buffer index 150 out of range (buffer has 150 elements)",
			same: [][2]int{{0, 100}, {0, 150}},
		},
		{
			name: "step-minus-1-load-off-the-bottom",
			src: `kernel void k(global int* o, global int* t) {
	int g = get_global_id(0);
	o[g] = t[70 - g];
}`,
			want: "vm: kernel k: buffer index -1 out of range (buffer has 128 elements)",
			same: [][2]int{{0, 71}, {0, 128}},
		},
		{
			name: "step-3-store-off-the-top",
			src: `kernel void k(global int* o, global int* t) {
	int g = get_global_id(0);
	o[g] = g;
	t[3 * g + 1] = g;
}`,
			want: "vm: kernel k: buffer index 202 out of range (buffer has 200 elements)",
			same: [][2]int{{0, 128}, {0, 200}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if indexOnly(t, tc.src) == 0 {
				t.Fatalf("no index-only induction in the plan")
			}
			windowTrap(t, tc.src, tc.want, 128, 128, tc.same)
		})
	}
}
