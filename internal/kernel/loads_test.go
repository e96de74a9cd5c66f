package kernel_test

import (
	"reflect"
	"testing"

	"dopencl/internal/kernel"
)

// TestLoads pins what the load analysis follows — helpers, scopes,
// negation and products with constants — and what it refuses: a
// loop-carried index, a value merged by ?:, anything but + - and * by a
// constant.
func TestLoads(t *testing.T) {
	prog, err := kernel.Compile(`
int up(const global int* in, int i, int w) { return in[i - w]; }
kernel void k(global int* out, const global int* in, int w, int h, int b) {
	int g = get_global_id(0);
	int i = -g * 2 + 3 * w;
	out[g] = in[i] + up(in, g + 1, w);
	{ int i = g - h; out[g] += in[i]; }
	out[g] += in[i * 4 - b];
	for (int k = 0; k < h; k++) { i += w; out[g] += in[i]; }
	out[g] += in[(h > 0) ? g : w];
	out[g] += in[g % w];
}`)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := prog.Kernel("k")
	form := func(gid, c int32, args ...int32) *kernel.Affine {
		return &kernel.Affine{Gid: gid, Const: c, Args: args}
	}
	want := []*kernel.Affine{
		form(-2, 0, 0, 0, 3, 0, 0),   // in[i]
		form(1, 1, 0, 0, -1, 0, 0),   // in[i - w] in up
		form(1, 0, 0, 0, 0, -1, 0),   // the inner i
		form(-8, 0, 0, 0, 12, 0, -1), // i * 4 - b
		nil, nil, nil,
	}
	loads := prog.Loads(fn, 1)
	if len(loads) != len(want) {
		t.Fatalf("%d loads from in, want %d", len(loads), len(want))
	}
	for n, ld := range loads {
		if !reflect.DeepEqual(ld.Index, want[n]) {
			t.Errorf("load %d (pc %d): index %+v, want %+v", n+1, ld.PC, ld.Index, want[n])
		}
	}
	if got := prog.Loads(fn, 0); len(got) != 5 {
		t.Errorf("%d loads from out, want the 5 of its compound assignments", len(got))
	}
}
