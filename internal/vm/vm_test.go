package vm

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dopencl/internal/kernel"
)

func compile(t *testing.T, src string) *kernel.Program {
	t.Helper()
	p, err := kernel.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func kernelFn(t *testing.T, p *kernel.Program, name string) *kernel.Func {
	t.Helper()
	f, ok := p.Kernel(name)
	if !ok {
		t.Fatalf("kernel %s not found", name)
	}
	return f
}

func floatsToBytes(vs []float32) []byte {
	b := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return b
}

func bytesToFloats(b []byte) []float32 {
	vs := make([]float32, len(b)/4)
	for i := range vs {
		vs[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return vs
}

func intsToBytes(vs []int32) []byte {
	b := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	return b
}

func bytesToInts(b []byte) []int32 {
	vs := make([]int32, len(b)/4)
	for i := range vs {
		vs[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return vs
}

const vecAddSrc = `
kernel void vadd(global float* out, const global float* a, const global float* b, int n) {
	int i = get_global_id(0);
	if (i < n) {
		out[i] = a[i] + b[i];
	}
}
`

func TestVectorAdd(t *testing.T) {
	p := compile(t, vecAddSrc)
	fn := kernelFn(t, p, "vadd")

	n := 1000
	a := make([]float32, n)
	b := make([]float32, n)
	for i := range a {
		a[i] = float32(i)
		b[i] = float32(2 * i)
	}
	out := make([]byte, 4*n)
	err := Run(Launch{
		Prog: p, Kernel: fn,
		Args:       []Arg{GlobalArg(out), GlobalArg(floatsToBytes(a)), GlobalArg(floatsToBytes(b)), IntArg(int32(n))},
		GlobalSize: []int{n},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	res := bytesToFloats(out)
	for i := range res {
		if want := float32(3 * i); res[i] != want {
			t.Fatalf("out[%d] = %v, want %v", i, res[i], want)
		}
	}
}

func TestKernelArgInfo(t *testing.T) {
	p := compile(t, vecAddSrc)
	fn := kernelFn(t, p, "vadd")
	if len(fn.Args) != 4 {
		t.Fatalf("got %d args, want 4", len(fn.Args))
	}
	if fn.Args[0].ReadOnly || fn.Args[0].Kind != kernel.ArgGlobalBuf {
		t.Errorf("arg 0 should be writable global buffer: %+v", fn.Args[0])
	}
	if !fn.Args[1].ReadOnly || !fn.Args[2].ReadOnly {
		t.Errorf("const args should be read-only: %+v %+v", fn.Args[1], fn.Args[2])
	}
	if fn.Args[3].Kind != kernel.ArgScalarInt {
		t.Errorf("arg 3 should be scalar int: %+v", fn.Args[3])
	}
}

func TestControlFlowLoops(t *testing.T) {
	src := `
kernel void sums(global int* out, int n) {
	int i = get_global_id(0);
	int acc = 0;
	for (int k = 0; k <= i; k++) {
		if (k % 2 == 0) { acc += k; } else { acc -= k; }
	}
	int w = 0;
	while (w < 3) { acc++; w++; }
	out[i] = acc;
}
`
	p := compile(t, src)
	fn := kernelFn(t, p, "sums")
	n := 64
	out := make([]byte, 4*n)
	if err := Run(Launch{Prog: p, Kernel: fn,
		Args:       []Arg{GlobalArg(out), IntArg(int32(n))},
		GlobalSize: []int{n}}); err != nil {
		t.Fatalf("run: %v", err)
	}
	res := bytesToInts(out)
	for i := 0; i < n; i++ {
		acc := int32(0)
		for k := int32(0); k <= int32(i); k++ {
			if k%2 == 0 {
				acc += k
			} else {
				acc -= k
			}
		}
		acc += 3
		if res[i] != acc {
			t.Fatalf("out[%d] = %d, want %d", i, res[i], acc)
		}
	}
}

func TestHelperFunctionsAndCasts(t *testing.T) {
	src := `
float sq(float x) { return x * x; }
int twice(int x) { return x + x; }

kernel void mix(global float* out) {
	int i = get_global_id(0);
	float f = sq((float)i);
	out[i] = f + (float)twice(i);
}
`
	p := compile(t, src)
	fn := kernelFn(t, p, "mix")
	n := 32
	out := make([]byte, 4*n)
	if err := Run(Launch{Prog: p, Kernel: fn,
		Args: []Arg{GlobalArg(out)}, GlobalSize: []int{n}}); err != nil {
		t.Fatalf("run: %v", err)
	}
	res := bytesToFloats(out)
	for i := range res {
		want := float32(i)*float32(i) + float32(2*i)
		if res[i] != want {
			t.Fatalf("out[%d] = %v, want %v", i, res[i], want)
		}
	}
}

func TestBarrierReduction(t *testing.T) {
	// Classic work-group tree reduction through local memory: exercises
	// barriers and local buffers.
	src := `
kernel void reduce(global float* out, const global float* in, local float* scratch) {
	int lid = get_local_id(0);
	int gid = get_global_id(0);
	int lsz = get_local_size(0);
	scratch[lid] = in[gid];
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
		out[get_group_id(0)] = scratch[0];
	}
}
`
	p := compile(t, src)
	fn := kernelFn(t, p, "reduce")
	if !fn.HasBarrier {
		t.Fatal("HasBarrier not set")
	}
	const groups, local = 8, 64
	n := groups * local
	in := make([]float32, n)
	var want [groups]float32
	for i := range in {
		in[i] = float32(i % 17)
		want[i/local] += in[i]
	}
	out := make([]byte, 4*groups)
	if err := Run(Launch{Prog: p, Kernel: fn,
		Args:       []Arg{GlobalArg(out), GlobalArg(floatsToBytes(in)), LocalArg(4 * local)},
		GlobalSize: []int{n}, LocalSize: []int{local}}); err != nil {
		t.Fatalf("run: %v", err)
	}
	res := bytesToFloats(out)
	for gi := 0; gi < groups; gi++ {
		if res[gi] != want[gi] {
			t.Fatalf("group %d sum = %v, want %v", gi, res[gi], want[gi])
		}
	}
}

func TestBarrierDivergenceDetected(t *testing.T) {
	src := `
kernel void diverge(global int* out, local int* s) {
	int lid = get_local_id(0);
	if (lid == 0) {
		return;
	}
	barrier(CLK_LOCAL_MEM_FENCE);
	out[lid] = s[0];
}
`
	p := compile(t, src)
	fn := kernelFn(t, p, "diverge")
	out := make([]byte, 4*8)
	err := Run(Launch{Prog: p, Kernel: fn,
		Args:       []Arg{GlobalArg(out), LocalArg(4)},
		GlobalSize: []int{8}, LocalSize: []int{8}})
	if err == nil || !strings.Contains(err.Error(), "barrier divergence") {
		t.Fatalf("expected barrier divergence error, got %v", err)
	}
}

func TestTraps(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"div-by-zero", `kernel void k(global int* o, int d) { o[0] = 1 / d; }`, "division by zero"},
		{"mod-by-zero", `kernel void k(global int* o, int d) { o[0] = 1 % d; }`, "modulo by zero"},
		{"oob-read", `kernel void k(global int* o, const global int* a) { o[0] = a[99]; }`, "out of range"},
		{"oob-write", `kernel void k(global int* o) { o[99] = 1; }`, "out of range"},
		{"oob-negative", `kernel void k(global int* o) { o[0 - 1] = 1; }`, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := compile(t, tc.src)
			fn := kernelFn(t, p, "k")
			args := []Arg{GlobalArg(make([]byte, 4))}
			for len(args) < len(fn.Args) {
				switch fn.Args[len(args)].Kind {
				case kernel.ArgScalarInt:
					args = append(args, IntArg(0))
				case kernel.ArgGlobalBuf:
					args = append(args, GlobalArg(make([]byte, 4)))
				}
			}
			err := Run(Launch{Prog: p, Kernel: fn, Args: args, GlobalSize: []int{1}})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want trap containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestMissingReturnTrap(t *testing.T) {
	src := `
float bad(float x) { if (x > 0.0) { return x; } }
kernel void k(global float* o) { o[0] = bad(-1.0); }
`
	p := compile(t, src)
	fn := kernelFn(t, p, "k")
	err := Run(Launch{Prog: p, Kernel: fn,
		Args: []Arg{GlobalArg(make([]byte, 4))}, GlobalSize: []int{1}})
	if err == nil || !strings.Contains(err.Error(), "missing return") {
		t.Fatalf("want missing-return trap, got %v", err)
	}
}

func TestTwoDimensionalRange(t *testing.T) {
	src := `
kernel void idx2d(global int* out, int w) {
	int x = get_global_id(0);
	int y = get_global_id(1);
	out[y * w + x] = y * 1000 + x;
}
`
	p := compile(t, src)
	fn := kernelFn(t, p, "idx2d")
	w, h := 16, 8
	out := make([]byte, 4*w*h)
	if err := Run(Launch{Prog: p, Kernel: fn,
		Args:       []Arg{GlobalArg(out), IntArg(int32(w))},
		GlobalSize: []int{w, h}}); err != nil {
		t.Fatalf("run: %v", err)
	}
	res := bytesToInts(out)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if want := int32(y*1000 + x); res[y*w+x] != want {
				t.Fatalf("out[%d,%d] = %d, want %d", x, y, res[y*w+x], want)
			}
		}
	}
}

// TestIntArithmeticMatchesGo property-tests MiniCL integer arithmetic
// against Go's int32 semantics.
func TestIntArithmeticMatchesGo(t *testing.T) {
	src := `
kernel void ops(global int* out, int a, int b) {
	out[0] = a + b;
	out[1] = a - b;
	out[2] = a * b;
	out[3] = a & b;
	out[4] = a | b;
	out[5] = a ^ b;
	out[6] = a << (b & 7);
	out[7] = a >> (b & 7);
	out[8] = (a < b) ? 1 : 0;
	out[9] = min(a, b);
	out[10] = max(a, b);
}
`
	p := compile(t, src)
	fn := kernelFn(t, p, "ops")
	f := func(a, b int32) bool {
		out := make([]byte, 4*11)
		err := Run(Launch{Prog: p, Kernel: fn,
			Args:       []Arg{GlobalArg(out), IntArg(a), IntArg(b)},
			GlobalSize: []int{1}})
		if err != nil {
			return false
		}
		got := bytesToInts(out)
		sh := uint32(b) & 7
		lt := int32(0)
		if a < b {
			lt = 1
		}
		mn, mx := a, b
		if b < a {
			mn, mx = b, a
		}
		want := []int32{a + b, a - b, a * b, a & b, a | b, a ^ b,
			a << sh, a >> sh, lt, mn, mx}
		for i := range want {
			if got[i] != want[i] {
				t.Logf("case %d: a=%d b=%d got=%d want=%d", i, a, b, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFloatArithmeticMatchesGo property-tests MiniCL float arithmetic
// against Go float32 semantics.
func TestFloatArithmeticMatchesGo(t *testing.T) {
	src := `
kernel void fops(global float* out, float a, float b) {
	out[0] = a + b;
	out[1] = a - b;
	out[2] = a * b;
	out[3] = fmin(a, b);
	out[4] = fmax(a, b);
	out[5] = fabs(a);
	out[6] = -a;
}
`
	p := compile(t, src)
	fn := kernelFn(t, p, "fops")
	f := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
			return true
		}
		out := make([]byte, 4*7)
		err := Run(Launch{Prog: p, Kernel: fn,
			Args:       []Arg{GlobalArg(out), FloatArg(a), FloatArg(b)},
			GlobalSize: []int{1}})
		if err != nil {
			return false
		}
		got := bytesToFloats(out)
		want := []float32{a + b, a - b, a * b,
			float32(math.Min(float64(a), float64(b))),
			float32(math.Max(float64(a), float64(b))),
			float32(math.Abs(float64(a))), -a}
		for i := range want {
			if got[i] != want[i] && !(math.IsNaN(float64(got[i])) && math.IsNaN(float64(want[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAutoLocalSizeDivides(t *testing.T) {
	f := func(g uint16) bool {
		n := int(g%4096) + 1
		local := make([]int, 1)
		autoLocalSize([]int{n}, local)
		return local[0] >= 1 && local[0] <= 256 && n%local[0] == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLaunchValidation(t *testing.T) {
	p := compile(t, vecAddSrc)
	fn := kernelFn(t, p, "vadd")
	// Wrong argument count.
	err := Run(Launch{Prog: p, Kernel: fn, Args: []Arg{IntArg(1)}, GlobalSize: []int{4}})
	if err == nil {
		t.Fatal("expected arg count error")
	}
	// Bad dimensions.
	err = Run(Launch{Prog: p, Kernel: fn,
		Args:       []Arg{GlobalArg(nil), GlobalArg(nil), GlobalArg(nil), IntArg(0)},
		GlobalSize: []int{}})
	if err == nil {
		t.Fatal("expected dimension error")
	}
	// Local size not dividing global size.
	err = Run(Launch{Prog: p, Kernel: fn,
		Args:       []Arg{GlobalArg(nil), GlobalArg(nil), GlobalArg(nil), IntArg(0)},
		GlobalSize: []int{7}, LocalSize: []int{2}})
	if err == nil {
		t.Fatal("expected divisibility error")
	}
}

func TestIncDecCompoundOps(t *testing.T) {
	src := `
kernel void k(global int* out) {
	int x = 10;
	x++;
	x--;
	x += 5;
	x -= 2;
	x *= 3;
	x /= 2;
	x %= 7;
	out[0] = x;
	out[1] = 0;
	out[1] += 4;
	out[1] *= 2;
}
`
	p := compile(t, src)
	fn := kernelFn(t, p, "k")
	out := make([]byte, 8)
	if err := Run(Launch{Prog: p, Kernel: fn, Args: []Arg{GlobalArg(out)}, GlobalSize: []int{1}}); err != nil {
		t.Fatalf("run: %v", err)
	}
	res := bytesToInts(out)
	x := int32(10)
	x++
	x--
	x += 5
	x -= 2
	x *= 3
	x /= 2
	x %= 7
	if res[0] != x {
		t.Errorf("out[0] = %d, want %d", res[0], x)
	}
	if res[1] != 8 {
		t.Errorf("out[1] = %d, want 8", res[1])
	}
}
