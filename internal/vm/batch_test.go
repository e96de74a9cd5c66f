package vm

import (
	"errors"
	"testing"
)

// TestRunBatchMatchesSequentialRuns pins the batch entry point's
// correctness contract: N jobs batched through one RunBatch produce
// byte-identical outputs to N individual Run calls.
func TestRunBatchMatchesSequentialRuns(t *testing.T) {
	p := compile(t, vecAddSrc)
	fn := kernelFn(t, p, "vadd")

	const jobs = 8
	mkInputs := func(j int) ([]byte, []byte, int) {
		n := 64 + 32*j // shapes differ per job on purpose
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = float32(i + j)
			b[i] = float32(2*i - j)
		}
		return floatsToBytes(a), floatsToBytes(b), n
	}

	want := make([][]byte, jobs)
	for j := 0; j < jobs; j++ {
		a, b, n := mkInputs(j)
		out := make([]byte, 4*n)
		if err := Run(Launch{
			Prog: p, Kernel: fn,
			Args:       []Arg{GlobalArg(out), GlobalArg(a), GlobalArg(b), IntArg(int32(n))},
			GlobalSize: []int{n},
		}); err != nil {
			t.Fatalf("sequential run %d: %v", j, err)
		}
		want[j] = out
	}

	batch := Batch{Prog: p, Kernel: fn}
	outs := make([][]byte, jobs)
	for j := 0; j < jobs; j++ {
		a, b, n := mkInputs(j)
		outs[j] = make([]byte, 4*n)
		batch.Jobs = append(batch.Jobs, BatchJob{
			Args:       []Arg{GlobalArg(outs[j]), GlobalArg(a), GlobalArg(b), IntArg(int32(n))},
			GlobalSize: []int{n},
		})
	}
	errs, stats := RunBatch(batch)
	for j, err := range errs {
		if err != nil {
			t.Fatalf("batch job %d: %v", j, err)
		}
	}
	for j := range outs {
		if string(outs[j]) != string(want[j]) {
			t.Errorf("job %d: batched output differs from sequential run", j)
		}
	}
	if stats.GroupsRun == 0 || stats.Instructions == 0 {
		t.Errorf("batch stats empty: %+v", stats)
	}
}

// TestRunBatchIsolatesJobErrors pins per-job error isolation: one
// trapping or invalid job must not disturb its batch neighbors.
func TestRunBatchIsolatesJobErrors(t *testing.T) {
	src := `
kernel void divn(global int* out, const global int* in, int d) {
	int i = get_global_id(0);
	out[i] = in[i] / d;
}
`
	p := compile(t, src)
	fn := kernelFn(t, p, "divn")

	n := 32
	in := intsToBytes(make([]int32, n))
	goodOut := make([]byte, 4*n)
	trapOut := make([]byte, 4*n)
	good2Out := make([]byte, 4*n)
	errs, _ := RunBatch(Batch{
		Prog: p, Kernel: fn,
		Jobs: []BatchJob{
			{Args: []Arg{GlobalArg(goodOut), GlobalArg(in), IntArg(2)}, GlobalSize: []int{n}},
			// division by zero traps
			{Args: []Arg{GlobalArg(trapOut), GlobalArg(in), IntArg(0)}, GlobalSize: []int{n}},
			// wrong arity fails validation
			{Args: []Arg{GlobalArg(make([]byte, 4*n))}, GlobalSize: []int{n}},
			{Args: []Arg{GlobalArg(good2Out), GlobalArg(in), IntArg(4)}, GlobalSize: []int{n}},
		},
	})
	if errs[0] != nil || errs[3] != nil {
		t.Fatalf("healthy jobs failed: %v / %v", errs[0], errs[3])
	}
	var trap *TrapError
	if errs[1] == nil || !errors.As(errs[1], &trap) {
		t.Errorf("trapping job: got %v, want TrapError", errs[1])
	}
	if errs[2] == nil {
		t.Error("invalid-arity job should fail validation")
	}
}

// TestRunBatchUnoptimized pins that the batch path runs the unoptimized
// plan too (the reference holds for batches).
func TestRunBatchUnoptimized(t *testing.T) {
	p := compile(t, vecAddSrc)
	fn := kernelFn(t, p, "vadd")
	n := 48
	a := make([]float32, n)
	for i := range a {
		a[i] = float32(i)
	}
	ab := floatsToBytes(a)
	out1 := make([]byte, 4*n)
	out2 := make([]byte, 4*n)
	errs, stats := RunBatch(Batch{
		Prog: p, Kernel: fn, Unoptimized: true,
		Jobs: []BatchJob{
			{Args: []Arg{GlobalArg(out1), GlobalArg(ab), GlobalArg(ab), IntArg(int32(n))}, GlobalSize: []int{n}},
			{Args: []Arg{GlobalArg(out2), GlobalArg(ab), GlobalArg(ab), IntArg(int32(n))}, GlobalSize: []int{n}},
		},
	})
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("unoptimized batch failed: %v / %v", errs[0], errs[1])
	}
	if stats.Compile == nil || len(stats.Compile.Passes) != 0 {
		t.Errorf("batch did not run the unoptimized plan: %+v", stats.Compile)
	}
	for i, v := range bytesToFloats(out1) {
		if v != float32(2*i) {
			t.Fatalf("out1[%d] = %v", i, v)
		}
	}
	if string(out1) != string(out2) {
		t.Error("identical jobs produced different outputs")
	}
}
