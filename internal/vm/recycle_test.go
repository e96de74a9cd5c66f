package vm

import (
	"bytes"
	"testing"

	"dopencl/internal/kernel"
)

// TenantProbeSource has two kernels that copy out what a work-item finds
// in memory it has not written — its private variables and its group's
// local memory — and then fill all of it with what they read from in: the
// next launch of the same kernel on the same runner is the one that would
// see it.
const tenantProbeSource = `
kernel void probe(global int* in, global int* out, local int* tile) {
	int i = get_global_id(0);
	int l = get_local_id(0);
	int x;
	float y;
	out[3*i] = x;
	out[3*i+1] = (int)y;
	out[3*i+2] = tile[l];
	barrier(CLK_LOCAL_MEM_FENCE);
	x = in[i];
	y = (float)x;
	tile[l] = x;
	barrier(CLK_LOCAL_MEM_FENCE);
	in[i] = tile[(l + 1) % get_local_size(0)] + (int)y;
}
kernel void peek(global int* in, global int* out) {
	int i = get_global_id(0);
	int x;
	if (in[i] > 0) { x = in[i]; }
	out[i] = x;
	x = in[i] * 3;
	in[i] = x;
}
`

// probeRun is one tenant's launch of one of the probe kernels over n items
// of in, all holding fill.
type probeRun struct{ in, out []byte }

func probeArgs(name string, n int, fill int32) (probeRun, []Arg) {
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = fill
	}
	r := probeRun{in: intsToBytes(vals)}
	if name == "probe" {
		r.out = make([]byte, 3*4*n)
		return r, []Arg{GlobalArg(r.in), GlobalArg(r.out), LocalArg(4 * 16)}
	}
	r.out = make([]byte, 4*n)
	return r, []Arg{GlobalArg(r.in), GlobalArg(r.out)}
}

// A compiled program is shared by every tenant that builds its text
// (kernel.Shared), and with it each plan's free list of runners: a runner
// tenant A's launch used is bound to tenant B's next. It carries nothing
// across. Released, it reaches none of A's buffers; and B, running on that
// very runner, reads zeros from every variable it did not assign and from
// local memory it did not write — the lowering zero-initialises every
// declaration and runGroup clears the local arenas per group, whatever
// the rows and arenas held before — with results bit-identical to a fresh
// compile of the text on a fresh runner.
func TestRecycledRunnerCarriesNothingBetweenTenants(t *testing.T) {
	prog, err := kernel.Shared(tenantProbeSource)
	if err != nil {
		t.Fatal(err)
	}
	fresh := compile(t, tenantProbeSource)
	const n, secret = 64, 0x5ec4e7
	for _, name := range []string{"probe", "peek"} {
		fn := kernelFn(t, prog, name)
		plan := prog.WorkGroup(fn)
		runOn := func(r *planRunner, fill int32) (*planRunner, probeRun) {
			t.Helper()
			run, args := probeArgs(name, n, fill)
			d := new(dispatch)
			groups, err := prepare(d, prog, fn, args, []int{n}, nil, []int{16})
			if err != nil {
				t.Fatal(err)
			}
			if r == nil {
				r = newPlanRunner(d, plan)
			} else {
				r.bind(d) // what acquireRunner does with one off the free list
			}
			for g := 0; g < groups; g++ {
				if trap := r.runGroup(g); trap != nil {
					t.Fatal(trap)
				}
			}
			r.unbind() // what release does before the free list gets it
			return r, run
		}
		reference := func(fill int32) probeRun {
			t.Helper()
			run, args := probeArgs(name, n, fill)
			if err := Run(Launch{Prog: fresh, Kernel: kernelFn(t, fresh, name), Args: args,
				GlobalSize: []int{n}, LocalSize: []int{16}, Workers: 1}); err != nil {
				t.Fatal(err)
			}
			return run
		}

		r, a := runOn(nil, secret)
		if r.d != nil {
			t.Errorf("%s: a released runner still holds its launch", name)
		}
		for i, arg := range fn.Args {
			if arg.Kind == kernel.ArgGlobalBuf && r.bufs[plan.ArgBufs[i]] != nil {
				t.Errorf("%s: a released runner still reaches the buffer bound to %s", name, arg.Name)
			}
		}
		_, b := runOn(r, 0)

		for _, v := range bytesToInts(b.out) {
			if v != 0 {
				t.Fatalf("%s: tenant B read %#x from memory it never wrote", name, v)
			}
		}
		for who, pair := range map[string][2]probeRun{"A": {a, reference(secret)}, "B": {b, reference(0)}} {
			if !bytes.Equal(pair[0].out, pair[1].out) || !bytes.Equal(pair[0].in, pair[1].in) {
				t.Errorf("%s: tenant %s's results differ from a fresh compile's", name, who)
			}
		}
	}
}
