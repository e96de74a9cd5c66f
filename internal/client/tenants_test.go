package client

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"

	"dopencl/internal/cl"
	"dopencl/internal/device"
	"dopencl/internal/kernel"
	"dopencl/internal/vm"
)

// stashSource copies out what a work-item finds in memory it has not
// written — a private variable, its group's local memory — and then fills
// both from in.
const stashSource = `
kernel void stash(global int* in, global int* out, local int* tile) {
	int i = get_global_id(0);
	int l = get_local_id(0);
	int x;
	out[2*i] = x;
	out[2*i+1] = tile[l];
	barrier(CLK_LOCAL_MEM_FENCE);
	x = in[i];
	tile[l] = x;
	barrier(CLK_LOCAL_MEM_FENCE);
	in[i] = tile[(l + 1) % get_local_size(0)] + x;
}
`

// Two tenants — two platforms, two sessions on one daemon — build the same
// text: the daemon compiles it once, so B's launch runs on A's plan and,
// off the plan's free list, on the runners A's launch used. B still reads
// zeros where it wrote nothing, not A's data, and both get what a fresh
// compile of the text computes. (internal/vm's
// TestRecycledRunnerCarriesNothingBetweenTenants forces the recycling and
// says why it is safe; this is the same property through the whole stack.)
func TestTenantsShareCompiledProgramNotData(t *testing.T) {
	tc := newTestCluster(t, map[string][]device.Config{"node0": {device.TestCPU("cpu0")}})
	tenantB := NewPlatform(Options{ClientName: "tenant-b",
		Dialer: func(addr string) (net.Conn, error) { return tc.Net.DialFrom("tenant-b", addr) }})
	const n, group = 64, 16
	filled := func(v uint32) []byte {
		b := make([]byte, 4*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		return b
	}
	run := func(plat *Platform, input []byte) (in, out []byte) {
		t.Helper()
		srv, err := plat.ConnectServer("node0")
		if err != nil {
			t.Fatal(err)
		}
		defer plat.DisconnectServer(srv)
		devs, err := plat.Devices(cl.DeviceTypeAll)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := plat.CreateContext(devs)
		if err != nil {
			t.Fatal(err)
		}
		defer ctx.Release()
		q, err := ctx.CreateQueue(devs[0])
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ctx.CreateProgramWithSource(stashSource)
		if err != nil {
			t.Fatal(err)
		}
		if err := prog.Build(nil, ""); err != nil {
			t.Fatal(err)
		}
		k, err := prog.CreateKernel("stash")
		if err != nil {
			t.Fatal(err)
		}
		inBuf, err := ctx.CreateBuffer(cl.MemReadWrite, 4*n, nil)
		if err != nil {
			t.Fatal(err)
		}
		outBuf, err := ctx.CreateBuffer(cl.MemWriteOnly, 2*4*n, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range []any{inBuf, outBuf, cl.LocalSpace{Size: 4 * group}} {
			if err := k.SetArg(i, v); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := q.EnqueueWriteBuffer(inBuf, false, 0, input, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := q.EnqueueNDRangeKernel(k, []int{n}, []int{group}, nil); err != nil {
			t.Fatal(err)
		}
		in, out = make([]byte, 4*n), make([]byte, 2*4*n)
		if _, err := q.EnqueueReadBuffer(outBuf, true, 0, out, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := q.EnqueueReadBuffer(inBuf, true, 0, in, nil); err != nil {
			t.Fatal(err)
		}
		return in, out
	}
	reference := func(input []byte) (in, out []byte) {
		t.Helper()
		fresh, err := kernel.Compile(stashSource)
		if err != nil {
			t.Fatal(err)
		}
		fn, _ := fresh.Kernel("stash")
		in, out = bytes.Clone(input), make([]byte, 2*4*n)
		if err := vm.Run(vm.Launch{Prog: fresh, Kernel: fn, GlobalSize: []int{n}, LocalSize: []int{group},
			Args: []vm.Arg{vm.GlobalArg(in), vm.GlobalArg(out), vm.LocalArg(4 * group)}}); err != nil {
			t.Fatal(err)
		}
		return in, out
	}

	secret := filled(0x5ec4e7)
	aIn, aOut := run(tc.plat, secret)
	_, misses := kernel.SharedCounts()
	plans := kernel.WorkGroupCompiles()
	bIn, bOut := run(tenantB, filled(0))
	if _, ms := kernel.SharedCounts(); ms != misses || kernel.WorkGroupCompiles() != plans {
		t.Errorf("tenant B's build compiled %d programs and optimized %d kernels, want the ones tenant A left", ms-misses, kernel.WorkGroupCompiles()-plans)
	}
	if !bytes.Equal(bOut, make([]byte, len(bOut))) {
		t.Fatalf("tenant B read from memory it never wrote: % x", bOut[:32])
	}
	wantIn, wantOut := reference(secret)
	if !bytes.Equal(aIn, wantIn) || !bytes.Equal(aOut, wantOut) {
		t.Error("tenant A's results differ from a fresh compile's")
	}
	wantIn, wantOut = reference(filled(0))
	if !bytes.Equal(bIn, wantIn) || !bytes.Equal(bOut, wantOut) {
		t.Error("tenant B's results differ from a fresh compile's")
	}
}
