package client

// Tests for the in-process fast path (gcf local endpoint pairs): a
// daemon published via ServeLocal must behave bit-identically to one
// reached over a socket — same workload, same bytes out — while never
// touching the platform's Dialer.

import (
	"bytes"
	"fmt"
	"net"
	"testing"

	"dopencl/internal/cl"
	"dopencl/internal/device"
	"dopencl/internal/testbed"
)

// fastPathWorkload drives a deterministic two-server workload through
// plat and returns every byte it read back: host-initialized buffer,
// blocking and non-blocking writes, a vadd kernel on server 0, a
// cross-server coherence transfer with a scale kernel on server 1, and
// final readbacks from both sides.
func fastPathWorkload(t *testing.T, plat *Platform) []byte {
	t.Helper()
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil || len(devs) != 2 {
		t.Fatalf("devices: %d, %v", len(devs), err)
	}
	ctx, err := plat.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Release()

	const n = 1024
	a := make([]float32, n)
	b := make([]float32, n)
	for i := range a {
		a[i] = float32(i%97) * 0.5
		b[i] = float32(i%31) * 1.25
	}
	bufA, err := ctx.CreateBuffer(cl.MemReadOnly|cl.MemCopyHostPtr, 4*n, f32bytes(a))
	if err != nil {
		t.Fatal(err)
	}
	bufB, err := ctx.CreateBuffer(cl.MemReadOnly, 4*n, nil)
	if err != nil {
		t.Fatal(err)
	}
	bufOut, err := ctx.CreateBuffer(cl.MemReadWrite, 4*n, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.CreateProgramWithSource(vaddSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(nil, ""); err != nil {
		t.Fatalf("Build: %v", err)
	}
	q0, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	q1, err := ctx.CreateQueue(devs[1])
	if err != nil {
		t.Fatal(err)
	}

	// Non-blocking write, ordered before the kernel via its event.
	wev, err := q0.EnqueueWriteBuffer(bufB, false, 0, f32bytes(b), nil)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	vadd, err := prog.CreateKernel("vadd")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []any{bufOut, bufA, bufB, int32(n)} {
		if err := vadd.SetArg(i, v); err != nil {
			t.Fatalf("SetArg(%d): %v", i, err)
		}
	}
	kev, err := q0.EnqueueNDRangeKernel(vadd, []int{n}, nil, []cl.Event{wev})
	if err != nil {
		t.Fatalf("launch vadd: %v", err)
	}
	out1 := make([]byte, 4*n)
	if _, err := q0.EnqueueReadBuffer(bufOut, true, 0, out1, []cl.Event{kev}); err != nil {
		t.Fatalf("read out1: %v", err)
	}

	// Cross-server: scale bufOut on server 1 — the coherence transfer
	// moves the data between daemons (through the client on this
	// peer-less topology), then a sub-range and a full readback.
	scale, err := prog.CreateKernel("scale")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []any{bufOut, float32(3.0), int32(n)} {
		if err := scale.SetArg(i, v); err != nil {
			t.Fatalf("SetArg(%d): %v", i, err)
		}
	}
	sev, err := q1.EnqueueNDRangeKernel(scale, []int{n}, nil, nil)
	if err != nil {
		t.Fatalf("launch scale: %v", err)
	}
	sub := make([]byte, 4*128)
	if _, err := q1.EnqueueReadBuffer(bufOut, true, 4*256, sub, []cl.Event{sev}); err != nil {
		t.Fatalf("read sub: %v", err)
	}
	out2 := make([]byte, 4*n)
	if _, err := q1.EnqueueReadBuffer(bufOut, true, 0, out2, nil); err != nil {
		t.Fatalf("read out2: %v", err)
	}
	if err := q0.Finish(); err != nil {
		t.Fatalf("Finish q0: %v", err)
	}
	if err := q1.Finish(); err != nil {
		t.Fatalf("Finish q1: %v", err)
	}
	var all []byte
	all = append(all, out1...)
	all = append(all, sub...)
	all = append(all, out2...)
	return all
}

// localPlatform builds two in-process daemons published via ServeLocal
// and a platform whose Dialer always fails — proving every byte moves
// over the local fast path.
func localPlatform(t *testing.T, addrs ...string) *Platform {
	t.Helper()
	nodes := map[string][]device.Config{}
	for _, addr := range addrs {
		nodes[addr] = []device.Config{device.TestCPU("cpu-" + addr)}
	}
	tb := testbed.StartTest(t, testbed.Spec{Nodes: nodes})
	for _, addr := range addrs {
		addr, d := addr, tb.Daemon(addr)
		if err := d.ServeLocal(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.StopLocal(addr) })
	}
	return NewPlatform(Options{
		Dialer: func(addr string) (net.Conn, error) {
			return nil, fmt.Errorf("socket dial of %s attempted on in-process platform", addr)
		},
		ClientName: "itest-local",
	})
}

func TestInProcessFastPathBitIdentical(t *testing.T) {
	// Socket path (client-mediated topology, same as the local one).
	tc := newTestClusterOf(t, testbed.Spec{Nodes: map[string][]device.Config{
		"node0": {device.TestCPU("cpu-node0")},
		"node1": {device.TestCPU("cpu-node1")},
	}})
	for _, addr := range []string{"node0", "node1"} {
		if _, err := tc.plat.ConnectServer(addr); err != nil {
			t.Fatal(err)
		}
	}
	socketOut := fastPathWorkload(t, tc.plat)

	// In-process fast path.
	lp := localPlatform(t, "inproc0", "inproc1")
	for _, addr := range []string{"inproc0", "inproc1"} {
		if _, err := lp.ConnectServer(addr); err != nil {
			t.Fatal(err)
		}
	}
	localOut := fastPathWorkload(t, lp)

	if !bytes.Equal(socketOut, localOut) {
		for i := range socketOut {
			if socketOut[i] != localOut[i] {
				t.Fatalf("fast path diverges from socket path at readback byte %d: %#x vs %#x",
					i, socketOut[i], localOut[i])
			}
		}
		t.Fatalf("fast path readback length %d vs socket %d", len(localOut), len(socketOut))
	}
}

func TestInProcessDisconnectAndFallback(t *testing.T) {
	lp := localPlatform(t, "inproc-solo")
	s, err := lp.ConnectServer("inproc-solo")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Connected() {
		t.Fatal("local server not connected")
	}
	if err := lp.DisconnectServer(s); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return !s.Connected() }, "local server disconnect")
	// Unregistered addresses fall back to the Dialer (which fails here).
	if _, err := lp.ConnectServer("never-registered"); err == nil {
		t.Fatal("dial of unregistered address succeeded without a working Dialer")
	}
}
