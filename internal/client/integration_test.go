package client

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/device"
	"dopencl/internal/testbed"
)

// testCluster is a testbed cluster and a platform connected to it as
// testClientID.
type testCluster struct {
	*testbed.Testbed
	plat *Platform
}

// testClientID is the simnet endpoint identity of the client, so tests
// can account bytes on client↔daemon links via Network.BytesSent.
const testClientID = "client"

// newTestCluster is newTestClusterOf the given nodes with the peer data
// plane enabled (as in a full deployment), so coherence transfers
// between daemons use direct forwarding.
func newTestCluster(t *testing.T, nodes map[string][]device.Config) *testCluster {
	t.Helper()
	return newTestClusterOf(t, testbed.Spec{Peers: true, Nodes: nodes})
}

// newTestClusterOf starts a cluster and a platform dialing it. Tests set
// a modeled link, leave the peer plane off (the paper's
// client-mediated-only topology, the forwarding fallback) or retain
// detached sessions for the re-attach tests.
func newTestClusterOf(t *testing.T, spec testbed.Spec) *testCluster {
	t.Helper()
	tb := testbed.StartTest(t, spec)
	plat := NewPlatform(Options{Dialer: tb.Dialer(testClientID), ClientName: "itest"})
	return &testCluster{Testbed: tb, plat: plat}
}

func f32bytes(vs []float32) []byte {
	b := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return b
}

func bytesF32(b []byte) []float32 {
	vs := make([]float32, len(b)/4)
	for i := range vs {
		vs[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return vs
}

const vaddSrc = `
kernel void vadd(global float* out, const global float* a, const global float* b, int n) {
	int i = get_global_id(0);
	if (i < n) { out[i] = a[i] + b[i]; }
}
kernel void scale(global float* data, float f, int n) {
	int i = get_global_id(0);
	if (i < n) { data[i] = data[i] * f; }
}
`

func TestConnectAndEnumerate(t *testing.T) {
	tc := newTestCluster(t, map[string][]device.Config{
		"node0": {device.TestCPU("cpu0"), device.TestGPU("gpu0")},
		"node1": {device.TestCPU("cpu1")},
	})
	s0, err := tc.plat.ConnectServer("node0")
	if err != nil {
		t.Fatalf("connect node0: %v", err)
	}
	if _, err := tc.plat.ConnectServer("node1"); err != nil {
		t.Fatalf("connect node1: %v", err)
	}
	all, err := tc.plat.Devices(cl.DeviceTypeAll)
	if err != nil || len(all) != 3 {
		t.Fatalf("Devices(All) = %d devices, err %v; want 3", len(all), err)
	}
	gpus, err := tc.plat.Devices(cl.DeviceTypeGPU)
	if err != nil || len(gpus) != 1 {
		t.Fatalf("Devices(GPU) = %v, %v", gpus, err)
	}
	info, err := tc.plat.GetServerInfo(s0)
	if err != nil || info.Name != "node0" || info.DeviceCount != 2 || info.Managed {
		t.Fatalf("GetServerInfo = %+v, %v", info, err)
	}
	// Disconnect: devices become unavailable.
	dev0 := all[0].(*Device)
	if !dev0.Available() {
		t.Fatal("device should be available")
	}
	if err := tc.plat.DisconnectServer(s0); err != nil {
		t.Fatalf("disconnect: %v", err)
	}
	waitFor(t, func() bool { return !dev0.Available() }, "device unavailable after disconnect")
	remaining, err := tc.plat.Devices(cl.DeviceTypeAll)
	if err != nil || len(remaining) != 1 {
		t.Fatalf("after disconnect: %d devices, %v", len(remaining), err)
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestRemoteVectorAdd(t *testing.T) {
	tc := newTestCluster(t, map[string][]device.Config{
		"node0": {device.TestCPU("cpu0")},
	})
	if _, err := tc.plat.ConnectServer("node0"); err != nil {
		t.Fatal(err)
	}
	devs, err := tc.plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := tc.plat.CreateContext(devs)
	if err != nil {
		t.Fatalf("CreateContext: %v", err)
	}
	defer ctx.Release()

	const n = 256
	a := make([]float32, n)
	b := make([]float32, n)
	for i := range a {
		a[i] = float32(i)
		b[i] = float32(3 * i)
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
	k, err := prog.CreateKernel("vadd")
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueWriteBuffer(bufB, true, 0, f32bytes(b), nil); err != nil {
		t.Fatalf("write: %v", err)
	}
	for i, v := range []any{bufOut, bufA, bufB, int32(n)} {
		if err := k.SetArg(i, v); err != nil {
			t.Fatalf("SetArg(%d): %v", i, err)
		}
	}
	ev, err := q.EnqueueNDRangeKernel(k, []int{n}, nil, nil)
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	out := make([]byte, 4*n)
	if _, err := q.EnqueueReadBuffer(bufOut, true, 0, out, []cl.Event{ev}); err != nil {
		t.Fatalf("read: %v", err)
	}
	for i, v := range bytesF32(out) {
		if want := a[i] + b[i]; v != want {
			t.Fatalf("out[%d] = %v, want %v", i, v, want)
		}
	}
	if err := q.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// TestCrossServerCoherence shares a buffer between devices on two servers:
// a kernel on node0 writes it, a kernel on node1 reads it. The MSI
// protocol must move the data via the client.
func TestCrossServerCoherence(t *testing.T) {
	tc := newTestCluster(t, map[string][]device.Config{
		"node0": {device.TestCPU("cpu0")},
		"node1": {device.TestCPU("cpu1")},
	})
	if _, err := tc.plat.ConnectServer("node0"); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.plat.ConnectServer("node1"); err != nil {
		t.Fatal(err)
	}
	devs, err := tc.plat.Devices(cl.DeviceTypeAll)
	if err != nil || len(devs) != 2 {
		t.Fatalf("devices: %v %v", devs, err)
	}
	ctx, err := tc.plat.CreateContext(devs)
	if err != nil {
		t.Fatalf("distributed context: %v", err)
	}
	defer ctx.Release()

	const n = 128
	init := make([]float32, n)
	for i := range init {
		init[i] = float32(i)
	}
	buf, err := ctx.CreateBuffer(cl.MemReadWrite|cl.MemCopyHostPtr, 4*n, f32bytes(init))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.CreateProgramWithSource(vaddSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(nil, ""); err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("scale")
	if err != nil {
		t.Fatal(err)
	}

	q0, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	q1, err := ctx.CreateQueue(devs[1])
	if err != nil {
		t.Fatal(err)
	}

	// Scale by 2 on node0.
	if err := k.SetArg(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(1, float32(2.0)); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(2, int32(n)); err != nil {
		t.Fatal(err)
	}
	ev0, err := q0.EnqueueNDRangeKernel(k, []int{n}, nil, nil)
	if err != nil {
		t.Fatalf("launch on node0: %v", err)
	}
	if err := ev0.Wait(); err != nil {
		t.Fatalf("kernel on node0: %v", err)
	}

	// MSI directory: node0 Modified, node1 + host Invalid.
	cb := buf.(*Buffer)
	host, servers := cb.States()
	if host != "I" || servers["node0"] != "M" || servers["node1"] != "I" {
		t.Fatalf("states after write: host=%s servers=%v", host, servers)
	}

	// Scale by 10 on node1 — requires a coherence transfer.
	if err := k.SetArg(1, float32(10.0)); err != nil {
		t.Fatal(err)
	}
	ev1, err := q1.EnqueueNDRangeKernel(k, []int{n}, nil, nil)
	if err != nil {
		t.Fatalf("launch on node1: %v", err)
	}
	if err := ev1.Wait(); err != nil {
		t.Fatalf("kernel on node1: %v", err)
	}

	out := make([]byte, 4*n)
	if _, err := q1.EnqueueReadBuffer(buf, true, 0, out, []cl.Event{ev1}); err != nil {
		t.Fatalf("read: %v", err)
	}
	for i, v := range bytesF32(out) {
		if want := float32(i) * 20; v != want {
			t.Fatalf("out[%d] = %v, want %v", i, v, want)
		}
	}

	// Invariant: at most one Modified copy; others Invalid when one is M.
	host, servers = cb.States()
	modified := 0
	if host == "M" {
		modified++
	}
	for _, st := range servers {
		if st == "M" {
			modified++
		}
	}
	if modified > 1 {
		t.Fatalf("MSI violation: %d modified copies (host=%s servers=%v)", modified, host, servers)
	}
}

// TestCrossServerEventWait passes an event created on node0 into a wait
// list on node1: the driver must create a user-event replacement and
// complete it when the original fires.
func TestCrossServerEventWait(t *testing.T) {
	tc := newTestCluster(t, map[string][]device.Config{
		"node0": {device.TestCPU("cpu0")},
		"node1": {device.TestCPU("cpu1")},
	})
	if _, err := tc.plat.ConnectServer("node0"); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.plat.ConnectServer("node1"); err != nil {
		t.Fatal(err)
	}
	devs, _ := tc.plat.Devices(cl.DeviceTypeAll)
	ctx, err := tc.plat.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Release()

	// Gate everything behind a client-side user event to force the
	// cross-server wait to happen while both commands are queued.
	gate, err := ctx.CreateUserEvent()
	if err != nil {
		t.Fatal(err)
	}
	bufA, _ := ctx.CreateBuffer(cl.MemReadWrite, 16, nil)
	bufB, _ := ctx.CreateBuffer(cl.MemReadWrite, 16, nil)
	q0, _ := ctx.CreateQueue(devs[0])
	q1, _ := ctx.CreateQueue(devs[1])

	ev0, err := q0.EnqueueWriteBuffer(bufA, false, 0, []byte("0123456789abcdef"), []cl.Event{gate})
	if err != nil {
		t.Fatal(err)
	}
	// node1 waits on node0's event.
	ev1, err := q1.EnqueueWriteBuffer(bufB, false, 0, []byte("fedcba9876543210"), []cl.Event{ev0})
	if err != nil {
		t.Fatal(err)
	}
	if ev1.Status() == cl.Complete {
		t.Fatal("ev1 completed before the gate opened")
	}
	if err := gate.SetStatus(cl.Complete); err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitForEvents([]cl.Event{ev0, ev1}); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 16)
	if _, err := q1.EnqueueReadBuffer(bufB, true, 0, out, nil); err != nil {
		t.Fatal(err)
	}
	if string(out) != "fedcba9876543210" {
		t.Fatalf("bufB = %q", out)
	}
}

func TestRemoteBuildFailure(t *testing.T) {
	tc := newTestCluster(t, map[string][]device.Config{
		"node0": {device.TestCPU("cpu0")},
	})
	if _, err := tc.plat.ConnectServer("node0"); err != nil {
		t.Fatal(err)
	}
	devs, _ := tc.plat.Devices(cl.DeviceTypeAll)
	ctx, _ := tc.plat.CreateContext(devs)
	defer ctx.Release()
	// A syntax error, and a recursive helper: what the daemon's compiler
	// refuses comes back as a build failure with the daemon's log.
	for _, bad := range []struct{ src, log string }{
		{"kernel void k(global float* o) { o[0] = }", "expected expression"},
		{"int down(int x) { if (x > 0) { return down(x - 1); } return 0; }\n" +
			"kernel void k(global int* o) { o[0] = down(3); }", "1:39: recursive call to down"},
	} {
		prog, err := ctx.CreateProgramWithSource(bad.src)
		if err != nil {
			t.Fatal(err)
		}
		err = prog.Build(nil, "")
		if cl.CodeOf(err) != cl.BuildProgramFailure {
			t.Fatalf("Build error = %v", err)
		}
		if log := prog.BuildLog(devs[0]); !strings.Contains(log, bad.log) {
			t.Fatalf("build log = %q, want %q", log, bad.log)
		}
		if _, err := prog.CreateKernel("k"); err == nil {
			t.Fatal("CreateKernel should fail for unbuilt program")
		}
	}
}

func TestServerListConfig(t *testing.T) {
	cfg := `
# connect to server 'gpuserver.example.com'
gpuserver.example.com

# connect to server in local network
128.129.1.1:7079   # trailing comment
`
	servers, err := ParseServerList(strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"gpuserver.example.com", "128.129.1.1:7079"}
	if len(servers) != len(want) {
		t.Fatalf("servers = %v", servers)
	}
	for i := range want {
		if servers[i] != want[i] {
			t.Fatalf("servers[%d] = %q, want %q", i, servers[i], want[i])
		}
	}
}

func TestLoadServerConfigConnects(t *testing.T) {
	tc := newTestCluster(t, map[string][]device.Config{
		"a": {device.TestCPU("cpuA")},
		"b": {device.TestCPU("cpuB")},
	})
	servers, err := tc.plat.LoadServerConfig(strings.NewReader("a\nb\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(servers) != 2 {
		t.Fatalf("connected %d servers", len(servers))
	}
	devs, err := tc.plat.Devices(cl.DeviceTypeAll)
	if err != nil || len(devs) != 2 {
		t.Fatalf("devices: %v %v", devs, err)
	}
}

func TestManagerConfigParse(t *testing.T) {
	cfg := `
<devmngr>devmngr.example.com</devmngr>
<devices>
	<device count="2">
		<attribute name="TYPE">CPU</attribute>
		<attribute name="VENDOR">Intel</attribute>
		<attribute name="MAX_COMPUTE_UNITS">2</attribute>
	</device>
	<device>
		<attribute name="TYPE">GPU</attribute>
	</device>
</devices>
`
	mc, err := ParseManagerConfig(strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if mc.Manager != "devmngr.example.com" {
		t.Errorf("manager = %q", mc.Manager)
	}
	if len(mc.Requests) != 2 {
		t.Fatalf("requests = %+v", mc.Requests)
	}
	r0 := mc.Requests[0]
	if r0.Count != 2 || r0.Type != cl.DeviceTypeCPU || r0.Vendor != "Intel" || r0.MinComputeUnits != 2 {
		t.Errorf("request 0 = %+v", r0)
	}
	r1 := mc.Requests[1]
	if r1.Count != 1 || r1.Type != cl.DeviceTypeGPU {
		t.Errorf("request 1 = %+v", r1)
	}
}
