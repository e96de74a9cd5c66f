package native

import (
	"encoding/binary"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/device"
)

func testPlatform() *Platform {
	return NewPlatform("Test Platform", "dOpenCL test vendor", []device.Config{
		device.TestCPU("cpu0"),
		device.TestGPU("gpu0"),
	})
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

func TestPlatformDeviceEnumeration(t *testing.T) {
	p := testPlatform()
	all, err := p.Devices(cl.DeviceTypeAll)
	if err != nil || len(all) != 2 {
		t.Fatalf("Devices(All) = %v, %v; want 2 devices", all, err)
	}
	cpus, err := p.Devices(cl.DeviceTypeCPU)
	if err != nil || len(cpus) != 1 || cpus[0].Type() != cl.DeviceTypeCPU {
		t.Fatalf("Devices(CPU) = %v, %v", cpus, err)
	}
	gpus, err := p.Devices(cl.DeviceTypeGPU)
	if err != nil || len(gpus) != 1 {
		t.Fatalf("Devices(GPU) = %v, %v", gpus, err)
	}
	if _, err := p.Devices(cl.DeviceTypeAccelerator); err == nil {
		t.Fatal("expected DeviceNotFound for accelerators")
	}
	if p.Profile() != "FULL_PROFILE" || p.Name() == "" || p.Vendor() == "" || p.Version() == "" {
		t.Error("platform info incomplete")
	}
}

func TestEndToEndVectorAdd(t *testing.T) {
	p := testPlatform()
	devs, _ := p.Devices(cl.DeviceTypeAll)
	ctx, err := p.CreateContext(devs)
	if err != nil {
		t.Fatalf("CreateContext: %v", err)
	}
	defer ctx.Release()

	const n = 512
	a := make([]float32, n)
	b := make([]float32, n)
	for i := range a {
		a[i] = float32(i)
		b[i] = float32(i * i)
	}

	bufA, err := ctx.CreateBuffer(cl.MemReadOnly|cl.MemCopyHostPtr, 4*n, f32bytes(a))
	if err != nil {
		t.Fatalf("CreateBuffer A: %v", err)
	}
	bufB, err := ctx.CreateBuffer(cl.MemReadOnly, 4*n, nil)
	if err != nil {
		t.Fatalf("CreateBuffer B: %v", err)
	}
	bufOut, err := ctx.CreateBuffer(cl.MemWriteOnly, 4*n, nil)
	if err != nil {
		t.Fatalf("CreateBuffer out: %v", err)
	}

	prog, err := ctx.CreateProgramWithSource(`
kernel void vadd(global float* out, const global float* a, const global float* b, int n) {
	int i = get_global_id(0);
	if (i < n) { out[i] = a[i] + b[i]; }
}`)
	if err != nil {
		t.Fatalf("CreateProgramWithSource: %v", err)
	}
	if err := prog.Build(nil, ""); err != nil {
		t.Fatalf("Build: %v", err)
	}
	names, err := prog.KernelNames()
	if err != nil || len(names) != 1 || names[0] != "vadd" {
		t.Fatalf("KernelNames = %v, %v", names, err)
	}
	k, err := prog.CreateKernel("vadd")
	if err != nil {
		t.Fatalf("CreateKernel: %v", err)
	}
	if k.NumArgs() != 4 {
		t.Fatalf("NumArgs = %d", k.NumArgs())
	}

	q, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatalf("CreateQueue: %v", err)
	}
	defer q.Release()

	if _, err := q.EnqueueWriteBuffer(bufB, true, 0, f32bytes(b), nil); err != nil {
		t.Fatalf("write B: %v", err)
	}
	for i, v := range []any{bufOut, bufA, bufB, int32(n)} {
		if err := k.SetArg(i, v); err != nil {
			t.Fatalf("SetArg %d: %v", i, err)
		}
	}
	ev, err := q.EnqueueNDRangeKernel(k, []int{n}, nil, nil)
	if err != nil {
		t.Fatalf("EnqueueNDRangeKernel: %v", err)
	}
	out := make([]byte, 4*n)
	if _, err := q.EnqueueReadBuffer(bufOut, true, 0, out, []cl.Event{ev}); err != nil {
		t.Fatalf("read out: %v", err)
	}
	for i, v := range bytesF32(out) {
		if want := a[i] + b[i]; v != want {
			t.Fatalf("out[%d] = %v, want %v", i, v, want)
		}
	}
}

func TestQueueOrderingAndFinish(t *testing.T) {
	p := testPlatform()
	devs, _ := p.Devices(cl.DeviceTypeCPU)
	ctx, _ := p.CreateContext(devs)
	q, _ := ctx.CreateQueue(devs[0])

	buf, _ := ctx.CreateBuffer(cl.MemReadWrite, 4, nil)
	// Enqueue 100 sequential writes; in-order semantics require the final
	// value to be the last write.
	for i := 0; i < 100; i++ {
		data := make([]byte, 4)
		binary.LittleEndian.PutUint32(data, uint32(i))
		if _, err := q.EnqueueWriteBuffer(buf, false, 0, data, nil); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := q.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	out := make([]byte, 4)
	if _, err := q.EnqueueReadBuffer(buf, true, 0, out, nil); err != nil {
		t.Fatalf("read: %v", err)
	}
	if got := binary.LittleEndian.Uint32(out); got != 99 {
		t.Fatalf("final value = %d, want 99", got)
	}
}

func TestEventCallbacksAndMarker(t *testing.T) {
	p := testPlatform()
	devs, _ := p.Devices(cl.DeviceTypeCPU)
	ctx, _ := p.CreateContext(devs)
	q, _ := ctx.CreateQueue(devs[0])
	buf, _ := ctx.CreateBuffer(cl.MemReadWrite, 1024, nil)

	var fired atomic.Int32
	ev, err := q.EnqueueWriteBuffer(buf, false, 0, make([]byte, 1024), nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	err = ev.SetCallback(cl.Complete, func(e cl.Event, s cl.CommandStatus) {
		fired.Add(1)
		close(done)
	})
	if err != nil {
		t.Fatalf("SetCallback: %v", err)
	}
	marker, err := q.EnqueueMarker()
	if err != nil {
		t.Fatal(err)
	}
	if err := marker.Wait(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("callback did not fire")
	}
	if fired.Load() != 1 {
		t.Fatalf("callback fired %d times", fired.Load())
	}
	// Registering on an already-complete event fires immediately.
	var lateFired atomic.Int32
	if err := ev.SetCallback(cl.Complete, func(cl.Event, cl.CommandStatus) { lateFired.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if lateFired.Load() != 1 {
		t.Fatal("late callback should fire synchronously")
	}
	if ev.Status() != cl.Complete {
		t.Fatalf("status = %v", ev.Status())
	}
}

func TestUserEventGatesQueue(t *testing.T) {
	p := testPlatform()
	devs, _ := p.Devices(cl.DeviceTypeCPU)
	ctx, _ := p.CreateContext(devs)
	q, _ := ctx.CreateQueue(devs[0])
	buf, _ := ctx.CreateBuffer(cl.MemReadWrite, 4, nil)

	ue, err := ctx.CreateUserEvent()
	if err != nil {
		t.Fatal(err)
	}
	data := []byte{1, 2, 3, 4}
	ev, err := q.EnqueueWriteBuffer(buf, false, 0, data, []cl.Event{ue})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-waitDone(ev):
		t.Fatal("command ran before user event completed")
	case <-time.After(50 * time.Millisecond):
	}
	if err := ue.SetStatus(cl.Complete); err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 4)
	if _, err := q.EnqueueReadBuffer(buf, true, 0, out, nil); err != nil {
		t.Fatal(err)
	}
	if string(out) != string(data) {
		t.Fatalf("data = %v", out)
	}
}

func waitDone(ev cl.Event) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		ev.Wait() //nolint:errcheck // status checked by caller
		close(ch)
	}()
	return ch
}

func TestFailedUserEventPropagates(t *testing.T) {
	p := testPlatform()
	devs, _ := p.Devices(cl.DeviceTypeCPU)
	ctx, _ := p.CreateContext(devs)
	q, _ := ctx.CreateQueue(devs[0])
	buf, _ := ctx.CreateBuffer(cl.MemReadWrite, 4, nil)

	ue, _ := ctx.CreateUserEvent()
	ev, err := q.EnqueueWriteBuffer(buf, false, 0, []byte{1, 2, 3, 4}, []cl.Event{ue})
	if err != nil {
		t.Fatal(err)
	}
	if err := ue.SetStatus(cl.CommandStatus(cl.OutOfResources)); err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err == nil {
		t.Fatal("expected error from failed wait event")
	}
	if ev.Status() >= 0 {
		t.Fatalf("status should be negative, got %v", ev.Status())
	}
}

// buildFailures are sources the compiler refuses, with what the build log
// must say: a syntax error, and the refusals of things older versions ran
// on a second engine or inlined without bound.
var buildFailures = []struct{ name, src, log string }{
	{"syntax", `kernel void broken(global float* o) { o[0] = ; }`, "expected expression"},
	{"recursion", `int down(int x) { if (x > 0) { return down(x - 1); } return 0; }
kernel void broken(global int* o) { o[0] = down(3); }`, "1:39: recursive call to down"},
	{"too-large", "void f3() {}\nvoid f2() { " + strings.Repeat("f3(); ", 100) + "}\nvoid f1() { " +
		strings.Repeat("f2(); ", 100) + "}\nkernel void broken() { " + strings.Repeat("f1(); ", 100) + "}",
		"4:1: broken is too large to compile"},
}

func TestBuildFailureLog(t *testing.T) {
	p := testPlatform()
	devs, _ := p.Devices(cl.DeviceTypeCPU)
	ctx, _ := p.CreateContext(devs)
	for _, tc := range buildFailures {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := ctx.CreateProgramWithSource(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			err = prog.Build(nil, "")
			if err == nil {
				t.Fatal("expected build failure")
			}
			if cl.CodeOf(err) != cl.BuildProgramFailure {
				t.Fatalf("code = %v", cl.CodeOf(err))
			}
			log := prog.BuildLog(devs[0])
			if !strings.Contains(log, tc.log) {
				t.Fatalf("build log %q lacks %q", log, tc.log)
			}
			if _, err := prog.CreateKernel("broken"); err == nil {
				t.Fatal("CreateKernel must fail on unbuilt program")
			}
		})
	}
}

func TestKernelArgErrors(t *testing.T) {
	p := testPlatform()
	devs, _ := p.Devices(cl.DeviceTypeCPU)
	ctx, _ := p.CreateContext(devs)
	prog, _ := ctx.CreateProgramWithSource(`kernel void k(global float* o, int n, float x, local float* s) { o[0] = x; }`)
	if err := prog.Build(nil, ""); err != nil {
		t.Fatal(err)
	}
	k, _ := prog.CreateKernel("k")
	buf, _ := ctx.CreateBuffer(cl.MemReadWrite, 16, nil)

	if err := k.SetArg(9, buf); cl.CodeOf(err) != cl.InvalidArgIndex {
		t.Errorf("out-of-range index: %v", err)
	}
	if err := k.SetArg(0, int32(3)); cl.CodeOf(err) != cl.InvalidArgValue {
		t.Errorf("scalar for buffer arg: %v", err)
	}
	if err := k.SetArg(1, buf); cl.CodeOf(err) != cl.InvalidArgValue {
		t.Errorf("buffer for int arg: %v", err)
	}
	if err := k.SetArg(3, cl.LocalSpace{}); cl.CodeOf(err) != cl.InvalidArgSize {
		t.Errorf("zero local space: %v", err)
	}
	// Launch with unset args must fail.
	q, _ := ctx.CreateQueue(devs[0])
	if err := k.SetArg(0, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueNDRangeKernel(k, []int{1}, nil, nil); cl.CodeOf(err) != cl.InvalidKernelArgs {
		t.Errorf("launch with unset args: %v", err)
	}
}

func TestBufferValidation(t *testing.T) {
	p := testPlatform()
	devs, _ := p.Devices(cl.DeviceTypeCPU)
	ctx, _ := p.CreateContext(devs)
	if _, err := ctx.CreateBuffer(cl.MemReadWrite, 0, nil); cl.CodeOf(err) != cl.InvalidBufferSize {
		t.Errorf("zero size: %v", err)
	}
	if _, err := ctx.CreateBuffer(cl.MemCopyHostPtr, 8, []byte{1}); cl.CodeOf(err) != cl.InvalidValue {
		t.Errorf("short host data: %v", err)
	}
	buf, _ := ctx.CreateBuffer(cl.MemReadWrite, 8, nil)
	q, _ := ctx.CreateQueue(devs[0])
	if _, err := q.EnqueueWriteBuffer(buf, true, 6, []byte{1, 2, 3, 4}, nil); cl.CodeOf(err) != cl.InvalidValue {
		t.Errorf("overflowing write: %v", err)
	}
	if _, err := q.EnqueueReadBuffer(buf, true, -1, make([]byte, 2), nil); cl.CodeOf(err) != cl.InvalidValue {
		t.Errorf("negative offset: %v", err)
	}
	for _, bad := range [][3]int{{8, 8, -8}, {0, 4, 8}, {-1, 0, 4}, {4, 0, math.MaxInt}} {
		if _, err := q.EnqueueCopyBuffer(buf, buf, bad[0], bad[1], bad[2], nil); cl.CodeOf(err) != cl.InvalidValue {
			t.Errorf("copy src+%d dst+%d size %d: %v", bad[0], bad[1], bad[2], err)
		}
	}
}

func TestEnqueueCopyBuffer(t *testing.T) {
	p := testPlatform()
	devs, _ := p.Devices(cl.DeviceTypeCPU)
	ctx, _ := p.CreateContext(devs)
	q, _ := ctx.CreateQueue(devs[0])
	src, _ := ctx.CreateBuffer(cl.MemReadWrite|cl.MemCopyHostPtr, 8, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	dst, _ := ctx.CreateBuffer(cl.MemReadWrite, 8, nil)
	ev, err := q.EnqueueCopyBuffer(src, dst, 2, 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 8)
	if _, err := q.EnqueueReadBuffer(dst, true, 0, out, nil); err != nil {
		t.Fatal(err)
	}
	if string(out[:4]) != string([]byte{3, 4, 5, 6}) {
		t.Fatalf("copy result = %v", out)
	}
}

func TestReleasedQueueRejectsWork(t *testing.T) {
	p := testPlatform()
	devs, _ := p.Devices(cl.DeviceTypeCPU)
	ctx, _ := p.CreateContext(devs)
	q, _ := ctx.CreateQueue(devs[0])
	buf, _ := ctx.CreateBuffer(cl.MemReadWrite, 4, nil)
	if err := q.Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueWriteBuffer(buf, false, 0, make([]byte, 4), nil); cl.CodeOf(err) != cl.InvalidCommandQueue {
		t.Fatalf("enqueue after release: %v", err)
	}
}

func TestContextDeviceOwnership(t *testing.T) {
	p1 := testPlatform()
	p2 := testPlatform()
	devs1, _ := p1.Devices(cl.DeviceTypeAll)
	devs2, _ := p2.Devices(cl.DeviceTypeAll)
	if _, err := p1.CreateContext(devs2); cl.CodeOf(err) != cl.InvalidDevice {
		t.Errorf("foreign devices: %v", err)
	}
	ctx, _ := p1.CreateContext(devs1[:1])
	if _, err := ctx.CreateQueue(devs1[1]); cl.CodeOf(err) != cl.InvalidDevice {
		t.Errorf("device outside context: %v", err)
	}
}

// modeledSpin builds a one-compute-unit modeled device (1e6 instr/s,
// durations compressed by timeScale), a context on it, and the spin
// kernel bound to its output buffer: a 1024-item launch is ~0.2 s of
// modeled time.
func modeledSpin(t *testing.T, timeScale float64, bus device.BusConfig) (cl.Context, cl.Device, cl.Kernel) {
	t.Helper()
	p := NewPlatform("modeled", "test", []device.Config{{
		Name: "modeled", Type: cl.DeviceTypeGPU, ComputeUnits: 1,
		Mode: device.ExecModeled, InstrPerSec: 1e6, TimeScale: timeScale,
		GlobalMemSize: 1 << 20, Bus: bus,
	}})
	devs, _ := p.Devices(cl.DeviceTypeAll)
	ctx, _ := p.CreateContext(devs)
	prog, _ := ctx.CreateProgramWithSource(`
kernel void spin(global float* o) {
	int i = get_global_id(0);
	float acc = 0.0;
	for (int k = 0; k < 100; k++) { acc = acc + 1.0; }
	o[i] = acc;
}`)
	if err := prog.Build(nil, ""); err != nil {
		t.Fatal(err)
	}
	k, _ := prog.CreateKernel("spin")
	buf, _ := ctx.CreateBuffer(cl.MemReadWrite, 4*1024, nil)
	if err := k.SetArg(0, buf); err != nil {
		t.Fatal(err)
	}
	return ctx, devs[0], k
}

func TestModeledDeviceSleeps(t *testing.T) {
	// A modeled device with known throughput must take roughly the
	// modeled time (scaled).
	ctx, dev, k := modeledSpin(t, 0.05, device.BusConfig{})
	q, _ := ctx.CreateQueue(dev)
	start := time.Now()
	ev, err := q.EnqueueNDRangeKernel(k, []int{1024}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// ~0.2 s modeled, scaled by 0.05 → ~10 ms. Accept a generous window.
	if elapsed < 5*time.Millisecond {
		t.Errorf("modeled execution too fast: %v", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Errorf("modeled execution too slow: %v", elapsed)
	}
}

func TestReadOverlapsKernelOnAnotherQueue(t *testing.T) {
	// The device's copy engine is not its compute engine: a read on a
	// second queue of the device completes while the first queue's kernel
	// (~100 ms slept, against a 5 ms bus transfer) is still running.
	ctx, dev, k := modeledSpin(t, 0.5, device.BusConfig{LatencySec: 10e-3})
	compute, _ := ctx.CreateQueue(dev)
	transfer, _ := ctx.CreateQueue(dev)
	other, _ := ctx.CreateBuffer(cl.MemReadWrite|cl.MemCopyHostPtr, 4, []byte{1, 2, 3, 4})
	kev, err := compute.EnqueueNDRangeKernel(k, []int{1024}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for kev.Status() != cl.Running {
		time.Sleep(100 * time.Microsecond)
	}
	got := make([]byte, 4)
	if _, err := transfer.EnqueueReadBuffer(other, true, 0, got, nil); err != nil {
		t.Fatal(err)
	}
	if st := kev.Status(); st != cl.Running {
		t.Errorf("kernel event is %v when the other queue's read returned, want Running: the read queued behind the kernel", st)
	}
	if string(got) != "\x01\x02\x03\x04" {
		t.Errorf("read returned %v", got)
	}
	if err := kev.Wait(); err != nil {
		t.Fatal(err)
	}
}
