package device

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/kernel"
	"dopencl/internal/vm"
)

const busyKernel = `
kernel void busy(global float* o, int iters) {
	int i = get_global_id(0);
	float acc = 0.0;
	for (int k = 0; k < iters; k++) { acc = acc + 1.0; }
	o[i] = acc;
}
`

func busyLaunch(t *testing.T, items, iters int) vm.Launch {
	t.Helper()
	prog, err := kernel.Compile(busyKernel)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := prog.Kernel("busy")
	return vm.Launch{
		Prog: prog, Kernel: fn,
		Args:       []vm.Arg{vm.GlobalArg(make([]byte, 4*items)), vm.IntArg(int32(iters))},
		GlobalSize: []int{items},
	}
}

func TestConfigDefaults(t *testing.T) {
	d := New(Config{Name: "d", Type: cl.DeviceTypeGPU})
	info := d.Info()
	if info.ComputeUnits != 1 || info.MaxWorkGroupSize != 1024 || info.LocalMemSize != 32<<10 {
		t.Errorf("defaults not applied: %+v", info)
	}
	if d.Config().TimeScale != 1.0 || d.Config().SampleGroups != 8 {
		t.Errorf("config defaults: %+v", d.Config())
	}
}

func TestTransferTimeModel(t *testing.T) {
	d := New(Config{
		Name: "d", Type: cl.DeviceTypeGPU,
		Bus: BusConfig{WriteBps: 1e9, ReadBps: 1e8, LatencySec: 1e-3},
	})
	w := d.TransferTime(1e9, false)
	r := d.TransferTime(1e9, true)
	if w < time.Second || w > 1100*time.Millisecond {
		t.Errorf("write time = %v, want ~1s", w)
	}
	if r < 10*time.Second || r > 10100*time.Millisecond {
		t.Errorf("read time = %v, want ~10s", r)
	}
	// Unmodeled bus: latency only.
	free := New(Config{Name: "f"})
	if ft := free.TransferTime(1e9, false); ft != 0 {
		t.Errorf("unmodeled transfer time = %v", ft)
	}
}

func TestRealExecutionProducesOutput(t *testing.T) {
	d := New(Config{Name: "d", ComputeUnits: 2, Mode: ExecReal})
	l := busyLaunch(t, 64, 10)
	if _, err := d.Execute(l); err != nil {
		t.Fatal(err)
	}
	// Output buffer must hold the computed value 10.0 for every item.
	out := l.Args[0].Global
	if out[0] == 0 && out[1] == 0 && out[2] == 0 && out[3] == 0 {
		t.Fatal("real execution produced no output")
	}
}

func TestModeledExecutionScalesWithWork(t *testing.T) {
	d := New(Config{
		Name: "d", ComputeUnits: 1, Mode: ExecModeled,
		InstrPerSec: 1e9, TimeScale: 0.01, SampleGroups: 2,
	})
	small, err := d.Execute(busyLaunch(t, 256, 100))
	if err != nil {
		t.Fatal(err)
	}
	big, err := d.Execute(busyLaunch(t, 4096, 100))
	if err != nil {
		t.Fatal(err)
	}
	if small <= 0 || big <= 0 {
		t.Fatalf("modeled durations: small=%v big=%v", small, big)
	}
	ratio := float64(big) / float64(small)
	if ratio < 8 || ratio > 32 {
		t.Errorf("16x work gave %vx modeled time", ratio)
	}
}

func TestDeviceSerializesCommands(t *testing.T) {
	// Two concurrent launches on one device must serialize: the Fig. 6
	// contention behaviour. The engine counts the commands inside it; the
	// second command — a batch, the serve path's entry — is issued while
	// the first, a 20 ms modeled launch, is inside, so without the compute
	// engine the count would peak at 2.
	l := busyLaunch(t, 2048, 200)
	perItem, err := PrewarmCost(busyKernel, "busy", l.Args, l.GlobalSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	d := New(Config{
		Name: "d", ComputeUnits: 1, Mode: ExecModeled, InstrPerSec: perItem * 2048 / 0.020,
	})
	// A launch that ends before this goroutine sees it inside proves
	// nothing either way: issue another.
	var first chan struct{}
	for seen := false; !seen; {
		first = make(chan struct{})
		go func(done chan struct{}) {
			defer close(done)
			if _, err := d.Execute(l); err != nil {
				t.Error(err)
			}
		}(first)
		seen = seenInside(d, first)
	}
	errs, _ := d.ExecuteBatch(vm.Batch{Prog: l.Prog, Kernel: l.Kernel, Jobs: []vm.BatchJob{{Args: l.Args, GlobalSize: l.GlobalSize}}})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	<-first
	if p := d.PeakInside(); p != 1 {
		t.Errorf("%d commands were inside the compute engine at once, want 1", p)
	}
}

// seenInside polls until a command is inside d's compute engine (true) or
// done is closed first (false).
func seenInside(d *Device, done <-chan struct{}) bool {
	for d.Inside() == 0 {
		select {
		case <-done:
			return false
		default:
			runtime.Gosched()
		}
	}
	return true
}

func TestTransferOverlapsRunningKernel(t *testing.T) {
	// The copy engine is not the compute engine: a bus transfer issued
	// while a kernel runs starts at once and returns long before the
	// kernel does (5 ms against 150 ms, both slept).
	l := busyLaunch(t, 2048, 200)
	perItem, err := PrewarmCost(busyKernel, "busy", l.Args, l.GlobalSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	d := New(Config{
		Name: "d", ComputeUnits: 1, Mode: ExecModeled, InstrPerSec: perItem * 2048 / 0.150,
		Bus: BusConfig{LatencySec: 5e-3},
	})
	kernelDone := make(chan struct{})
	go func() {
		defer close(kernelDone)
		if _, err := d.Execute(l); err != nil {
			t.Error(err)
		}
	}()
	for d.compute.TryLock() { // until the kernel holds the compute engine
		d.compute.Unlock()
		time.Sleep(100 * time.Microsecond)
	}
	d.ChargeTransfer(1, true)
	select {
	case <-kernelDone:
		t.Error("transfer returned only after the running kernel: it queued behind the compute engine")
	default:
	}
	<-kernelDone
}

func TestTransfersSerializeOnCopyEngine(t *testing.T) {
	// Two concurrent transfers share one bus: together they take at least
	// twice the modeled time of one (the sleeps never run short, so the
	// bound holds on any host).
	d := New(Config{Name: "d", Bus: BusConfig{LatencySec: 20e-3}})
	one := d.TransferTime(1, false)
	duo := timeIt(func() {
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d.ChargeTransfer(1, false)
			}()
		}
		wg.Wait()
	})
	if duo < 2*one {
		t.Errorf("two concurrent transfers took %v, want >= %v: they overlapped", duo, 2*one)
	}
}

func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

func TestPrewarmCost(t *testing.T) {
	perItem, err := PrewarmCost(busyKernel, "busy",
		[]vm.Arg{vm.GlobalArg(make([]byte, 4*1024)), vm.IntArg(50)},
		[]int{1024}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// ~50 loop iterations × a handful of instructions each.
	if perItem < 100 || perItem > 5000 {
		t.Errorf("perItem = %v, want O(few hundred)", perItem)
	}
	if _, err := PrewarmCost("kernel void k() {}", "missing", nil, []int{1}, 1); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	if _, err := PrewarmCost("not valid source", "k", nil, []int{1}, 1); err == nil {
		t.Fatal("invalid source accepted")
	}
}

func TestPresetsAreSane(t *testing.T) {
	for _, cfg := range []Config{
		WestmereCPU(0.1), TeslaGPU(0.1), NVS3100M(0.1), XeonE5520(0.1),
		TestCPU("t"), TestGPU("t"),
	} {
		if cfg.Name == "" || cfg.ComputeUnits <= 0 || cfg.GlobalMemSize <= 0 {
			t.Errorf("preset incomplete: %+v", cfg)
		}
	}
	if TeslaGPU(1).Bus.ReadBps >= TeslaGPU(1).Bus.WriteBps {
		t.Error("PCIe reads must be slower than writes (paper Section V-D)")
	}
	if WestmereCPU(1).Type != cl.DeviceTypeCPU || TeslaGPU(1).Type != cl.DeviceTypeGPU {
		t.Error("preset device types wrong")
	}
}
