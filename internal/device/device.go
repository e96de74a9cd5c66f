// Package device models the compute devices behind the native OpenCL
// runtime: CPUs and GPUs with a compute-engine (kernel execution) and a
// bus (host↔device transfer) component.
//
// Two engine modes exist:
//
//   - ExecReal runs the MiniCL VM on the host's cores. It produces correct
//     kernel output and is used by tests, examples and applications.
//   - ExecModeled estimates execution time instead: the VM executes a small
//     sample of work-groups (so per-item cost reflects the actual kernel,
//     e.g. Mandelbrot iteration counts), extrapolates the total instruction
//     count and sleeps for totalInstructions / (throughput × computeUnits),
//     scaled by the experiment's time-scale factor. This is how the
//     benchmark harness reproduces clusters of 16 twelve-core nodes or a
//     4-GPU Tesla server on a laptop.
//
// The bus model charges transfer time for host↔device copies with
// asymmetric read/write bandwidth, reproducing the PCIe behaviour measured
// in Section V-D of the paper (reads up to 15× slower than writes).
package device

import (
	"sync"
	"sync/atomic"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/hrtime"
	"dopencl/internal/kernel"
	"dopencl/internal/vm"
)

// ExecMode selects how a device executes kernels.
type ExecMode int

const (
	// ExecReal runs kernels on the host CPU via the MiniCL VM.
	ExecReal ExecMode = iota
	// ExecModeled samples the kernel and sleeps for the modeled duration.
	ExecModeled
)

// Config describes a simulated device.
type Config struct {
	Name             string
	Vendor           string
	Type             cl.DeviceType
	ComputeUnits     int
	ClockMHz         int
	GlobalMemSize    int64
	LocalMemSize     int64
	MaxWorkGroupSize int

	Mode ExecMode
	// InstrPerSec is the modeled per-compute-unit execution rate in
	// register-IR instructions per second, the unit vm.Stats counts in
	// (ExecModeled only).
	InstrPerSec float64
	// SampleGroups bounds the number of work-groups executed for cost
	// sampling (ExecModeled). Zero selects a default of 8.
	SampleGroups int
	// Workers bounds VM parallelism for ExecReal; zero uses ComputeUnits.
	Workers int

	// Bus is the host↔device transfer model; zero values disable
	// transfer-time modeling (instantaneous copies).
	Bus BusConfig

	// TimeScale compresses modeled durations: a modeled duration d is
	// slept as d×TimeScale and reported as d. Zero means 1.0 (real time).
	TimeScale float64
}

// BusConfig models the device's system bus (PCIe in the paper).
type BusConfig struct {
	WriteBps   float64 // host→device bandwidth, bytes/second (0 = infinite)
	ReadBps    float64 // device→host bandwidth, bytes/second (0 = infinite)
	LatencySec float64 // per-transfer setup latency
}

// Device is an instantiated simulated device with the two engines of the
// paper's hardware. Kernels and batches serialize on the compute engine
// even when fed from multiple command queues — the contention that makes
// unmanaged device sharing slow in Fig. 6 — and bus transfers serialize on
// the copy engine; a transfer and a kernel overlap each other. Neither
// engine orders a transfer against a kernel that touches the same bytes:
// that ordering is the caller's, by event wait lists and in-order queues
// (the engines model time, they protect no data: the native queue copies
// the bytes outside both).
type Device struct {
	cfg     Config
	info    cl.DeviceInfo
	compute sync.Mutex // held for the duration of a kernel launch or batch
	copy    sync.Mutex // held for the modeled duration of a bus transfer

	// inside counts the launches and batches in the compute engine and
	// peak is its high-water mark: the engine serializes them, so peak
	// never exceeds 1 (tests read it).
	inside, peak atomic.Int32
}

// New instantiates a device from its configuration.
func New(cfg Config) *Device {
	if cfg.ComputeUnits <= 0 {
		cfg.ComputeUnits = 1
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1.0
	}
	if cfg.SampleGroups <= 0 {
		cfg.SampleGroups = 8
	}
	if cfg.MaxWorkGroupSize <= 0 {
		cfg.MaxWorkGroupSize = 1024
	}
	if cfg.LocalMemSize <= 0 {
		cfg.LocalMemSize = 32 << 10
	}
	info := cl.DeviceInfo{
		Name:             cfg.Name,
		Vendor:           cfg.Vendor,
		Type:             cfg.Type,
		ComputeUnits:     cfg.ComputeUnits,
		ClockMHz:         cfg.ClockMHz,
		GlobalMemSize:    cfg.GlobalMemSize,
		LocalMemSize:     cfg.LocalMemSize,
		MaxWorkGroupSize: cfg.MaxWorkGroupSize,
		MaxAllocSize:     cfg.GlobalMemSize / 4,
		Version:          "OpenCL 1.1 dOpenCL-sim",
	}
	return &Device{cfg: cfg, info: info}
}

// Info returns the device's immutable description.
func (d *Device) Info() cl.DeviceInfo { return d.info }

// Config returns the device's configuration.
func (d *Device) Config() Config { return d.cfg }

// sleepScaled sleeps for d compressed by the device's time scale and
// returns the unscaled modeled duration.
func (d *Device) sleepScaled(dur time.Duration) time.Duration {
	if dur <= 0 {
		return 0
	}
	hrtime.Sleep(time.Duration(float64(dur) * d.cfg.TimeScale))
	return dur
}

// TransferTime returns the modeled duration of moving n bytes across the
// device bus. read selects the device→host direction.
func (d *Device) TransferTime(n int, read bool) time.Duration {
	bps := d.cfg.Bus.WriteBps
	if read {
		bps = d.cfg.Bus.ReadBps
	}
	dur := time.Duration(d.cfg.Bus.LatencySec * float64(time.Second))
	if bps > 0 {
		dur += time.Duration(float64(n) / bps * float64(time.Second))
	}
	return dur
}

// ChargeTransfer sleeps for the (scaled) modeled bus transfer time and
// returns the modeled duration. Transfers hold the copy engine: they
// serialize with each other and overlap kernels.
func (d *Device) ChargeTransfer(n int, read bool) time.Duration {
	d.copy.Lock()
	defer d.copy.Unlock()
	return d.sleepScaled(d.TransferTime(n, read))
}

// Execute runs a kernel launch on the device, dispatching on the engine
// mode. It returns the modeled execution duration (zero for ExecReal,
// where wall-clock time is the real cost). Launches serialize on the
// compute engine.
func (d *Device) Execute(l vm.Launch) (time.Duration, error) {
	d.compute.Lock()
	defer d.compute.Unlock()
	d.enter()
	defer d.inside.Add(-1)
	switch d.cfg.Mode {
	case ExecModeled:
		return d.executeModeled(l)
	default:
		if l.Workers <= 0 {
			l.Workers = d.cfg.Workers
		}
		if l.Workers <= 0 {
			l.Workers = d.cfg.ComputeUnits
		}
		return 0, vm.Run(l)
	}
}

// ExecuteBatch runs N independent jobs of one compiled kernel as a
// single device dispatch: the compute engine is taken once and — for
// ExecReal — the VM spins up one worker pool for the whole batch
// (vm.RunBatch).
// This is the serve-path coalescing payoff: for many small ND-ranges the
// per-launch fixed costs dominate, and the batch pays them once. Modeled
// devices charge one summed modeled duration for the batch. The returned
// slice has one error slot per job (nil on success).
func (d *Device) ExecuteBatch(b vm.Batch) ([]error, time.Duration) {
	d.compute.Lock()
	defer d.compute.Unlock()
	d.enter()
	defer d.inside.Add(-1)
	if d.cfg.Mode == ExecModeled {
		errs := make([]error, len(b.Jobs))
		var total time.Duration
		for i := range b.Jobs {
			j := &b.Jobs[i]
			dur, err := d.executeModeled(vm.Launch{
				Prog: b.Prog, Kernel: b.Kernel, Args: j.Args,
				GlobalSize: j.GlobalSize, GlobalOffset: j.GlobalOffset,
				LocalSize: j.LocalSize,
			})
			errs[i] = err
			total += dur
		}
		return errs, total
	}
	if b.Workers <= 0 {
		b.Workers = d.cfg.Workers
	}
	if b.Workers <= 0 {
		b.Workers = d.cfg.ComputeUnits
	}
	errs, _ := vm.RunBatch(b)
	return errs, 0
}

// enter counts one more command inside the compute engine.
func (d *Device) enter() {
	n := d.inside.Add(1)
	for p := d.peak.Load(); n > p && !d.peak.CompareAndSwap(p, n); p = d.peak.Load() {
	}
}

// costCache caches instruction-cost estimates across launches, keyed by
// (program, kernel). The first launch of a kernel pays the sampling
// cost; later launches (and warmed-up experiment runs) convert work size
// to time directly. The assumption — one cost profile per kernel of a
// program — holds for the paper's workloads, where every device runs the
// same kernel with the same per-item work.
var costCache sync.Map // costKey → costEntry

type costKey struct {
	src  string // program source (stable across re-created program objects)
	name string
}

// costEntry splits the sampled cost into its per-item and per-group
// components. Fused work-item loops collapse per-item instruction counts
// so far that the once-per-group prologue is no longer negligible;
// extrapolating with a single per-item scalar would misestimate launches
// whose group shape differs from the sampled one.
type costEntry struct {
	perItem       float64
	perGroup      float64
	itemsPerGroup int
}

// instructions extrapolates the entry to a launch with the given totals.
func (e costEntry) instructions(totalItems int) float64 {
	groups := 1.0
	if e.itemsPerGroup > 0 {
		groups = float64(totalItems) / float64(e.itemsPerGroup)
	}
	return e.perItem*float64(totalItems) + e.perGroup*groups
}

func entryFor(stats vm.Stats) costEntry {
	return costEntry{
		perItem: float64(stats.Instructions-stats.PrologueInstructions) /
			float64(stats.GroupsRun*stats.ItemsPerGroup),
		perGroup:      float64(stats.PrologueInstructions) / float64(stats.GroupsRun),
		itemsPerGroup: stats.ItemsPerGroup,
	}
}

// PrewarmCost compiles src, samples the named kernel over the launch shape
// and stores the per-item cost estimate in the global cost cache. The
// experiment harness calls it before timed runs so that no timed
// measurement pays VM sampling cost. It returns the measured instructions
// per work item.
func PrewarmCost(src, kernelName string, args []vm.Arg, global []int, sampleGroups int) (float64, error) {
	prog, err := kernel.Compile(src)
	if err != nil {
		return 0, err
	}
	fn, ok := prog.Kernel(kernelName)
	if !ok {
		return 0, cl.Errf(cl.InvalidKernelName, "kernel %q not in source", kernelName)
	}
	if sampleGroups <= 0 {
		sampleGroups = 4
	}
	stats, err := vm.RunStats(vm.Launch{
		Prog: prog, Kernel: fn, Args: args,
		GlobalSize: global, GroupLimit: sampleGroups, Workers: 1,
	})
	if err != nil {
		return 0, err
	}
	entry := entryFor(stats)
	costCache.Store(costKey{src: src, name: kernelName}, entry)
	// Effective per-item cost including the amortized per-group share,
	// preserving the scalar calibration contract of the exp harness.
	return entry.perItem + entry.perGroup/float64(stats.ItemsPerGroup), nil
}

// executeModeled estimates the launch's instruction count (via cache or a
// sampled VM run) and sleeps for the modeled duration.
func (d *Device) executeModeled(l vm.Launch) (time.Duration, error) {
	rate := d.cfg.InstrPerSec * float64(d.cfg.ComputeUnits)
	totalItems := 1
	for _, g := range l.GlobalSize {
		totalItems *= g
	}
	key := costKey{src: l.Prog.Source, name: l.Kernel.Name}
	if v, ok := costCache.Load(key); ok {
		if rate <= 0 {
			return 0, nil
		}
		dur := time.Duration(v.(costEntry).instructions(totalItems) / rate * float64(time.Second))
		return d.sleepScaled(dur), nil
	}

	start := time.Now()
	sample := l
	sample.GroupLimit = d.cfg.SampleGroups
	sample.Workers = 1
	stats, err := vm.RunStats(sample)
	if err != nil {
		return 0, err
	}
	if stats.GroupsRun == 0 || rate <= 0 {
		return 0, nil
	}
	entry := entryFor(stats)
	costCache.Store(key, entry)
	dur := time.Duration(entry.instructions(totalItems) / rate * float64(time.Second))
	// The sampling run itself consumed wall-clock time; count it against
	// the modeled duration so a cold first launch is not charged twice.
	scaled := time.Duration(float64(dur) * d.cfg.TimeScale)
	if elapsed := time.Since(start); elapsed < scaled {
		hrtime.Sleep(scaled - elapsed)
	}
	return dur, nil
}
