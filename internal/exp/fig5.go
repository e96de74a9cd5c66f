package exp

import (
	"fmt"
	"time"

	"dopencl/internal/apps/osem"
	"dopencl/internal/cl"
	"dopencl/internal/device"
	"dopencl/internal/native"
	"dopencl/internal/simnet"
	"dopencl/internal/testbed"
	"dopencl/internal/vm"
)

// Fig5Entry is one bar of Fig. 5: the mean list-mode OSEM iteration
// runtime in one configuration.
type Fig5Entry struct {
	Config        string
	MeanIteration float64
}

// Fig5Result holds the three bars of the figure.
type Fig5Result struct {
	Entries []Fig5Entry
}

// Table renders the figure's data.
func (r *Fig5Result) Table() *Table {
	t := &Table{
		Title:   "Figure 5: mean list-mode OSEM iteration runtime (modeled seconds)",
		Columns: []string{"configuration", "mean iteration [s]"},
		Notes: []string{
			"paper: 15.7 s on the desktop GPU vs 4.2 s offloading via dOpenCL (3.75x); native server fastest",
			"device throughputs calibrated to the paper's desktop/server compute times; the dOpenCL bar emerges from the middleware + GigE model",
		},
	}
	for _, e := range r.Entries {
		t.AddRow(e.Config, secs(e.MeanIteration))
	}
	return t
}

// Speedup returns mean(desktop OpenCL) / mean(desktop dOpenCL), the
// paper's headline 3.75×.
func (r *Fig5Result) Speedup() float64 {
	var local, remote float64
	for _, e := range r.Entries {
		switch e.Config {
		case "Desktop PC using OpenCL":
			local = e.MeanIteration
		case "Desktop PC using dOpenCL":
			remote = e.MeanIteration
		}
	}
	if remote == 0 {
		return 0
	}
	return local / remote
}

// fig5Workload builds the synthetic PET workload: sized so that the
// per-iteration event upload is a few hundred megabytes (the "huge
// amounts of data" of Section V-B) while the compute kernels stay
// sampleable.
type fig5Workload struct {
	params    osem.Params
	dataScale float64
}

func newFig5Workload(quick bool) fig5Workload {
	vol := osem.Volume{NX: 32, NY: 32, NZ: 32}
	// The paper's list-mode data is hundreds of megabytes per iteration;
	// with data scaling (payloads and bandwidths both divided by
	// DataScale) the harness moves 1/DataScale of the bytes while modeled
	// transfer times stay those of the full ~200 MB/iteration upload.
	nEvents := 1 << 19 // ≈ 12.6 MB real ≈ 201 MB equivalent at DataScale 16
	dataScale := 16.0
	if quick {
		nEvents = 1 << 17
		dataScale = 64.0
	}
	events := osem.SynthesizeEvents(vol, nEvents, 42)
	return fig5Workload{
		params: osem.Params{
			Vol: vol, Events: events, Subsets: 4, Iterations: 1, NSamples: 8,
		},
		dataScale: dataScale,
	}
}

// calibrateFig5 derives the modeled device rates from the workload's
// measured per-item kernel costs so that the pure-compute time of the
// desktop GPU and the server GPU match the paper's anchors (15.5 s and
// 2.2 s per iteration). Everything else — transfer times, protocol
// overhead, the resulting dOpenCL bar — emerges from the system model.
func calibrateFig5(w fig5Workload, scale float64) (desktop, server device.Config, err error) {
	p := w.params
	nv := p.Vol.Voxels()
	subset := (len(p.Events) + p.Subsets - 1) / p.Subsets

	// Sample per-item costs of the two expensive kernels.
	evBytes := osem.PackEvents(p.Events[:subset])
	qBuf := make([]byte, 4*subset)
	imgBuf := make([]byte, 4*nv)
	corrBuf := make([]byte, 4*nv)
	fwdPerItem, err := device.PrewarmCost(osem.KernelSource, "forward",
		[]vm.Arg{
			vm.GlobalArg(qBuf), vm.GlobalArg(imgBuf), vm.GlobalArg(evBytes),
			vm.IntArg(int32(subset)),
			vm.IntArg(int32(p.Vol.NX)), vm.IntArg(int32(p.Vol.NY)), vm.IntArg(int32(p.Vol.NZ)),
			vm.IntArg(int32(p.NSamples)),
		}, []int{subset}, 2)
	if err != nil {
		return desktop, server, fmt.Errorf("fig5 prewarm forward: %w", err)
	}
	bwdPerItem, err := device.PrewarmCost(osem.KernelSource, "backward",
		[]vm.Arg{
			vm.GlobalArg(corrBuf), vm.GlobalArg(qBuf), vm.GlobalArg(evBytes),
			vm.IntArg(int32(subset)),
			vm.IntArg(int32(p.Vol.NX)), vm.IntArg(int32(p.Vol.NY)), vm.IntArg(int32(p.Vol.NZ)),
			vm.IntArg(int32(p.NSamples)),
		}, []int{nv}, 1)
	if err != nil {
		return desktop, server, fmt.Errorf("fig5 prewarm backward: %w", err)
	}
	if _, err := device.PrewarmCost(osem.KernelSource, "update",
		[]vm.Arg{vm.GlobalArg(imgBuf), vm.GlobalArg(corrBuf), vm.IntArg(int32(nv))},
		[]int{nv}, 2); err != nil {
		return desktop, server, fmt.Errorf("fig5 prewarm update: %w", err)
	}

	// Total instructions per full iteration.
	totalInstr := float64(p.Subsets) * (fwdPerItem*float64(subset) + bwdPerItem*float64(nv))

	// Paper anchors (per iteration, compute only).
	const desktopComputeSec = 15.5
	const serverComputeSec = 2.2

	desktop = device.NVS3100M(scale)
	desktop.InstrPerSec = totalInstr / desktopComputeSec / float64(desktop.ComputeUnits)
	desktop.Bus = scaleBus(desktop.Bus, w.dataScale)
	server = device.TeslaGPU(scale)
	server.InstrPerSec = totalInstr / serverComputeSec / float64(server.ComputeUnits)
	server.Bus = scaleBus(server.Bus, w.dataScale)
	return desktop, server, nil
}

// RunFig5 reproduces the list-mode OSEM experiment of Section V-B: the
// same OpenCL application runs (a) on the desktop's low-end GPU via the
// native runtime, (b) on the desktop offloading to the remote 4-GPU
// server via dOpenCL over Gigabit Ethernet, and (c) natively on the
// server.
func RunFig5(opt Options) (*Fig5Result, error) {
	scale := opt.scaleOr(0.1)
	sec := func(d time.Duration) float64 { return d.Seconds() / scale }
	w := newFig5Workload(opt.Quick)
	desktopCfg, serverCfg, err := calibrateFig5(w, scale)
	if err != nil {
		return nil, err
	}

	res := &Fig5Result{}

	// (a) Desktop PC using OpenCL: local NVS 3100M.
	opt.logf("fig5: desktop local OpenCL")
	desktopPlat := native.NewPlatform("desktop", "simulated", []device.Config{desktopCfg})
	devs, err := desktopPlat.Devices(cl.DeviceTypeGPU)
	if err != nil {
		return nil, err
	}
	local, err := osem.Reconstruct(desktopPlat, devs[0], w.params)
	if err != nil {
		return nil, fmt.Errorf("fig5 local: %w", err)
	}
	res.Entries = append(res.Entries, Fig5Entry{
		Config:        "Desktop PC using OpenCL",
		MeanIteration: sec(local.MeanIteration),
	})

	// (b) Desktop PC using dOpenCL: offload to the Tesla server over
	// Gigabit Ethernet.
	opt.logf("fig5: desktop offloading via dOpenCL")
	serverDevices := []device.Config{serverCfg, serverCfg, serverCfg, serverCfg}
	cluster, err := testbed.Start(testbed.Spec{
		Link:  scaleLink(simnet.GigabitEthernet(scale), w.dataScale),
		Nodes: map[string][]device.Config{"gpuserver": serverDevices},
	})
	if err != nil {
		return nil, err
	}
	plat := newClient(cluster, "fig5")
	if _, err := plat.ConnectServer("gpuserver"); err != nil {
		cluster.Close()
		return nil, err
	}
	rdevs, err := plat.Devices(cl.DeviceTypeGPU)
	if err != nil {
		cluster.Close()
		return nil, err
	}
	remote, err := osem.Reconstruct(plat, rdevs[0], w.params)
	cluster.Close()
	if err != nil {
		return nil, fmt.Errorf("fig5 dOpenCL: %w", err)
	}
	res.Entries = append(res.Entries, Fig5Entry{
		Config:        "Desktop PC using dOpenCL",
		MeanIteration: sec(remote.MeanIteration),
	})

	// (c) Server using native OpenCL.
	opt.logf("fig5: native on server")
	serverPlat := native.NewPlatform("gpuserver", "simulated", serverDevices)
	sdevs, err := serverPlat.Devices(cl.DeviceTypeGPU)
	if err != nil {
		return nil, err
	}
	nativeRes, err := osem.Reconstruct(serverPlat, sdevs[0], w.params)
	if err != nil {
		return nil, fmt.Errorf("fig5 native: %w", err)
	}
	res.Entries = append(res.Entries, Fig5Entry{
		Config:        "Server using native OpenCL",
		MeanIteration: sec(nativeRes.MeanIteration),
	})
	return res, nil
}
