package exp

import (
	"fmt"
	"time"

	"dopencl/internal/apps/mandelbrot"
	"dopencl/internal/cl"
	"dopencl/internal/device"
	"dopencl/internal/native"
	"dopencl/internal/simnet"
	"dopencl/internal/testbed"
	"dopencl/internal/vm"
)

// Fig4Entry is one bar of Fig. 4: the stacked runtime of one variant at
// one device count.
type Fig4Entry struct {
	Devices  int
	Variant  string // "MPI+OpenCL" or "dOpenCL"
	Init     float64
	Exec     float64
	Transfer float64
}

// Total returns the bar height.
func (e Fig4Entry) Total() float64 { return e.Init + e.Exec + e.Transfer }

// Fig4Result holds all bars.
type Fig4Result struct {
	Entries []Fig4Entry
	Params  mandelbrot.Params
}

// Table renders the figure's data.
func (r *Fig4Result) Table() *Table {
	t := &Table{
		Title:   "Figure 4: Mandelbrot runtime, MPI+OpenCL vs dOpenCL (modeled seconds)",
		Columns: []string{"devices", "variant", "init", "exec", "transfer", "total"},
		Notes: []string{
			fmt.Sprintf("fractal %dx%d, <=%d iterations/pixel, row-cyclic distribution, Infiniband-class links",
				r.Params.Width, r.Params.Height, r.Params.MaxIter),
			"Westmere node throughput calibrated so 2 devices take ~16 s (the paper's leftmost bars)",
			"paper: both versions scale; dOpenCL adds a moderate, roughly constant init+transfer overhead",
		},
	}
	for _, e := range r.Entries {
		t.AddRow(fmt.Sprintf("%d", e.Devices), e.Variant,
			secs(e.Init), secs(e.Exec), secs(e.Transfer), secs(e.Total()))
	}
	return t
}

// ExecAt returns the execution-phase seconds for a variant at a device
// count (scaling checks in tests).
func (r *Fig4Result) ExecAt(variant string, devices int) float64 {
	for _, e := range r.Entries {
		if e.Variant == variant && e.Devices == devices {
			return e.Exec
		}
	}
	return 0
}

// fig4Anchor is the paper's approximate 2-device total runtime; node
// throughput is calibrated so the execution phase starts there.
const fig4AnchorSec = 16.0

// RunFig4 reproduces the scalability experiment of Section V-A: the
// Mandelbrot application on a cluster of 12-core Westmere nodes connected
// by Infiniband, 2 to 16 devices, comparing the MPI+OpenCL baseline with
// the unmodified OpenCL application running on dOpenCL.
func RunFig4(opt Options) (*Fig4Result, error) {
	scale := opt.scaleOr(0.05)
	sec := func(d time.Duration) float64 { return d.Seconds() / scale }
	params := mandelbrot.DefaultParams(1200, 800, 20000)
	if opt.Quick {
		params = mandelbrot.DefaultParams(1200, 800, 5000)
	}
	counts := []int{2, 4, 8, 16}

	// Prewarm the kernel's cost profile and calibrate node throughput so
	// the 2-device execution phase lands at the paper's anchor.
	totalItems := params.Width * params.Height
	warmBuf := make([]byte, 4*totalItems)
	dx := (params.XMax - params.XMin) / float64(params.Width)
	dy := (params.YMax - params.YMin) / float64(params.Height)
	perItem, err := device.PrewarmCost(mandelbrot.KernelSource, "mandelbrot",
		[]vm.Arg{
			vm.GlobalArg(warmBuf), vm.IntArg(int32(params.Width)), vm.IntArg(int32(params.Height)),
			vm.IntArg(0), vm.IntArg(1),
			vm.FloatArg(float32(params.XMin)), vm.FloatArg(float32(params.YMin)),
			vm.FloatArg(float32(dx)), vm.FloatArg(float32(dy)),
			vm.IntArg(int32(params.MaxIter)),
		},
		[]int{totalItems}, 12)
	if err != nil {
		return nil, fmt.Errorf("fig4 prewarm: %w", err)
	}
	warmBuf = nil
	nodeCfg := device.WestmereCPU(scale)
	nodeCfg.InstrPerSec = perItem * float64(totalItems) / 2 / fig4AnchorSec / float64(nodeCfg.ComputeUnits)

	res := &Fig4Result{Params: params}
	link := simnet.Infiniband(scale)
	for _, n := range counts {
		// MPI+OpenCL baseline: one rank per node, local native OpenCL.
		opt.logf("fig4: MPI+OpenCL with %d devices", n)
		plats := func(rank int) cl.Platform {
			return native.NewPlatform(fmt.Sprintf("node%d", rank), "simulated",
				[]device.Config{nodeCfg})
		}
		_, tmMPI, err := mandelbrot.RenderMPI(n, link, plats, params)
		if err != nil {
			return nil, fmt.Errorf("fig4 MPI n=%d: %w", n, err)
		}
		res.Entries = append(res.Entries, Fig4Entry{
			Devices: n, Variant: "MPI+OpenCL",
			Init:     sec(tmMPI.Init),
			Exec:     sec(tmMPI.Exec),
			Transfer: sec(tmMPI.Transfer),
		})

		// dOpenCL: the unmodified OpenCL application plus a server list.
		opt.logf("fig4: dOpenCL with %d devices", n)
		nodes := map[string][]device.Config{}
		addrs := make([]string, n)
		for i := range addrs {
			addrs[i] = fmt.Sprintf("node%d", i)
			nodes[addrs[i]] = []device.Config{nodeCfg}
		}
		cluster, err := testbed.Start(testbed.Spec{Link: link, Nodes: nodes})
		if err != nil {
			return nil, err
		}
		plat := newClient(cluster, "fig4")
		connectStart := time.Now()
		for _, addr := range addrs {
			if _, err := plat.ConnectServer(addr); err != nil {
				cluster.Close()
				return nil, fmt.Errorf("fig4 connect %s: %w", addr, err)
			}
		}
		connectDur := time.Since(connectStart)
		devs, err := plat.Devices(cl.DeviceTypeAll)
		if err != nil {
			cluster.Close()
			return nil, err
		}
		_, tmDCL, err := mandelbrot.RenderCL(plat, devs, params)
		if err != nil {
			cluster.Close()
			return nil, fmt.Errorf("fig4 dOpenCL n=%d: %w", n, err)
		}
		cluster.Close()
		res.Entries = append(res.Entries, Fig4Entry{
			Devices: n, Variant: "dOpenCL",
			Init:     sec(connectDur + tmDCL.Init),
			Exec:     sec(tmDCL.Exec),
			Transfer: sec(tmDCL.Transfer),
		})
	}
	return res, nil
}
