package exp

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"dopencl/internal/apps/mandelbrot"
	"dopencl/internal/cl"
	"dopencl/internal/client"
	"dopencl/internal/device"
	"dopencl/internal/protocol"
	"dopencl/internal/simnet"
	"dopencl/internal/testbed"
	"dopencl/internal/vm"
)

// Fig6Entry is one bar of Fig. 6: the average per-client runtime split at
// a given level of concurrency, with or without the device manager.
type Fig6Entry struct {
	Clients  int
	Managed  bool // true = with device manager
	Init     float64
	Exec     float64
	Transfer float64
}

// Total returns the bar height.
func (e Fig6Entry) Total() float64 { return e.Init + e.Exec + e.Transfer }

// Fig6Result holds all bars.
type Fig6Result struct {
	Entries []Fig6Entry
}

// Table renders the figure's data.
func (r *Fig6Result) Table() *Table {
	t := &Table{
		Title:   "Figure 6: avg Mandelbrot runtime with 1-4 concurrent clients on one 4-GPU server (modeled seconds)",
		Columns: []string{"clients", "device manager", "init", "exec", "transfer", "total"},
		Notes: []string{
			"paper: with DM execution time stays flat (clients land on distinct GPUs) at a small constant init overhead;",
			"without DM all clients pile onto the same device and run up to 4x longer",
		},
	}
	for _, e := range r.Entries {
		dm := "without"
		if e.Managed {
			dm = "with"
		}
		t.AddRow(fmt.Sprintf("%d", e.Clients), dm,
			secs(e.Init), secs(e.Exec), secs(e.Transfer), secs(e.Total()))
	}
	return t
}

// fig6Params is the per-client Mandelbrot workload (GigE + GPU server, so
// not comparable to Fig. 4, as the paper notes).
func fig6Params(quick bool) mandelbrot.Params {
	if quick {
		return mandelbrot.DefaultParams(1200, 800, 5000)
	}
	return mandelbrot.DefaultParams(1200, 800, 20000)
}

// RunFig6 reproduces the device-manager experiment of Section V-C: up to
// four desktop clients run the Mandelbrot application concurrently
// against one GPU server with four Tesla GPUs over Gigabit Ethernet.
// In managed mode each client requests one GPU from the device manager;
// in unmanaged mode every client connects directly and picks the server's
// first GPU, serializing on it.
func RunFig6(opt Options) (*Fig6Result, error) {
	scale := opt.scaleOr(0.05)
	params := fig6Params(opt.Quick)

	// Prewarm the kernel cost profile.
	dx := (params.XMax - params.XMin) / float64(params.Width)
	dy := (params.YMax - params.YMin) / float64(params.Height)
	warmBuf := make([]byte, 4*params.Width*params.Height)
	perItem, err := device.PrewarmCost(mandelbrot.KernelSource, "mandelbrot",
		[]vm.Arg{
			vm.GlobalArg(warmBuf), vm.IntArg(int32(params.Width)), vm.IntArg(int32(params.Height)),
			vm.IntArg(0), vm.IntArg(1),
			vm.FloatArg(float32(params.XMin)), vm.FloatArg(float32(params.YMin)),
			vm.FloatArg(float32(dx)), vm.FloatArg(float32(dy)),
			vm.IntArg(int32(params.MaxIter)),
		}, []int{params.Width * params.Height}, 12)
	if err != nil {
		return nil, fmt.Errorf("fig6 prewarm: %w", err)
	}

	// Calibrate the GPU so one full render's execution phase matches the
	// paper's ~3.5 s bar; the contention (without DM) and flatness (with
	// DM) then emerge from device serialization and the shared NIC.
	const fig6ExecAnchorSec = 3.5
	tesla := device.TeslaGPU(scale)
	tesla.InstrPerSec = perItem * float64(params.Width*params.Height) /
		fig6ExecAnchorSec / float64(tesla.ComputeUnits)

	res := &Fig6Result{}
	for _, managed := range []bool{true, false} {
		for clients := 1; clients <= 4; clients++ {
			opt.logf("fig6: %d clients, managed=%v", clients, managed)
			entry, err := runFig6Config(opt, scale, params, tesla, clients, managed)
			if err != nil {
				return nil, fmt.Errorf("fig6 clients=%d managed=%v: %w", clients, managed, err)
			}
			res.Entries = append(res.Entries, entry)
		}
	}
	return res, nil
}

func runFig6Config(opt Options, scale float64, params mandelbrot.Params, tesla device.Config, clients int, managed bool) (Fig6Entry, error) {
	sec := func(d time.Duration) float64 { return d.Seconds() / scale }
	// One GPU server with 4 Tesla GPUs; its NIC is shared by all client
	// connections (one simnet Limiter).
	gige := simnet.GigabitEthernet(scale)
	gige.Shared = simnet.NewLimiter()
	spec := testbed.Spec{
		Link:  gige,
		Nodes: map[string][]device.Config{"gpuserver": {tesla, tesla, tesla, tesla}},
	}
	if managed {
		spec.Shards = []string{"devmgr"}
	}
	cluster, err := testbed.Start(spec)
	if err != nil {
		return Fig6Entry{}, err
	}
	defer cluster.Close()
	if err := cluster.Ready(10 * time.Second); err != nil {
		return Fig6Entry{}, err
	}

	type clientResult struct {
		init, exec, transfer time.Duration
		err                  error
	}
	results := make([]clientResult, clients)
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			r := &results[ci]
			plat := newClient(cluster, fmt.Sprintf("fig6-client%d", ci))

			initStart := time.Now()
			var devs []cl.Device
			var lease *client.Lease
			if managed {
				// Request a single GPU from the device manager.
				lease, r.err = plat.RequestFromManager(client.ManagerConfig{
					Manager: "devmgr",
					Requests: []protocol.DeviceRequest{
						{Count: 1, Type: cl.DeviceTypeGPU},
					},
				})
				if r.err != nil {
					return
				}
			} else {
				if _, r.err = plat.ConnectServer("gpuserver"); r.err != nil {
					return
				}
			}
			all, err := plat.Devices(cl.DeviceTypeGPU)
			if err != nil {
				r.err = err
				return
			}
			// Unmanaged clients independently "decide to use the GPU of
			// the first server" (Section IV) — they all pick device 0.
			devs = all[:1]
			initConnect := time.Since(initStart)

			img, tm, err := mandelbrot.RenderCL(plat, devs, params)
			if err != nil {
				r.err = err
				return
			}
			_ = img
			r.init = initConnect + tm.Init
			r.exec = tm.Exec
			r.transfer = tm.Transfer
			if lease != nil {
				if lerr := lease.Release(); lerr != nil {
					r.err = lerr
				}
			}
		}(ci)
	}
	wg.Wait()

	entry := Fig6Entry{Clients: clients, Managed: managed}
	for _, r := range results {
		if r.err != nil {
			if managed && strings.Contains(r.err.Error(), "no free device") {
				return entry, fmt.Errorf("device manager ran out of devices: %w", r.err)
			}
			return entry, r.err
		}
		entry.Init += sec(r.init)
		entry.Exec += sec(r.exec)
		entry.Transfer += sec(r.transfer)
	}
	entry.Init /= float64(clients)
	entry.Exec /= float64(clients)
	entry.Transfer /= float64(clients)
	return entry, nil
}
