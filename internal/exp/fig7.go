package exp

import (
	"fmt"
	"time"

	"dopencl/internal/apps/bandwidth"
	"dopencl/internal/cl"
	"dopencl/internal/device"
	"dopencl/internal/native"
	"dopencl/internal/simnet"
	"dopencl/internal/testbed"
)

// Fig7Result holds the four bars of Fig. 7: the time to transfer 1024 MB
// to/from a device over Gigabit Ethernet (dOpenCL) vs PCI Express
// (native).
type Fig7Result struct {
	MB           int
	GigEWrite    float64
	GigERead     float64
	PCIeWrite    float64
	PCIeRead     float64
	Extrapolated bool // measured at a smaller size, scaled linearly
}

// Table renders the figure's data.
func (r *Fig7Result) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figure 7: time to transfer %d MB to (write) / from (read) a device (modeled seconds)", r.MB),
		Columns: []string{"path", "write [s]", "read [s]"},
		Notes: []string{
			"paper: GigE write ~50x slower than PCIe write; GigE read ~4.5x slower than PCIe read;",
			"PCIe reads ~15x slower than PCIe writes",
		},
	}
	t.AddRow("Gigabit Ethernet (dOpenCL)", secs(r.GigEWrite), secs(r.GigERead))
	t.AddRow("PCI Express (native)", secs(r.PCIeWrite), secs(r.PCIeRead))
	if r.Extrapolated {
		t.Notes = append(t.Notes, "data-scaled measurement: 1/256 of the bytes at 1/256 bandwidth (identical modeled times)")
	}
	return t
}

// WriteRatio returns GigE/PCIe write time (paper: ~50×).
func (r *Fig7Result) WriteRatio() float64 { return r.GigEWrite / r.PCIeWrite }

// ReadRatio returns GigE/PCIe read time (paper: ~4.5×).
func (r *Fig7Result) ReadRatio() float64 { return r.GigERead / r.PCIeRead }

// RunFig7 reproduces the bulk-transfer comparison of Section V-D: writing
// and reading 1024 MB through the dOpenCL stack over Gigabit Ethernet
// versus the native runtime's PCIe bus.
func RunFig7(opt Options) (*Fig7Result, error) {
	scale := opt.scaleOr(0.25)
	// Data scaling: move 1/64 of the bytes over links and buses at 1/64
	// bandwidth — modeled times equal those of the full 1024 MB transfer
	// while the harness's real memory traffic stays small.
	const dataScale = 256.0
	measureBytes := int((1024 << 20) / dataScale)
	if opt.Quick {
		scale = opt.scaleOr(0.1)
	}

	tesla := device.TeslaGPU(scale)
	tesla.Bus = scaleBus(tesla.Bus, dataScale)

	// dOpenCL path: client → GigE → daemon → PCIe → device.
	opt.logf("fig7: dOpenCL transfer over Gigabit Ethernet")
	cluster, err := testbed.Start(testbed.Spec{
		Link:  scaleLink(simnet.GigabitEthernet(scale), dataScale),
		Nodes: map[string][]device.Config{"gpuserver": {tesla}},
	})
	if err != nil {
		return nil, err
	}
	plat := newClient(cluster, "fig7")
	if _, err := plat.ConnectServer("gpuserver"); err != nil {
		cluster.Close()
		return nil, err
	}
	devs, err := plat.Devices(cl.DeviceTypeGPU)
	if err != nil {
		cluster.Close()
		return nil, err
	}
	remote, err := bandwidth.Measure(plat, devs[0], []int{measureBytes})
	cluster.Close()
	if err != nil {
		return nil, fmt.Errorf("fig7 dOpenCL: %w", err)
	}

	// Native path: application runs on the server, PCIe only.
	opt.logf("fig7: native transfer over PCIe")
	nativePlat := native.NewPlatform("gpuserver", "simulated", []device.Config{tesla})
	ndevs, err := nativePlat.Devices(cl.DeviceTypeGPU)
	if err != nil {
		return nil, err
	}
	local, err := bandwidth.Measure(nativePlat, ndevs[0], []int{measureBytes})
	if err != nil {
		return nil, fmt.Errorf("fig7 native: %w", err)
	}

	sec := func(d time.Duration) float64 { return d.Seconds() / scale }
	return &Fig7Result{
		MB:           1024,
		GigEWrite:    sec(remote[0].Write),
		GigERead:     sec(remote[0].Read),
		PCIeWrite:    sec(local[0].Write),
		PCIeRead:     sec(local[0].Read),
		Extrapolated: true,
	}, nil
}
