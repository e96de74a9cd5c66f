package exp

import (
	"fmt"
	"time"

	"dopencl/internal/apps/bandwidth"
	"dopencl/internal/cl"
	"dopencl/internal/device"
	"dopencl/internal/simnet"
	"dopencl/internal/testbed"
)

// theoreticalGigEBps is the theoretical Gigabit Ethernet bandwidth the
// paper normalizes Fig. 8 against (125 MB/s).
const theoreticalGigEBps = 125e6

// Fig8Point is one point of the efficiency curve.
type Fig8Point struct {
	MB       int
	WriteEff float64 // fraction of theoretical bandwidth, 0..1
	ReadEff  float64
}

// Fig8Result holds the efficiency curve plus the iperf-equivalent
// baseline.
type Fig8Result struct {
	Points   []Fig8Point
	IperfEff float64 // raw-stream efficiency (the paper's 86% line)
}

// Table renders the figure's data.
func (r *Fig8Result) Table() *Table {
	t := &Table{
		Title:   "Figure 8: dOpenCL transfer efficiency over Gigabit Ethernet (% of theoretical 125 MB/s)",
		Columns: []string{"size [MB]", "write [%]", "read [%]"},
		Notes: []string{
			fmt.Sprintf("raw-stream (iperf-equivalent) baseline: %.1f%%", r.IperfEff*100),
			"paper: efficiency rises with transfer size; large writes approach the iperf line (~86%)",
		},
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%d", p.MB),
			fmt.Sprintf("%.1f", p.WriteEff*100),
			fmt.Sprintf("%.1f", p.ReadEff*100))
	}
	return t
}

// RunFig8 reproduces the transfer-efficiency experiment of Section V-D:
// chunks of 1 MB to 1024 MB are written to and read from the first device
// of the GPU server through the dOpenCL stack; the achieved bandwidth is
// normalized to the theoretical Gigabit Ethernet bandwidth and compared
// against a raw-stream measurement (the paper uses iperf).
func RunFig8(opt Options) (*Fig8Result, error) {
	scale := opt.scaleOr(0.25)
	// Data scaling as in Fig. 7: 1/64 of the bytes at 1/64 bandwidth.
	const dataScale = 64.0
	maxMB := 1024
	if opt.Quick {
		maxMB = 64
		scale = opt.scaleOr(0.1)
	}
	link := scaleLink(simnet.GigabitEthernet(scale), dataScale)

	// Raw-stream baseline: a long transfer straight through a GigE pipe,
	// the equivalent of the paper's iperf measurement.
	iperfEff, err := measureRawStream(link, dataScale)
	if err != nil {
		return nil, err
	}

	// A fast "device" without bus modeling isolates network efficiency,
	// like the paper's dedicated transfer application (PCIe write costs
	// at 5.3 GB/s would skew small-chunk numbers by <1%).
	dev := device.TeslaGPU(scale)
	dev.Bus = device.BusConfig{}
	cluster, err := testbed.Start(testbed.Spec{
		Link:  link,
		Nodes: map[string][]device.Config{"gpuserver": {dev}},
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	plat := newClient(cluster, "fig8")
	if _, err := plat.ConnectServer("gpuserver"); err != nil {
		return nil, err
	}
	devs, err := plat.Devices(cl.DeviceTypeGPU)
	if err != nil {
		return nil, err
	}

	res := &Fig8Result{IperfEff: iperfEff}
	for mb := 1; mb <= maxMB; mb *= 2 {
		opt.logf("fig8: %d MB", mb)
		// Let the modeled TCP connection go idle (200 ms modeled) so every
		// sample pays the slow-start ramp, like the paper's isolated chunk
		// transfers.
		time.Sleep(time.Duration(0.2 * scale * float64(time.Second)))
		samples, err := bandwidth.Measure(plat, devs[0], []int{int(float64(mb<<20) / dataScale)})
		if err != nil {
			return nil, fmt.Errorf("fig8 %d MB: %w", mb, err)
		}
		s := samples[0]
		fullBytes := float64(mb << 20)
		writeSec := s.Write.Seconds() / scale
		readSec := s.Read.Seconds() / scale
		res.Points = append(res.Points, Fig8Point{
			MB:       mb,
			WriteEff: fullBytes / writeSec / theoreticalGigEBps,
			ReadEff:  fullBytes / readSec / theoreticalGigEBps,
		})
	}
	return res, nil
}

// measureRawStream measures the efficiency of a long raw transfer over a
// fresh (data-scaled) GigE link: the iperf stand-in.
func measureRawStream(cfg simnet.LinkConfig, dataScale float64) (float64, error) {
	scale := cfg.TimeScale
	a, b := simnet.Pipe(cfg)
	total := int(float64(256<<20) / dataScale)
	chunk := make([]byte, 256<<10)
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 1<<20)
		remaining := total
		for remaining > 0 {
			n, err := b.Read(buf)
			if err != nil {
				done <- err
				return
			}
			remaining -= n
		}
		done <- nil
	}()
	start := time.Now()
	sent := 0
	for sent < total {
		n, err := a.Write(chunk)
		if err != nil {
			return 0, err
		}
		sent += n
	}
	if err := <-done; err != nil {
		return 0, err
	}
	elapsed := time.Since(start).Seconds() / scale
	if cerr := a.Close(); cerr != nil {
		return 0, cerr
	}
	if cerr := b.Close(); cerr != nil {
		return 0, cerr
	}
	return float64(total) * dataScale / elapsed / theoreticalGigEBps, nil
}
