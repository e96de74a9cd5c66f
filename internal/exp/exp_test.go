package exp

import (
	"strings"
	"testing"

	"dopencl/internal/device"
	"dopencl/internal/simnet"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Notes:   []string{"a note"},
	}
	tbl.AddRow("1", "2")
	tbl.AddRow("333333", "4")
	out := tbl.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "long-column") ||
		!strings.Contains(out, "333333") || !strings.Contains(out, "note: a note") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 5 {
		t.Fatalf("table too short:\n%s", out)
	}
}

func TestOptionsScaling(t *testing.T) {
	var o Options
	if o.scaleOr(0.05) != 0.05 {
		t.Error("default scale not applied")
	}
	o.TimeScale = 0.5
	if o.scaleOr(0.05) != 0.5 {
		t.Error("explicit scale not honoured")
	}
	link := scaleLink(simnet.GigabitEthernet(1), 4)
	if link.BandwidthBps != 106e6/4 || link.SlowStartBytes != (512<<10)/4 {
		t.Errorf("scaled link: %+v", link)
	}
	bus := scaleBus(device.TeslaGPU(1).Bus, 2)
	if bus.WriteBps != device.TeslaGPU(1).Bus.WriteBps/2 {
		t.Errorf("scaled bus: %+v", bus)
	}
}

// TestRunFig7Smoke executes the cheapest figure end-to-end: the full
// client/daemon/protocol stack under the experiment harness.
func TestRunFig7Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	res, err := RunFig7(Options{Quick: true, TimeScale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	// Qualitative invariants of the figure (generous margins: quick mode
	// at a coarse time scale is noisy).
	if res.GigEWrite <= res.PCIeWrite {
		t.Errorf("GigE write (%v) must exceed PCIe write (%v)", res.GigEWrite, res.PCIeWrite)
	}
	if res.GigERead <= res.PCIeRead {
		t.Errorf("GigE read (%v) must exceed PCIe read (%v)", res.GigERead, res.PCIeRead)
	}
	if res.WriteRatio() < 2 {
		t.Errorf("write ratio %v too small", res.WriteRatio())
	}
	if tbl := res.Table().String(); !strings.Contains(tbl, "Figure 7") {
		t.Error("table rendering broken")
	}
}
