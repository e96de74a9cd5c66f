package mandelbrot

import (
	"fmt"
	"testing"

	"dopencl/internal/cl"
	"dopencl/internal/client"
	"dopencl/internal/daemon"
	"dopencl/internal/device"
	"dopencl/internal/native"
	"dopencl/internal/sched"
	"dopencl/internal/simnet"
)

func testParams() Params { return DefaultParams(64, 48, 100) }

func TestRenderCLMatchesReference(t *testing.T) {
	p := testParams()
	want := ReferenceRender(p)

	plat := native.NewPlatform("test", "test", []device.Config{
		device.TestCPU("cpu0"), device.TestCPU("cpu1"), device.TestCPU("cpu2"),
	})
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		t.Fatal(err)
	}
	got, tm, err := RenderCL(plat, devs, p)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Total() <= 0 {
		t.Error("timing not recorded")
	}
	diff := countDiffs(got, want)
	if diff > 0 {
		t.Fatalf("%d/%d pixels differ from reference", diff, len(want))
	}
}

func TestRenderCLOverDOpenCL(t *testing.T) {
	p := testParams()
	want := ReferenceRender(p)

	nw := simnet.NewNetwork(simnet.Unlimited())
	for i := 0; i < 2; i++ {
		addr := fmt.Sprintf("node%d", i)
		np := native.NewPlatform(addr, "test", []device.Config{device.TestCPU("cpu")})
		d, err := daemon.New(daemon.Config{Name: addr, Platform: np})
		if err != nil {
			t.Fatal(err)
		}
		l, err := nw.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			if serr := d.Serve(l); serr != nil {
				_ = serr
			}
		}()
	}
	plat := client.NewPlatform(client.Options{Dialer: nw.Dial, ClientName: "test"})
	if _, err := plat.ConnectServer("node0"); err != nil {
		t.Fatal(err)
	}
	if _, err := plat.ConnectServer("node1"); err != nil {
		t.Fatal(err)
	}
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := RenderCL(plat, devs, p)
	if err != nil {
		t.Fatal(err)
	}
	if diff := countDiffs(got, want); diff > 0 {
		t.Fatalf("%d pixels differ: distributed render corrupt", diff)
	}
}

// TestRenderPartitionedMatchesReference: one ND-range split across 3
// native devices (static and dynamic policies) must reproduce the
// reference image exactly.
func TestRenderPartitionedMatchesReference(t *testing.T) {
	p := testParams()
	want := ReferenceRender(p)
	plat := native.NewPlatform("test", "test", []device.Config{
		device.TestCPU("cpu0"), device.TestCPU("cpu1"), device.TestCPU("cpu2"),
	})
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		policy sched.Policy
	}{{"static", sched.Static{}}, {"dynamic", sched.Dynamic{Chunk: 256}}} {
		got, tm, reports, err := RenderPartitioned(plat, devs, p, tc.policy)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tm.Total() <= 0 {
			t.Errorf("%s: timing not recorded", tc.name)
		}
		items := 0
		for _, r := range reports {
			items += r.Items
		}
		if items != p.Width*p.Height {
			t.Errorf("%s: reports cover %d items, want %d", tc.name, items, p.Width*p.Height)
		}
		if diff := countDiffs(got, want); diff > 0 {
			t.Fatalf("%s: %d/%d pixels differ from reference", tc.name, diff, len(want))
		}
	}
}

// TestRenderPartitionedOverDOpenCL: the same partitioned launch across
// two simnet daemons — each daemon computes its contiguous block into
// its region of one shared buffer.
func TestRenderPartitionedOverDOpenCL(t *testing.T) {
	p := testParams()
	want := ReferenceRender(p)

	nw := simnet.NewNetwork(simnet.Unlimited())
	for i := 0; i < 2; i++ {
		addr := fmt.Sprintf("node%d", i)
		np := native.NewPlatform(addr, "test", []device.Config{device.TestCPU("cpu")})
		d, err := daemon.New(daemon.Config{Name: addr, Platform: np})
		if err != nil {
			t.Fatal(err)
		}
		l, err := nw.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = d.Serve(l) }()
	}
	plat := client.NewPlatform(client.Options{Dialer: nw.Dial, ClientName: "test"})
	for i := 0; i < 2; i++ {
		if _, err := plat.ConnectServer(fmt.Sprintf("node%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := RenderPartitioned(plat, devs, p, sched.Static{})
	if err != nil {
		t.Fatal(err)
	}
	if diff := countDiffs(got, want); diff > 0 {
		t.Fatalf("%d pixels differ: partitioned distributed render corrupt", diff)
	}
}

func TestRenderMPIMatchesReference(t *testing.T) {
	p := testParams()
	want := ReferenceRender(p)
	for _, nodes := range []int{1, 2, 3, 5} {
		plats := func(rank int) cl.Platform {
			return native.NewPlatform(fmt.Sprintf("n%d", rank), "test",
				[]device.Config{device.TestCPU("cpu")})
		}
		got, tm, err := RenderMPI(nodes, simnet.Unlimited(), plats, p)
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		if tm.Exec <= 0 {
			t.Errorf("nodes=%d: no exec time recorded", nodes)
		}
		if diff := countDiffs(got, want); diff > 0 {
			t.Fatalf("nodes=%d: %d pixels differ", nodes, diff)
		}
	}
}

func TestRenderCLNoDevices(t *testing.T) {
	if _, _, err := RenderCL(nil, nil, testParams()); err == nil {
		t.Fatal("expected error with no devices")
	}
}

func countDiffs(got, want []int32) int {
	n := 0
	for i := range want {
		if got[i] != want[i] {
			n++
		}
	}
	return n
}
