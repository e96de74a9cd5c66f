package osem

import (
	"math"
	"testing"

	"dopencl/internal/cl"
	"dopencl/internal/device"
	"dopencl/internal/native"
	"dopencl/internal/sched"
)

func smallParams() Params {
	vol := Volume{NX: 8, NY: 8, NZ: 8}
	return Params{
		Vol:     vol,
		Events:  SynthesizeEvents(vol, 200, 11),
		Subsets: 2, Iterations: 2, NSamples: 6,
	}
}

func TestReconstructMatchesReference(t *testing.T) {
	p := smallParams()
	want := ReferenceReconstruct(p)

	plat := native.NewPlatform("test", "test", []device.Config{device.TestCPU("cpu")})
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reconstruct(plat, devs[0], p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Image) != p.Vol.Voxels() {
		t.Fatalf("image has %d voxels", len(res.Image))
	}
	for i := range want {
		if res.Image[i] != want[i] {
			t.Fatalf("voxel %d: device %v != reference %v", i, res.Image[i], want[i])
		}
	}
	if res.MeanIteration <= 0 || res.Total <= 0 {
		t.Error("timing not recorded")
	}
}

// TestReconstructPartitionedMatchesReference: every kernel phase split
// across two devices must reconstruct the exact same image as the
// sequential reference — the partitioned kernels perform identical math
// in identical order, so the comparison is bit-exact.
func TestReconstructPartitionedMatchesReference(t *testing.T) {
	p := smallParams()
	want := ReferenceReconstruct(p)

	plat := native.NewPlatform("test", "test", []device.Config{
		device.TestCPU("cpu0"), device.TestCPU("cpu1"),
	})
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		policy sched.Policy
	}{{"static", sched.Static{}}, {"dynamic", sched.Dynamic{Chunk: 64}}} {
		res, err := ReconstructPartitioned(plat, devs, p, tc.policy)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := range want {
			if res.Image[i] != want[i] {
				t.Fatalf("%s: voxel %d: partitioned %v != reference %v", tc.name, i, res.Image[i], want[i])
			}
		}
	}
}

// TestReconstructGraphMatchesEager pins the graph-replay variant to the
// eager implementation bit-for-bit: the recorded subset iteration with
// per-subset payload and event-count updates must reconstruct the exact
// same image, including the ragged last subset (padding never read).
func TestReconstructGraphMatchesEager(t *testing.T) {
	p := smallParams()
	// Force a ragged last subset: 200 events over 3 subsets = 67/67/66.
	p.Subsets = 3

	plat := native.NewPlatform("test", "test", []device.Config{device.TestCPU("cpu")})
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := Reconstruct(plat, devs[0], p)
	if err != nil {
		t.Fatal(err)
	}
	graph, err := ReconstructGraph(plat, devs[0], p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range eager.Image {
		if eager.Image[i] != graph.Image[i] {
			t.Fatalf("voxel %d: eager %v != graph %v", i, eager.Image[i], graph.Image[i])
		}
	}
}

// TestReconstructGraphNoEvents: with no events there are no subsets and
// no subset buffer to size, and the zero-byte buffer is refused like any
// other rather than indexing an empty subset list.
func TestReconstructGraphNoEvents(t *testing.T) {
	p := smallParams()
	p.Events = nil
	plat := native.NewPlatform("test", "test", []device.Config{device.TestCPU("cpu")})
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReconstructGraph(plat, devs[0], p); cl.CodeOf(err) != cl.InvalidBufferSize {
		t.Fatalf("zero events: got %v, want InvalidBufferSize", err)
	}
}

func TestReconstructionConcentratesActivity(t *testing.T) {
	// The phantom is a centred sphere: after a few iterations the centre
	// voxels must accumulate more activity than the corners.
	p := smallParams()
	img := ReferenceReconstruct(p)
	vol := p.Vol
	centerIdx := (vol.NZ/2*vol.NY+vol.NY/2)*vol.NX + vol.NX/2
	cornerIdx := 0
	if img[centerIdx] <= img[cornerIdx] {
		t.Errorf("centre %v not brighter than corner %v", img[centerIdx], img[cornerIdx])
	}
}

func TestSynthesizeEventsDeterministic(t *testing.T) {
	vol := Volume{NX: 16, NY: 16, NZ: 16}
	a := SynthesizeEvents(vol, 50, 99)
	b := SynthesizeEvents(vol, 50, 99)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different events")
		}
	}
	c := SynthesizeEvents(vol, 50, 100)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical events")
	}
}

func TestPackEventsLayout(t *testing.T) {
	ev := Event{X1: 1, Y1: 2, Z1: 3, X2: 4, Y2: 5, Z2: 6}
	b := PackEvents([]Event{ev})
	if len(b) != 24 {
		t.Fatalf("packed size = %d", len(b))
	}
	vals := []float32{1, 2, 3, 4, 5, 6}
	for i, want := range vals {
		got := math.Float32frombits(uint32(b[4*i]) | uint32(b[4*i+1])<<8 | uint32(b[4*i+2])<<16 | uint32(b[4*i+3])<<24)
		if got != want {
			t.Errorf("field %d = %v, want %v", i, got, want)
		}
	}
}

func TestReconstructValidatesParams(t *testing.T) {
	plat := native.NewPlatform("test", "test", []device.Config{device.TestCPU("cpu")})
	devs, _ := plat.Devices(cl.DeviceTypeAll)
	bad := smallParams()
	bad.Subsets = 0
	if _, err := Reconstruct(plat, devs[0], bad); err == nil {
		t.Fatal("zero subsets accepted")
	}
}
