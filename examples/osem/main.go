// PET image reconstruction offload: the paper's second application study
// (Section V-B) as a runnable program. A synthetic list-mode PET data set
// is reconstructed twice with identical host code: once on the local
// "desktop" device and once transparently offloaded via dOpenCL to a
// remote "GPU server" — the deployment the paper motivates (run the app on
// a desktop PC, compute on the shared server).
//
//	go run ./examples/osem
package main

import (
	"fmt"
	"log"

	"dopencl/internal/apps/osem"
	"dopencl/internal/cl"
	"dopencl/internal/client"
	"dopencl/internal/device"
	"dopencl/internal/native"
	"dopencl/internal/testbed"
)

func main() {
	vol := osem.Volume{NX: 12, NY: 12, NZ: 12}
	events := osem.SynthesizeEvents(vol, 1500, 7)
	params := osem.Params{
		Vol: vol, Events: events,
		Subsets: 4, Iterations: 2, NSamples: 8,
	}
	fmt.Printf("list-mode OSEM: %d voxels, %d events, %d subsets, %d iterations\n",
		vol.Voxels(), len(events), params.Subsets, params.Iterations)

	// Local reconstruction on the desktop's own device.
	desktop := native.NewPlatform("desktop", "example vendor",
		[]device.Config{device.TestCPU("desktop-cpu")})
	ldevs, err := desktop.Devices(cl.DeviceTypeAll)
	if err != nil {
		log.Fatal(err)
	}
	local, err := osem.Reconstruct(desktop, ldevs[0], params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("local reconstruction:   %v per iteration\n", local.MeanIteration)

	// Remote reconstruction: same host code, device lives on "gpuserver".
	tb, err := testbed.Start(testbed.Spec{Nodes: map[string][]device.Config{
		"gpuserver": {device.TestGPU("tesla0"), device.TestGPU("tesla1")},
	}})
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()

	plat := client.NewPlatform(client.Options{Dialer: tb.Dialer(""), ClientName: "osem"})
	if _, err := plat.ConnectServer("gpuserver"); err != nil {
		log.Fatal(err)
	}
	rdevs, err := plat.Devices(cl.DeviceTypeGPU)
	if err != nil {
		log.Fatal(err)
	}
	remote, err := osem.Reconstruct(plat, rdevs[0], params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dOpenCL reconstruction: %v per iteration (device %q on %s)\n",
		remote.MeanIteration, rdevs[0].Name(),
		rdevs[0].(*client.Device).Server().Addr())

	// Same offload again, but with the steady-state subset iteration
	// recorded once and replayed with one frame per subset (the
	// command-graph API): identical host algorithm, identical image,
	// a fraction of the per-subset message traffic.
	graph, err := osem.ReconstructGraph(plat, rdevs[0], params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph-replay offload:   %v per iteration (recorded once, replayed per subset)\n",
		graph.MeanIteration)
	for i := range graph.Image {
		if graph.Image[i] != remote.Image[i] {
			log.Fatalf("graph replay diverged from eager offload at voxel %d", i)
		}
	}

	// Both paths must produce the same image (the middleware is
	// transparent); compare against the pure-Go reference as well.
	ref := osem.ReferenceReconstruct(params)
	maxDiff := 0.0
	for i := range ref {
		d := float64(local.Image[i] - remote.Image[i])
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("max |local - remote| over %d voxels: %g\n", len(ref), maxDiff)
	if maxDiff != 0 {
		log.Fatal("local and offloaded reconstructions diverged")
	}
	fmt.Println("local and dOpenCL-offloaded reconstructions are identical ✓")
}
