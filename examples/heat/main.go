// Distributed arrays with automatic halo exchange: a Jacobi
// heat-diffusion plate is declared once as a global 2-D array, row-
// partitioned across the devices of three simulated daemons, and
// iterated with the recorded ping-pong loop. The runtime infers the
// stencil's one-row halo from the kernel source, serves it per
// iteration as daemon-to-daemon peer forwards overlapped with interior
// compute, and replays the steady-state iteration as one delta frame
// per daemon — wire traffic per iteration is the halo surface, not the
// partition volume. The distributed result is compared bit-for-bit
// against the pure-Go reference.
//
//	go run ./examples/heat
package main

import (
	"fmt"
	"log"

	"dopencl/internal/apps/heat"
	"dopencl/internal/cl"
	"dopencl/internal/client"
	"dopencl/internal/darray"
	"dopencl/internal/device"
	"dopencl/internal/testbed"
)

func main() {
	p := heat.Params{W: 96, H: 96, Iters: 50, Alpha: 0.2}
	init := heat.InitialState(p.W, p.H)

	halo, err := darray.InferHalo(heat.KernelSource, heat.StepKernel)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("heat diffusion: %dx%d plate, %d iterations\n", p.W, p.H, p.Iters)
	fmt.Printf("inferred halo from kernel source: %d row(s) up, %d row(s) down\n", halo.Lo, halo.Hi)

	// Three single-GPU daemons on an in-memory network, peer data plane
	// enabled so halos flow daemon-to-daemon.
	addrs := []string{"node0", "node1", "node2"}
	nodes := map[string][]device.Config{}
	for _, addr := range addrs {
		nodes[addr] = []device.Config{device.TestGPU("gpu-" + addr)}
	}
	tb, err := testbed.Start(testbed.Spec{Nodes: nodes, Peers: true})
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()

	plat := client.NewPlatform(client.Options{Dialer: tb.Dialer("client"), ClientName: "heat-example"})
	for _, addr := range addrs {
		if _, err := plat.ConnectServer(addr); err != nil {
			log.Fatal(err)
		}
	}
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		log.Fatal(err)
	}
	ctx, err := plat.CreateContext(devs)
	if err != nil {
		log.Fatal(err)
	}
	defer ctx.Release()

	got, err := heat.Run(ctx, devs, p, init)
	if err != nil {
		log.Fatal(err)
	}

	// Per-iteration peer traffic: halo rows, not partition volume.
	var peer int64
	for _, a := range addrs {
		for _, b := range addrs {
			if a != b {
				peer += tb.Net.BytesSent(a, testbed.PeerAddr(b)) + tb.Net.BytesSent(testbed.PeerAddr(a), b)
			}
		}
	}
	volume := int64(p.W * p.H * 4)
	fmt.Printf("peer traffic: %d B/iteration (array volume %d B)\n", peer/int64(p.Iters), volume)

	want := heat.Reference(p, init)
	for i := range want {
		if got[i] != want[i] {
			log.Fatalf("cell %d: distributed %v != reference %v", i, got[i], want[i])
		}
	}
	fmt.Println("distributed result is bit-identical to the pure-Go reference")
}
