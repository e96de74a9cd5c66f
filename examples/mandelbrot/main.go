// Mandelbrot across a distributed cluster: the paper's first application
// study (Section V-A) as a runnable program. Four simulated cluster nodes
// each contribute a CPU device; the unmodified OpenCL application renders
// the fractal with row-cyclic distribution across all of them and writes a
// PGM image.
//
//	go run ./examples/mandelbrot [-width 800] [-height 600] [-iter 256] [-o mandelbrot.pgm]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"

	"dopencl/internal/apps/mandelbrot"
	"dopencl/internal/cl"
	"dopencl/internal/client"
	"dopencl/internal/device"
	"dopencl/internal/testbed"
)

func main() {
	width := flag.Int("width", 800, "image width")
	height := flag.Int("height", 600, "image height")
	iter := flag.Int("iter", 256, "max iterations per pixel")
	out := flag.String("o", "mandelbrot.pgm", "output PGM file")
	nodes := flag.Int("nodes", 4, "number of simulated cluster nodes")
	flag.Parse()

	// The "cluster": one daemon per node on an in-memory network.
	addrs := make([]string, *nodes)
	spec := testbed.Spec{Nodes: map[string][]device.Config{}}
	for i := range addrs {
		addrs[i] = fmt.Sprintf("node%d", i)
		spec.Nodes[addrs[i]] = []device.Config{device.TestCPU(fmt.Sprintf("cpu%d", i))}
	}
	tb, err := testbed.Start(spec)
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()

	plat := client.NewPlatform(client.Options{Dialer: tb.Dialer(""), ClientName: "mandelbrot"})
	for _, addr := range addrs {
		if _, err := plat.ConnectServer(addr); err != nil {
			log.Fatalf("connect %s: %v", addr, err)
		}
	}
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rendering %dx%d fractal on %d distributed devices...\n", *width, *height, len(devs))

	params := mandelbrot.DefaultParams(*width, *height, *iter)
	img, tm, err := mandelbrot.RenderCL(plat, devs, params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("init %v  exec %v  transfer %v\n", tm.Init, tm.Exec, tm.Transfer)

	if err := writePGM(*out, img, *width, *height, *iter); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// writePGM renders iteration counts as a grayscale PGM image.
func writePGM(path string, img []int32, w, h, maxIter int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "P5\n%d %d\n255\n", w, h)
	for _, v := range img {
		shade := 255 - int(255*float64(v)/float64(maxIter))
		if v >= int32(maxIter) {
			shade = 0
		}
		if err := bw.WriteByte(byte(shade)); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
