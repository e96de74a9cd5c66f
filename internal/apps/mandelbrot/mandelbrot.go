// Package mandelbrot implements the paper's first application study
// (Section V-A): computing a Mandelbrot fractal across the devices of a
// distributed system, in two variants:
//
//   - RenderCL — the dOpenCL/OpenCL version: a single program using one
//     context over all devices; image rows are distributed round-robin
//     (row-cyclic) across devices, exactly as in the paper.
//   - RenderMPI — the MPI+OpenCL baseline: one rank per node, each
//     computing its row-cyclic tile with its local OpenCL device, results
//     merged with MPI_Gather.
//
// Both report the stacked timing split of Fig. 4: initialization,
// execution and data transfer.
package mandelbrot

import (
	"encoding/binary"
	"fmt"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/mpi"
	"dopencl/internal/sched"
	"dopencl/internal/simnet"
)

// KernelSource is the MiniCL Mandelbrot kernel. Each work item computes
// one pixel of the device's row-cyclic tile: local row r maps to image
// row rowOffset + r*rowStride.
const KernelSource = `
kernel void mandelbrot(global int* out, int width, int rows,
                       int rowOffset, int rowStride,
                       float xmin, float ymin, float dx, float dy,
                       int maxIter) {
	int gid = get_global_id(0);
	if (gid >= width * rows) {
		return;
	}
	int col = gid % width;
	int localRow = gid / width;
	int row = rowOffset + localRow * rowStride;
	float cx = xmin + (float)col * dx;
	float cy = ymin + (float)row * dy;
	float zx = 0.0;
	float zy = 0.0;
	int iter = 0;
	while (iter < maxIter) {
		float zx2 = zx * zx;
		float zy2 = zy * zy;
		if (zx2 + zy2 > 4.0) {
			break;
		}
		float nzx = zx2 - zy2 + cx;
		zy = 2.0 * zx * zy + cy;
		zx = nzx;
		iter = iter + 1;
	}
	out[gid] = iter;
}
`

// PartitionedKernelSource is the data-parallel variant of the Mandelbrot
// kernel: ONE launch over the whole image, split across devices by
// internal/sched. Work-item gid is the true pixel index (the scheduler
// launches each chunk with a global work offset), and the output is a
// per-chunk sub-buffer indexed chunk-relative — each device writes only
// its own region of the one shared image buffer, which the
// region-granular coherence directory tracks per daemon.
const PartitionedKernelSource = `
kernel void mandelblock(global int* out, int width, int height,
                        float xmin, float ymin, float dx, float dy,
                        int maxIter) {
	int gid = get_global_id(0);
	if (gid >= width * height) {
		return;
	}
	int col = gid % width;
	int row = gid / width;
	float cx = xmin + (float)col * dx;
	float cy = ymin + (float)row * dy;
	float zx = 0.0;
	float zy = 0.0;
	int iter = 0;
	while (iter < maxIter) {
		float zx2 = zx * zx;
		float zy2 = zy * zy;
		if (zx2 + zy2 > 4.0) {
			break;
		}
		float nzx = zx2 - zy2 + cx;
		zy = 2.0 * zx * zy + cy;
		zx = nzx;
		iter = iter + 1;
	}
	out[gid - get_global_offset(0)] = iter;
}
`

// Params describes the fractal to compute.
type Params struct {
	Width, Height int
	MaxIter       int
	XMin, XMax    float64
	YMin, YMax    float64
}

// DefaultParams returns the complex-plane section used throughout the
// examples and experiments (the classic full-set view).
func DefaultParams(width, height, maxIter int) Params {
	return Params{
		Width: width, Height: height, MaxIter: maxIter,
		XMin: -2.5, XMax: 1.0, YMin: -1.25, YMax: 1.25,
	}
}

// Timing is the stacked runtime split of Fig. 4.
type Timing struct {
	Init     time.Duration // context/program/kernel/buffer setup
	Exec     time.Duration // kernel execution
	Transfer time.Duration // result downloads (and gathers for MPI)
}

// Total returns the summed runtime.
func (t Timing) Total() time.Duration { return t.Init + t.Exec + t.Transfer }

// RenderCL computes the fractal with plain OpenCL calls against any
// cl.Platform — the native runtime or the dOpenCL client driver. This is
// the paper's point: the application is identical; only the platform
// changes (via a configuration file in the paper, via the platform handle
// here).
func RenderCL(plat cl.Platform, devices []cl.Device, p Params) ([]int32, Timing, error) {
	var tm Timing
	if len(devices) == 0 {
		return nil, tm, fmt.Errorf("mandelbrot: no devices")
	}
	n := len(devices)

	start := time.Now()
	ctx, err := plat.CreateContext(devices)
	if err != nil {
		return nil, tm, err
	}
	defer func() {
		if rerr := ctx.Release(); rerr != nil {
			_ = rerr
		}
	}()
	prog, err := ctx.CreateProgramWithSource(KernelSource)
	if err != nil {
		return nil, tm, err
	}
	if err := prog.Build(nil, ""); err != nil {
		return nil, tm, err
	}

	type devState struct {
		queue  cl.Queue
		kernel cl.Kernel
		buf    cl.Buffer
		tile   sched.Span
	}
	states := make([]*devState, n)
	for d, tile := range sched.Cyclic(p.Height, n) {
		rows := tile.Len()
		if rows == 0 {
			continue
		}
		q, err := ctx.CreateQueue(devices[d])
		if err != nil {
			return nil, tm, err
		}
		k, err := prog.CreateKernel("mandelbrot")
		if err != nil {
			return nil, tm, err
		}
		buf, err := ctx.CreateBuffer(cl.MemWriteOnly, 4*p.Width*rows, nil)
		if err != nil {
			return nil, tm, err
		}
		states[d] = &devState{queue: q, kernel: k, buf: buf, tile: tile}
	}
	tm.Init = time.Since(start)

	// Execution: launch on every device, then wait for all.
	start = time.Now()
	dx := (p.XMax - p.XMin) / float64(p.Width)
	dy := (p.YMax - p.YMin) / float64(p.Height)
	events := make([]cl.Event, 0, n)
	for _, st := range states {
		if st == nil {
			continue
		}
		args := []any{
			st.buf, int32(p.Width), int32(st.tile.Len()),
			int32(st.tile.Lo), int32(st.tile.Step),
			float32(p.XMin), float32(p.YMin), float32(dx), float32(dy),
			int32(p.MaxIter),
		}
		for i, v := range args {
			if err := st.kernel.SetArg(i, v); err != nil {
				return nil, tm, err
			}
		}
		ev, err := st.queue.EnqueueNDRangeKernel(st.kernel, []int{p.Width * st.tile.Len()}, nil, nil)
		if err != nil {
			return nil, tm, err
		}
		events = append(events, ev)
	}
	if err := cl.WaitForEvents(events); err != nil {
		return nil, tm, err
	}
	tm.Exec = time.Since(start)

	// Transfer: download every device's tile and interleave the rows.
	start = time.Now()
	img := make([]int32, p.Width*p.Height)
	for _, st := range states {
		if st == nil {
			continue
		}
		out := make([]byte, 4*p.Width*st.tile.Len())
		if _, err := st.queue.EnqueueReadBuffer(st.buf, true, 0, out, nil); err != nil {
			return nil, tm, err
		}
		placeTile(img, p.Width, st.tile, out)
	}
	tm.Transfer = time.Since(start)

	for _, st := range states {
		if st == nil {
			continue
		}
		if err := st.queue.Release(); err != nil {
			return nil, tm, err
		}
	}
	return img, tm, nil
}

// RenderPartitioned computes the fractal as ONE ND-range split across
// the given devices by the data-parallel scheduler: one shared output
// buffer, one kernel, chunks placed by the policy (nil: static
// proportional). Against the dOpenCL platform each daemon computes and
// keeps only its own region — the region-granular directory leaves every
// daemon Modified on its chunk — and the final read stitches the regions
// from their holders. Returns the image, the timing split, and the
// per-device scheduler reports (throughput feedback).
func RenderPartitioned(plat cl.Platform, devices []cl.Device, p Params, policy sched.Policy) ([]int32, Timing, []sched.Report, error) {
	var tm Timing
	if len(devices) == 0 {
		return nil, tm, nil, fmt.Errorf("mandelbrot: no devices")
	}
	start := time.Now()
	ctx, err := plat.CreateContext(devices)
	if err != nil {
		return nil, tm, nil, err
	}
	defer func() {
		if rerr := ctx.Release(); rerr != nil {
			_ = rerr
		}
	}()
	prog, err := ctx.CreateProgramWithSource(PartitionedKernelSource)
	if err != nil {
		return nil, tm, nil, err
	}
	if err := prog.Build(nil, ""); err != nil {
		return nil, tm, nil, err
	}
	workers := make([]sched.Worker, len(devices))
	for i, d := range devices {
		q, err := ctx.CreateQueue(d)
		if err != nil {
			return nil, tm, nil, err
		}
		workers[i] = sched.Worker{Queue: q}
	}
	n := p.Width * p.Height
	buf, err := ctx.CreateBuffer(cl.MemWriteOnly, 4*n, nil)
	if err != nil {
		return nil, tm, nil, err
	}
	tm.Init = time.Since(start)

	start = time.Now()
	dx := (p.XMax - p.XMin) / float64(p.Width)
	dy := (p.YMax - p.YMin) / float64(p.Height)
	reports, err := sched.Run(sched.Launch{
		Program: prog,
		Kernel:  "mandelblock",
		Args: []any{nil, int32(p.Width), int32(p.Height),
			float32(p.XMin), float32(p.YMin), float32(dx), float32(dy),
			int32(p.MaxIter)},
		Parts:  []sched.Part{{Arg: 0, Buffer: buf, BytesPerItem: 4}},
		Global: n,
	}, workers, policy)
	if err != nil {
		return nil, tm, reports, err
	}
	tm.Exec = time.Since(start)

	// One whole-buffer read: the region directory stitches each device's
	// chunk from its holder.
	start = time.Now()
	out := make([]byte, 4*n)
	if _, err := workers[0].Queue.EnqueueReadBuffer(buf, true, 0, out, nil); err != nil {
		return nil, tm, reports, err
	}
	img := make([]int32, n)
	for i := range img {
		img[i] = int32(binary.LittleEndian.Uint32(out[4*i:]))
	}
	tm.Transfer = time.Since(start)

	for _, w := range workers {
		if err := w.Queue.Release(); err != nil {
			return nil, tm, reports, err
		}
	}
	return img, tm, reports, nil
}

// NodePlatform supplies rank r with its node-local OpenCL platform in the
// MPI baseline.
type NodePlatform func(rank int) cl.Platform

// RenderMPI computes the fractal with the MPI+OpenCL baseline: rank r
// computes the row-cyclic tile of device r using its node-local OpenCL
// platform, then tiles are gathered at rank 0 — the explicit
// data-distribution and merge code that dOpenCL makes unnecessary
// (Section V-A lists exactly these required modifications).
func RenderMPI(nodes int, link simnet.LinkConfig, plats NodePlatform, p Params) ([]int32, Timing, error) {
	var (
		img  []int32
		tm   Timing
		tmMu = make([]Timing, nodes)
	)
	err := mpi.Run(nodes, link, func(c *mpi.Comm) error {
		rank := c.Rank()
		var t Timing

		// Initialization: local OpenCL setup (MPI runtime setup is the
		// world construction, charged to rank 0 implicitly).
		start := time.Now()
		plat := plats(rank)
		devs, err := plat.Devices(cl.DeviceTypeAll)
		if err != nil {
			return err
		}
		tiles := sched.Cyclic(p.Height, nodes)
		var tile []byte
		t.Init = time.Since(start)

		if tiles[rank].Len() > 0 {
			// Tile computation with plain local OpenCL.
			var tileTm Timing
			tile, tileTm, err = renderLocalTile(plat, devs[0], p, tiles[rank])
			if err != nil {
				return err
			}
			t.Init += tileTm.Init
			t.Exec = tileTm.Exec
			t.Transfer = tileTm.Transfer
		}

		// Gather tiles at rank 0 (the MPI_Gather of the paper).
		start = time.Now()
		parts := c.Gather(0, tile)
		if rank == 0 {
			img = make([]int32, p.Width*p.Height)
			for r, part := range parts {
				placeTile(img, p.Width, tiles[r], part)
			}
		}
		t.Transfer += time.Since(start)
		tmMu[rank] = t
		return nil
	})
	if err != nil {
		return nil, tm, err
	}
	// Report the maximum across ranks per phase (the slowest rank defines
	// the measured runtime).
	for _, t := range tmMu {
		if t.Init > tm.Init {
			tm.Init = t.Init
		}
		if t.Exec > tm.Exec {
			tm.Exec = t.Exec
		}
		if t.Transfer > tm.Transfer {
			tm.Transfer = t.Transfer
		}
	}
	return img, tm, nil
}

// renderLocalTile computes one rank's row-cyclic tile on a single device
// and returns it as the kernel wrote it: its rows in order, 4 bytes per
// pixel.
func renderLocalTile(plat cl.Platform, dev cl.Device, p Params, tile sched.Span) ([]byte, Timing, error) {
	var tm Timing
	start := time.Now()
	ctx, err := plat.CreateContext([]cl.Device{dev})
	if err != nil {
		return nil, tm, err
	}
	defer func() {
		if rerr := ctx.Release(); rerr != nil {
			_ = rerr
		}
	}()
	prog, err := ctx.CreateProgramWithSource(KernelSource)
	if err != nil {
		return nil, tm, err
	}
	if err := prog.Build(nil, ""); err != nil {
		return nil, tm, err
	}
	k, err := prog.CreateKernel("mandelbrot")
	if err != nil {
		return nil, tm, err
	}
	q, err := ctx.CreateQueue(dev)
	if err != nil {
		return nil, tm, err
	}
	rows := tile.Len()
	buf, err := ctx.CreateBuffer(cl.MemWriteOnly, 4*p.Width*rows, nil)
	if err != nil {
		return nil, tm, err
	}
	tm.Init = time.Since(start)

	start = time.Now()
	dx := (p.XMax - p.XMin) / float64(p.Width)
	dy := (p.YMax - p.YMin) / float64(p.Height)
	args := []any{
		buf, int32(p.Width), int32(rows), int32(tile.Lo), int32(tile.Step),
		float32(p.XMin), float32(p.YMin), float32(dx), float32(dy), int32(p.MaxIter),
	}
	for i, v := range args {
		if err := k.SetArg(i, v); err != nil {
			return nil, tm, err
		}
	}
	ev, err := q.EnqueueNDRangeKernel(k, []int{p.Width * rows}, nil, nil)
	if err != nil {
		return nil, tm, err
	}
	if err := ev.Wait(); err != nil {
		return nil, tm, err
	}
	tm.Exec = time.Since(start)

	start = time.Now()
	out := make([]byte, 4*p.Width*rows)
	if _, err := q.EnqueueReadBuffer(buf, true, 0, out, nil); err != nil {
		return nil, tm, err
	}
	tm.Transfer = time.Since(start)
	if err := q.Release(); err != nil {
		return nil, tm, err
	}
	return out, tm, nil
}

// placeTile copies a tile, rows in order as the kernel wrote them, into
// the image rows the tile's span names.
func placeTile(img []int32, width int, tile sched.Span, out []byte) {
	for r := 0; r < tile.Len(); r++ {
		row := tile.Lo + r*tile.Step
		for c := 0; c < width; c++ {
			img[row*width+c] = int32(binary.LittleEndian.Uint32(out[4*(r*width+c):]))
		}
	}
}

// ReferenceRender computes the fractal on the host CPU in pure Go: the
// oracle for correctness tests.
func ReferenceRender(p Params) []int32 {
	img := make([]int32, p.Width*p.Height)
	dx := float32((p.XMax - p.XMin) / float64(p.Width))
	dy := float32((p.YMax - p.YMin) / float64(p.Height))
	for row := 0; row < p.Height; row++ {
		for col := 0; col < p.Width; col++ {
			cx := float32(p.XMin) + float32(col)*dx
			cy := float32(p.YMin) + float32(row)*dy
			var zx, zy float32
			iter := int32(0)
			for iter < int32(p.MaxIter) {
				zx2 := zx * zx
				zy2 := zy * zy
				if zx2+zy2 > 4.0 {
					break
				}
				zx, zy = zx2-zy2+cx, 2*zx*zy+cy
				iter++
			}
			img[row*p.Width+col] = iter
		}
	}
	return img
}
