// Package osem implements the paper's second application study
// (Section V-B): list-mode OSEM, an iterative image-reconstruction
// algorithm for positron emission tomography (PET).
//
// The paper uses the EMRECON reconstruction software with clinical
// quadHIDAC scanner data; neither is available, so this package builds the
// closest synthetic equivalent exercising the same computational
// structure: a 3D image volume, a list of coincidence events (lines of
// response, LORs), and per-subset iterations of
//
//	forward projection   q_e   = Σ_samples  f(x_e(s))
//	back projection      c_j   = Σ_events   A_ej / q_e
//	multiplicative update f_j  = f_j · c_j
//
// where A_ej is a sampled ray-tracing weight. Events are generated from a
// synthetic sphere phantom. The kernels are deliberately
// computation-intensive (ray sampling in the forward pass, event loops in
// the voxel-driven back projection), matching the paper's
// "computation-intensive imaging algorithm".
//
// The event list is cut into its ordered subsets by sched.Chunks, and
// one kernel text serves every variant: Reconstruct and ReconstructGraph
// run it on one device at global offset 0, which is the one-part
// partition of what ReconstructPartitioned spreads over many.
package osem

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/sched"
)

// KernelSource holds the forward-projection, back-projection and update
// kernels. Every output argument is indexed relative to the launch's
// global work offset (gid - get_global_offset(0)), while gid itself is
// the true global coordinate, so one text serves both uses: a
// single-device launch has offset 0 and the index is gid, and under
// internal/sched each device's chunk writes its own sub-buffer view.
// forward partitions over events, backward and update over voxels; the
// shared image/correction buffers are carved into per-daemon regions by
// the coherence directory.
const KernelSource = `
/* Sample the image value at a point along the LOR of event e.
   Events are packed as 6 floats: x1 y1 z1 x2 y2 z2 in voxel units. */
float sampleAt(const global float* img, float x, float y, float z,
               int nx, int ny, int nz) {
	int ix = (int)x;
	int iy = (int)y;
	int iz = (int)z;
	if (ix < 0 || ix >= nx || iy < 0 || iy >= ny || iz < 0 || iz >= nz) {
		return 0.0;
	}
	return img[(iz * ny + iy) * nx + ix];
}

kernel void forward(global float* q, const global float* img,
                    const global float* events, int nevents,
                    int nx, int ny, int nz, int nsamples) {
	int e = get_global_id(0);
	if (e >= nevents) {
		return;
	}
	float x1 = events[e * 6 + 0];
	float y1 = events[e * 6 + 1];
	float z1 = events[e * 6 + 2];
	float x2 = events[e * 6 + 3];
	float y2 = events[e * 6 + 4];
	float z2 = events[e * 6 + 5];
	float acc = 0.0;
	float inv = 1.0 / (float)nsamples;
	for (int s = 0; s < nsamples; s++) {
		float t = ((float)s + 0.5) * inv;
		float x = x1 + (x2 - x1) * t;
		float y = y1 + (y2 - y1) * t;
		float z = z1 + (z2 - z1) * t;
		acc += sampleAt(img, x, y, z, nx, ny, nz) * inv;
	}
	q[e - get_global_offset(0)] = fmax(acc, 0.000001);
}

/* Voxel-driven back projection: each work item owns one voxel of the
   output correction image and integrates the contributions of every
   event whose sampled ray visits the voxel. */
kernel void backward(global float* corr, const global float* q,
                     const global float* events, int nevents,
                     int nx, int ny, int nz, int nsamples) {
	int j = get_global_id(0);
	if (j >= nx * ny * nz) {
		return;
	}
	int jx = j % nx;
	int jy = (j / nx) % ny;
	int jz = j / (nx * ny);
	float acc = 0.0;
	float inv = 1.0;
	inv = inv / (float)nsamples;
	for (int e = 0; e < nevents; e++) {
		float x1 = events[e * 6 + 0];
		float y1 = events[e * 6 + 1];
		float z1 = events[e * 6 + 2];
		float x2 = events[e * 6 + 3];
		float y2 = events[e * 6 + 4];
		float z2 = events[e * 6 + 5];
		float w = 0.0;
		for (int s = 0; s < nsamples; s++) {
			float t = ((float)s + 0.5) * inv;
			float x = x1 + (x2 - x1) * t;
			float y = y1 + (y2 - y1) * t;
			float z = z1 + (z2 - z1) * t;
			if ((int)x == jx && (int)y == jy && (int)z == jz) {
				w += inv;
			}
		}
		if (w > 0.0) {
			acc += w / q[e];
		}
	}
	corr[j - get_global_offset(0)] = acc;
}

kernel void update(global float* img, const global float* corr, int nvoxels) {
	int j = get_global_id(0);
	if (j >= nvoxels) {
		return;
	}
	int lj = j - get_global_offset(0);
	float c = corr[lj];
	if (c > 0.0) {
		img[lj] = img[lj] * c;
	}
}
`

// Volume describes the reconstruction grid.
type Volume struct {
	NX, NY, NZ int
}

// Voxels returns the voxel count.
func (v Volume) Voxels() int { return v.NX * v.NY * v.NZ }

// Event is one coincidence event (LOR endpoints in voxel coordinates).
type Event struct {
	X1, Y1, Z1 float32
	X2, Y2, Z2 float32
}

// SynthesizeEvents generates list-mode events from a spherical phantom
// centred in the volume: pairs of points on the volume boundary whose
// connecting line passes near the phantom (plus background randoms),
// mimicking the quadHIDAC list-mode data used in the paper.
func SynthesizeEvents(vol Volume, n int, seed int64) []Event {
	rng := rand.New(rand.NewSource(seed))
	cx := float64(vol.NX) / 2
	cy := float64(vol.NY) / 2
	cz := float64(vol.NZ) / 2
	r := math.Min(cx, math.Min(cy, cz)) / 2
	events := make([]Event, n)
	for i := range events {
		// Pick a point inside the sphere, then a random direction; the
		// LOR is the chord through the volume.
		var px, py, pz float64
		for {
			px = rng.NormFloat64() * r / 2
			py = rng.NormFloat64() * r / 2
			pz = rng.NormFloat64() * r / 2
			if px*px+py*py+pz*pz <= r*r {
				break
			}
		}
		px, py, pz = px+cx, py+cy, pz+cz
		theta := rng.Float64() * 2 * math.Pi
		phi := math.Acos(2*rng.Float64() - 1)
		dx := math.Sin(phi) * math.Cos(theta)
		dy := math.Sin(phi) * math.Sin(theta)
		dz := math.Cos(phi)
		t := math.Max(float64(vol.NX), math.Max(float64(vol.NY), float64(vol.NZ)))
		events[i] = Event{
			X1: float32(px - dx*t), Y1: float32(py - dy*t), Z1: float32(pz - dz*t),
			X2: float32(px + dx*t), Y2: float32(py + dy*t), Z2: float32(pz + dz*t),
		}
	}
	return events
}

// PackEvents serialises events for device buffers (6 float32 each).
func PackEvents(events []Event) []byte {
	b := make([]byte, 24*len(events))
	for i, e := range events {
		vals := [6]float32{e.X1, e.Y1, e.Z1, e.X2, e.Y2, e.Z2}
		for k, v := range vals {
			binary.LittleEndian.PutUint32(b[24*i+4*k:], math.Float32bits(v))
		}
	}
	return b
}

// Params configures a reconstruction.
type Params struct {
	Vol        Volume
	Events     []Event
	Subsets    int // ordered subsets per iteration
	Iterations int
	NSamples   int // ray samples per event
}

// subsetSize is the event count of a full subset: every one but the last.
func (p Params) subsetSize() int { return (len(p.Events) + p.Subsets - 1) / p.Subsets }

// subsets cuts the events into the ordered subsets of one iteration:
// consecutive runs of subsetSize events, the last one shorter.
func (p Params) subsets() []sched.Span { return sched.Chunks(len(p.Events), p.subsetSize()) }

// Result carries the reconstructed image and timing.
type Result struct {
	Image         []float32
	MeanIteration time.Duration // mean full-iteration runtime (Fig. 5 metric)
	Total         time.Duration
	Transfer      time.Duration // host↔device data movement
}

// Reconstruct runs list-mode OSEM on a single device via the OpenCL API —
// identical host code for the native runtime (the paper's "native OpenCL"
// and desktop-GPU cases) and the dOpenCL driver (the offload case).
func Reconstruct(plat cl.Platform, dev cl.Device, p Params) (Result, error) {
	var res Result
	if p.Subsets <= 0 || p.Iterations <= 0 || p.NSamples <= 0 {
		return res, fmt.Errorf("osem: bad parameters %+v", p)
	}
	nv := p.Vol.Voxels()
	ctx, err := plat.CreateContext([]cl.Device{dev})
	if err != nil {
		return res, err
	}
	defer func() {
		if rerr := ctx.Release(); rerr != nil {
			_ = rerr
		}
	}()
	prog, err := ctx.CreateProgramWithSource(KernelSource)
	if err != nil {
		return res, err
	}
	if err := prog.Build(nil, ""); err != nil {
		return res, err
	}
	q, err := ctx.CreateQueue(dev)
	if err != nil {
		return res, err
	}

	// Initial image: uniform ones.
	img := make([]float32, nv)
	for i := range img {
		img[i] = 1
	}
	imgBuf, err := ctx.CreateBuffer(cl.MemReadWrite|cl.MemCopyHostPtr, 4*nv, f32bytes(img))
	if err != nil {
		return res, err
	}
	corrBuf, err := ctx.CreateBuffer(cl.MemReadWrite, 4*nv, nil)
	if err != nil {
		return res, err
	}

	fwd, err := prog.CreateKernel("forward")
	if err != nil {
		return res, err
	}
	bwd, err := prog.CreateKernel("backward")
	if err != nil {
		return res, err
	}
	upd, err := prog.CreateKernel("update")
	if err != nil {
		return res, err
	}

	subsets := p.subsets()
	totalStart := time.Now()
	for it := 0; it < p.Iterations; it++ {
		for _, span := range subsets {
			sub := p.Events[span.Lo:span.Hi]
			ne := len(sub)

			// Upload this subset's events — the per-iteration bulk
			// transfer that dominates the dOpenCL offload case.
			tStart := time.Now()
			evBuf, err := ctx.CreateBuffer(cl.MemReadOnly|cl.MemCopyHostPtr, 24*ne, PackEvents(sub))
			if err != nil {
				return res, err
			}
			qBuf, err := ctx.CreateBuffer(cl.MemReadWrite, 4*ne, nil)
			if err != nil {
				return res, err
			}
			res.Transfer += time.Since(tStart)

			setArgs := func(k cl.Kernel, args ...any) error {
				for i, v := range args {
					if err := k.SetArg(i, v); err != nil {
						return err
					}
				}
				return nil
			}
			if err := setArgs(fwd, qBuf, imgBuf, evBuf, int32(ne),
				int32(p.Vol.NX), int32(p.Vol.NY), int32(p.Vol.NZ), int32(p.NSamples)); err != nil {
				return res, err
			}
			evF, err := q.EnqueueNDRangeKernel(fwd, []int{ne}, nil, nil)
			if err != nil {
				return res, err
			}
			if err := setArgs(bwd, corrBuf, qBuf, evBuf, int32(ne),
				int32(p.Vol.NX), int32(p.Vol.NY), int32(p.Vol.NZ), int32(p.NSamples)); err != nil {
				return res, err
			}
			evB, err := q.EnqueueNDRangeKernel(bwd, []int{nv}, nil, []cl.Event{evF})
			if err != nil {
				return res, err
			}
			if err := setArgs(upd, imgBuf, corrBuf, int32(nv)); err != nil {
				return res, err
			}
			evU, err := q.EnqueueNDRangeKernel(upd, []int{nv}, nil, []cl.Event{evB})
			if err != nil {
				return res, err
			}
			if err := evU.Wait(); err != nil {
				return res, err
			}
			if err := evBuf.Release(); err != nil {
				return res, err
			}
			if err := qBuf.Release(); err != nil {
				return res, err
			}
		}
	}
	res.Total = time.Since(totalStart)
	res.MeanIteration = res.Total / time.Duration(p.Iterations)

	tStart := time.Now()
	out := make([]byte, 4*nv)
	if _, err := q.EnqueueReadBuffer(imgBuf, true, 0, out, nil); err != nil {
		return res, err
	}
	res.Transfer += time.Since(tStart)
	res.Image = bytesToF32(out)
	if err := q.Release(); err != nil {
		return res, err
	}
	return res, nil
}

// ReconstructGraph runs the same algorithm through the recorded
// command-graph API: the steady-state subset iteration — upload the
// subset's events, forward projection, back projection, multiplicative
// update — is recorded once and then replayed with one frame per
// subset, patching only the event payload and count between replays.
// Against a remote dOpenCL device this collapses the per-subset message
// cost from one message per command (plus the payload re-encode) to a
// single MsgExecGraph frame; the reconstructed image is bit-identical
// to Reconstruct's.
func ReconstructGraph(plat cl.Platform, dev cl.Device, p Params) (Result, error) {
	var res Result
	if p.Subsets <= 0 || p.Iterations <= 0 || p.NSamples <= 0 {
		return res, fmt.Errorf("osem: bad parameters %+v", p)
	}
	nv := p.Vol.Voxels()
	ctx, err := plat.CreateContext([]cl.Device{dev})
	if err != nil {
		return res, err
	}
	defer func() {
		if rerr := ctx.Release(); rerr != nil {
			_ = rerr
		}
	}()
	prog, err := ctx.CreateProgramWithSource(KernelSource)
	if err != nil {
		return res, err
	}
	if err := prog.Build(nil, ""); err != nil {
		return res, err
	}
	q, err := ctx.CreateQueue(dev)
	if err != nil {
		return res, err
	}

	img := make([]float32, nv)
	for i := range img {
		img[i] = 1
	}
	imgBuf, err := ctx.CreateBuffer(cl.MemReadWrite|cl.MemCopyHostPtr, 4*nv, f32bytes(img))
	if err != nil {
		return res, err
	}
	corrBuf, err := ctx.CreateBuffer(cl.MemReadWrite, 4*nv, nil)
	if err != nil {
		return res, err
	}
	// Fixed-capacity subset buffers, sized for the largest subset: the
	// recorded write always transfers the full capacity, and the ragged
	// last subset rides the same graph with a patched event count (the
	// kernels guard on nevents, so the padding is never read).
	subsetSize := p.subsetSize()
	evBuf, err := ctx.CreateBuffer(cl.MemReadWrite, 24*subsetSize, nil)
	if err != nil {
		return res, err
	}
	qBuf, err := ctx.CreateBuffer(cl.MemReadWrite, 4*subsetSize, nil)
	if err != nil {
		return res, err
	}

	fwd, err := prog.CreateKernel("forward")
	if err != nil {
		return res, err
	}
	bwd, err := prog.CreateKernel("backward")
	if err != nil {
		return res, err
	}
	upd, err := prog.CreateKernel("update")
	if err != nil {
		return res, err
	}
	setArgs := func(k cl.Kernel, args ...any) error {
		for i, v := range args {
			if err := k.SetArg(i, v); err != nil {
				return err
			}
		}
		return nil
	}
	if err := setArgs(fwd, qBuf, imgBuf, evBuf, int32(subsetSize),
		int32(p.Vol.NX), int32(p.Vol.NY), int32(p.Vol.NZ), int32(p.NSamples)); err != nil {
		return res, err
	}
	if err := setArgs(bwd, corrBuf, qBuf, evBuf, int32(subsetSize),
		int32(p.Vol.NX), int32(p.Vol.NY), int32(p.Vol.NZ), int32(p.NSamples)); err != nil {
		return res, err
	}
	if err := setArgs(upd, imgBuf, corrBuf, int32(nv)); err != nil {
		return res, err
	}

	// Record the steady-state subset iteration once. The queue is
	// in-order, so the recorded events are ordering no-ops; the payload
	// placeholder is patched before the first replay.
	if err := q.BeginRecording(); err != nil {
		return res, err
	}
	if _, err := q.EnqueueWriteBuffer(evBuf, false, 0, make([]byte, 24*subsetSize), nil); err != nil {
		return res, err
	}
	if _, err := q.EnqueueNDRangeKernel(fwd, []int{subsetSize}, nil, nil); err != nil {
		return res, err
	}
	if _, err := q.EnqueueNDRangeKernel(bwd, []int{nv}, nil, nil); err != nil {
		return res, err
	}
	if _, err := q.EnqueueNDRangeKernel(upd, []int{nv}, nil, nil); err != nil {
		return res, err
	}
	cb, err := q.Finalize()
	if err != nil {
		return res, err
	}

	subsets := p.subsets()
	totalStart := time.Now()
	for it := 0; it < p.Iterations; it++ {
		for _, span := range subsets {
			sub := p.Events[span.Lo:span.Hi]
			ne := len(sub)

			tStart := time.Now()
			payload := make([]byte, 24*subsetSize)
			copy(payload, PackEvents(sub))
			res.Transfer += time.Since(tStart)

			// One frame per subset: new events, new event count.
			ev, err := q.EnqueueCommandBuffer(cb, []cl.CommandUpdate{
				cl.WriteDataUpdate(0, payload),
				cl.KernelArgUpdate(1, 3, int32(ne)), // forward nevents
				cl.KernelArgUpdate(2, 3, int32(ne)), // backward nevents
			}, nil)
			if err != nil {
				return res, err
			}
			if err := ev.Wait(); err != nil {
				return res, err
			}
		}
	}
	res.Total = time.Since(totalStart)
	res.MeanIteration = res.Total / time.Duration(p.Iterations)

	if err := cb.Release(); err != nil {
		return res, err
	}
	tStart := time.Now()
	out := make([]byte, 4*nv)
	if _, err := q.EnqueueReadBuffer(imgBuf, true, 0, out, nil); err != nil {
		return res, err
	}
	res.Transfer += time.Since(tStart)
	res.Image = bytesToF32(out)
	if err := q.Release(); err != nil {
		return res, err
	}
	return res, nil
}

// ReconstructPartitioned runs list-mode OSEM with every kernel phase
// split across the given devices by the data-parallel scheduler: the
// forward projection partitions over events, the back projection and the
// multiplicative update over voxels. The image and correction buffers
// are shared — each device owns a region, tracked by the region-granular
// coherence directory; the forward pass's whole-image reads gather the
// other devices' regions (range transfers, never whole buffers), and the
// final read stitches the reconstructed image from its holders. The math
// is identical to Reconstruct, so the result matches the single-device
// reference bit for bit.
func ReconstructPartitioned(plat cl.Platform, devices []cl.Device, p Params, policy sched.Policy) (Result, error) {
	var res Result
	if p.Subsets <= 0 || p.Iterations <= 0 || p.NSamples <= 0 {
		return res, fmt.Errorf("osem: bad parameters %+v", p)
	}
	if len(devices) == 0 {
		return res, fmt.Errorf("osem: no devices")
	}
	nv := p.Vol.Voxels()
	ctx, err := plat.CreateContext(devices)
	if err != nil {
		return res, err
	}
	defer func() {
		if rerr := ctx.Release(); rerr != nil {
			_ = rerr
		}
	}()
	prog, err := ctx.CreateProgramWithSource(KernelSource)
	if err != nil {
		return res, err
	}
	if err := prog.Build(nil, ""); err != nil {
		return res, err
	}
	workers := make([]sched.Worker, len(devices))
	for i, d := range devices {
		q, err := ctx.CreateQueue(d)
		if err != nil {
			return res, err
		}
		workers[i] = sched.Worker{Queue: q}
	}

	img := make([]float32, nv)
	for i := range img {
		img[i] = 1
	}
	imgBuf, err := ctx.CreateBuffer(cl.MemReadWrite|cl.MemCopyHostPtr, 4*nv, f32bytes(img))
	if err != nil {
		return res, err
	}
	corrBuf, err := ctx.CreateBuffer(cl.MemReadWrite, 4*nv, nil)
	if err != nil {
		return res, err
	}

	subsets := p.subsets()
	totalStart := time.Now()
	for it := 0; it < p.Iterations; it++ {
		for _, span := range subsets {
			sub := p.Events[span.Lo:span.Hi]
			ne := len(sub)

			tStart := time.Now()
			evBuf, err := ctx.CreateBuffer(cl.MemReadOnly|cl.MemCopyHostPtr, 24*ne, PackEvents(sub))
			if err != nil {
				return res, err
			}
			qBuf, err := ctx.CreateBuffer(cl.MemReadWrite, 4*ne, nil)
			if err != nil {
				return res, err
			}
			res.Transfer += time.Since(tStart)

			// Forward projection: partition over events, q chunked.
			if _, err := sched.Run(sched.Launch{
				Program: prog, Kernel: "forward",
				Args: []any{nil, imgBuf, evBuf, int32(ne),
					int32(p.Vol.NX), int32(p.Vol.NY), int32(p.Vol.NZ), int32(p.NSamples)},
				Parts:  []sched.Part{{Arg: 0, Buffer: qBuf, BytesPerItem: 4}},
				Global: ne,
			}, workers, policy); err != nil {
				return res, err
			}
			// Back projection: partition over voxels, corr chunked.
			if _, err := sched.Run(sched.Launch{
				Program: prog, Kernel: "backward",
				Args: []any{nil, qBuf, evBuf, int32(ne),
					int32(p.Vol.NX), int32(p.Vol.NY), int32(p.Vol.NZ), int32(p.NSamples)},
				Parts:  []sched.Part{{Arg: 0, Buffer: corrBuf, BytesPerItem: 4}},
				Global: nv,
			}, workers, policy); err != nil {
				return res, err
			}
			// Multiplicative update: partition over voxels, img and corr
			// chunked together (each device updates its own image region).
			if _, err := sched.Run(sched.Launch{
				Program: prog, Kernel: "update",
				Args: []any{nil, nil, int32(nv)},
				Parts: []sched.Part{
					{Arg: 0, Buffer: imgBuf, BytesPerItem: 4},
					{Arg: 1, Buffer: corrBuf, BytesPerItem: 4},
				},
				Global: nv,
			}, workers, policy); err != nil {
				return res, err
			}
			if err := evBuf.Release(); err != nil {
				return res, err
			}
			if err := qBuf.Release(); err != nil {
				return res, err
			}
		}
	}
	res.Total = time.Since(totalStart)
	res.MeanIteration = res.Total / time.Duration(p.Iterations)

	tStart := time.Now()
	out := make([]byte, 4*nv)
	if _, err := workers[0].Queue.EnqueueReadBuffer(imgBuf, true, 0, out, nil); err != nil {
		return res, err
	}
	res.Transfer += time.Since(tStart)
	res.Image = bytesToF32(out)
	for _, w := range workers {
		if err := w.Queue.Release(); err != nil {
			return res, err
		}
	}
	return res, nil
}

// ReferenceReconstruct runs the same algorithm in pure Go: the oracle for
// correctness tests.
func ReferenceReconstruct(p Params) []float32 {
	nv := p.Vol.Voxels()
	img := make([]float32, nv)
	for i := range img {
		img[i] = 1
	}
	subsets := p.subsets()
	sample := func(x, y, z float32) float32 {
		ix, iy, iz := int(x), int(y), int(z)
		if ix < 0 || ix >= p.Vol.NX || iy < 0 || iy >= p.Vol.NY || iz < 0 || iz >= p.Vol.NZ {
			return 0
		}
		return img[(iz*p.Vol.NY+iy)*p.Vol.NX+ix]
	}
	for it := 0; it < p.Iterations; it++ {
		for _, span := range subsets {
			sub := p.Events[span.Lo:span.Hi]
			q := make([]float32, len(sub))
			inv := float32(1) / float32(p.NSamples)
			for e, ev := range sub {
				var acc float32
				for sm := 0; sm < p.NSamples; sm++ {
					t := (float32(sm) + 0.5) * inv
					acc += sample(ev.X1+(ev.X2-ev.X1)*t, ev.Y1+(ev.Y2-ev.Y1)*t, ev.Z1+(ev.Z2-ev.Z1)*t) * inv
				}
				if acc < 0.000001 {
					acc = 0.000001
				}
				q[e] = acc
			}
			corr := make([]float32, nv)
			for j := 0; j < nv; j++ {
				jx := j % p.Vol.NX
				jy := (j / p.Vol.NX) % p.Vol.NY
				jz := j / (p.Vol.NX * p.Vol.NY)
				var acc float32
				for e, ev := range sub {
					var w float32
					for sm := 0; sm < p.NSamples; sm++ {
						t := (float32(sm) + 0.5) * inv
						x := ev.X1 + (ev.X2-ev.X1)*t
						y := ev.Y1 + (ev.Y2-ev.Y1)*t
						z := ev.Z1 + (ev.Z2-ev.Z1)*t
						if int(x) == jx && int(y) == jy && int(z) == jz {
							w += inv
						}
					}
					if w > 0 {
						acc += w / q[e]
					}
				}
				corr[j] = acc
			}
			for j := 0; j < nv; j++ {
				if corr[j] > 0 {
					img[j] *= corr[j]
				}
			}
		}
	}
	return img
}

func f32bytes(vs []float32) []byte {
	b := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return b
}

func bytesToF32(b []byte) []float32 {
	vs := make([]float32, len(b)/4)
	for i := range vs {
		vs[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return vs
}
