// Package darray implements distributed N-d arrays with automatic halo
// exchange on top of the dOpenCL host API.
//
// The user declares a global 2-D array and a row partition over the
// devices of a context: sched.Split with equal weights, so device i of n
// owns the contiguous rows [i*h/n, (i+1)*h/n) as a sched.Span. The
// runtime derives each device's owned region as a sub-buffer of one
// global buffer, infers the ghost (halo) width from the kernel's loads
// as compiled (stencil radius, see InferHalo), and
// schedules each iteration so halo exchanges run as daemon-to-daemon
// peer forwards overlapped with interior compute. The steady-state
// iteration is recorded once and graph-replayed — one delta frame per
// daemon per iteration — so per-iteration wire traffic is O(surface)
// halo rows, not O(volume).
//
// Kernel conventions (MiniCL source):
//
//   - Stencil kernels: kernel void f(global float* out,
//     const global float* in, int w, int h, int inBase, scalars...).
//     Work-items are global cell indices (row-major). out is indexed
//     out[gid - get_global_offset(0)]; in is indexed in[gid + d - inBase]
//     where each displacement d is an affine expression a*w + b of the
//     parameters — the pattern InferHalo recovers the halo widths from,
//     through helpers and locals, refusing values merged over control
//     flow.
//     in must be const-qualified: that is the MSI read-only hint that
//     lets neighbouring daemons serve halo rows as peer forwards
//     without invalidating the owner.
//
//   - Map kernels: kernel void f(arrays..., int w, int h, scalars...).
//     Work-items are cell indices; every array is indexed
//     [gid - get_global_offset(0)]. Output arrays are non-const,
//     inputs const.
//
//   - Row-reduction kernels (DotRows): kernel void f(global float* part,
//     const global float* x, const global float* y, int w, int h).
//     One work-item per row r; part[r - get_global_offset(0)] receives
//     the row's partial, so the host-side sum over rows is independent
//     of the partition (bit-identical across device counts).
package darray

import (
	"encoding/binary"
	"math"

	"dopencl/internal/cl"
	"dopencl/internal/sched"
)

// Grid is a 2-D W×H float32 problem domain row-partitioned across the
// devices of one context. It owns one in-order queue per device and the
// compiled kernel program; arrays created on the grid share its
// partition.
type Grid struct {
	ctx     cl.Context
	queues  []cl.Queue
	prog    cl.Program
	w, h    int
	parts   []sched.Span
	kernels map[string]cl.Kernel
	arrays  []*Array
	part    *Array // DotRows' per-row partials, created on first use
}

// NewGrid compiles src for the devices and row-partitions an H-row
// domain of W columns across them (near-even contiguous blocks, in
// device order). The context must span every device.
func NewGrid(ctx cl.Context, devices []cl.Device, src string, w, h int) (*Grid, error) {
	if w <= 0 || h <= 0 {
		return nil, cl.Errf(cl.InvalidValue, "darray: grid %dx%d", w, h)
	}
	if len(devices) == 0 {
		return nil, cl.Errf(cl.InvalidValue, "darray: no devices")
	}
	if h < len(devices) {
		return nil, cl.Errf(cl.InvalidValue, "darray: %d rows over %d devices", h, len(devices))
	}
	prog, err := ctx.CreateProgramWithSource(src)
	if err != nil {
		return nil, err
	}
	if err := prog.Build(nil, ""); err != nil {
		return nil, err
	}
	g := &Grid{ctx: ctx, prog: prog, w: w, h: h, kernels: map[string]cl.Kernel{}}
	equal := make([]float64, len(devices))
	for i, d := range devices {
		q, err := ctx.CreateQueue(d)
		if err != nil {
			g.Release()
			return nil, err
		}
		g.queues = append(g.queues, q)
		equal[i] = 1
	}
	g.parts = sched.Split(h, equal, 1)
	return g, nil
}

// W returns the number of columns.
func (g *Grid) W() int { return g.w }

// H returns the number of rows.
func (g *Grid) H() int { return g.h }

// Parts returns the row partition, one span per device in device order.
func (g *Grid) Parts() []sched.Span { return append([]sched.Span(nil), g.parts...) }

// kernel returns (creating on first use) the named kernel object. One
// object serves all queues: arguments are snapshotted at each enqueue.
func (g *Grid) kernel(name string) (cl.Kernel, error) {
	if k, ok := g.kernels[name]; ok {
		return k, nil
	}
	k, err := g.prog.CreateKernel(name)
	if err != nil {
		return nil, err
	}
	g.kernels[name] = k
	return k, nil
}

// Release releases every array, kernel and queue of the grid.
func (g *Grid) Release() {
	for _, a := range g.arrays {
		a.release()
	}
	g.arrays, g.part = nil, nil
	for _, k := range g.kernels {
		k.Release()
	}
	g.kernels = map[string]cl.Kernel{}
	for _, q := range g.queues {
		q.Release()
	}
	g.queues = nil
	if g.prog != nil {
		g.prog.Release()
		g.prog = nil
	}
}

// finish drains every queue, returning the first error.
func (g *Grid) finish() error {
	var first error
	for _, q := range g.queues {
		if err := q.Finish(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// wait drains every queue, then reports the first of the launches that
// failed: a launch that traps on a daemon fails its event, not Finish.
func (g *Grid) wait(launches []cl.Event) error {
	if err := g.finish(); err != nil {
		return err
	}
	return cl.WaitForEvents(launches)
}

// Array is one distributed W×H float32 array on a grid: a single global
// buffer whose per-device owned regions and per-launch halo'd input
// views are sub-buffers. Views are cached by row range — recorded
// command buffers keep them bound across replays.
type Array struct {
	g        *Grid
	buf      cl.Buffer
	rowBytes int
	views    map[sched.Span]cl.Buffer
}

// NewArray allocates a distributed W×H float32 array on the grid.
func (g *Grid) NewArray() (*Array, error) { return g.newArray(4 * g.w) }

// newArray allocates an array with rowBytes bytes per row. The public
// W-column arrays use 4*w; DotRows' per-row partials vector uses 4.
func (g *Grid) newArray(rowBytes int) (*Array, error) {
	buf, err := g.ctx.CreateBuffer(cl.MemReadWrite, rowBytes*g.h, nil)
	if err != nil {
		return nil, err
	}
	a := &Array{g: g, buf: buf, rowBytes: rowBytes, views: map[sched.Span]cl.Buffer{}}
	g.arrays = append(g.arrays, a)
	return a, nil
}

// view returns (creating and caching on first use) the sub-buffer
// covering rows [s.Lo, s.Hi).
func (a *Array) view(s sched.Span) (cl.Buffer, error) {
	if v, ok := a.views[s]; ok {
		return v, nil
	}
	v, err := a.buf.CreateSubBuffer(s.Lo*a.rowBytes, s.Len()*a.rowBytes)
	if err != nil {
		return nil, err
	}
	a.views[s] = v
	return v, nil
}

// Scatter uploads vals (len w*h, row-major) so each device receives
// exactly its owned rows: after the upload every daemon holds its own
// partition and nothing else, and first-iteration halos flow as
// demand-driven forwards.
func (a *Array) Scatter(vals []float32) error {
	if len(vals)*4 != a.rowBytes*a.g.h {
		return cl.Errf(cl.InvalidValue, "darray: scatter %d values into %d bytes", len(vals), a.rowBytes*a.g.h)
	}
	perRow := a.rowBytes / 4
	for pi, p := range a.g.parts {
		if p.Len() == 0 {
			continue
		}
		data := f32bytes(vals[p.Lo*perRow : p.Hi*perRow])
		if _, err := a.g.queues[pi].EnqueueWriteBuffer(a.buf, false, p.Lo*a.rowBytes, data, nil); err != nil {
			return err
		}
	}
	return a.g.finish()
}

// Gather downloads the whole array (row-major), stitching the owned
// regions from their current holders via the coherence read plan.
func (a *Array) Gather() ([]float32, error) {
	data := make([]byte, a.rowBytes*a.g.h)
	if _, err := a.g.queues[0].EnqueueReadBuffer(a.buf, true, 0, data, nil); err != nil {
		return nil, err
	}
	return bytesToF32(data), nil
}

// release frees the array's buffer. Sub-buffer views are local handles;
// releasing the root releases the remote object.
func (a *Array) release() {
	if a.buf != nil {
		a.buf.Release()
		a.buf = nil
	}
	a.views = map[sched.Span]cl.Buffer{}
}

// setArgs binds kernel arguments in order.
func setArgs(k cl.Kernel, args ...any) error {
	for i, v := range args {
		if err := k.SetArg(i, v); err != nil {
			return err
		}
	}
	return nil
}

func f32bytes(vs []float32) []byte {
	b := make([]byte, 4*len(vs))
	for i, v := range vs {
		putF32(b[4*i:], v)
	}
	return b
}

func bytesToF32(b []byte) []float32 {
	vs := make([]float32, len(b)/4)
	for i := range vs {
		vs[i] = getF32(b[4*i:])
	}
	return vs
}

func putF32(b []byte, v float32) { binary.LittleEndian.PutUint32(b, math.Float32bits(v)) }
func getF32(b []byte) float32    { return math.Float32frombits(binary.LittleEndian.Uint32(b)) }
