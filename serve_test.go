// End-to-end tests for the serve plane: batch coalescing, the two-tier
// content-addressed result cache (client stamps + daemon buffer-free
// cache), admission control, and connection-loss semantics — all over a
// simnet cluster with real daemons and the real client driver.
package dopencl_test

import (
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/daemon"
	"dopencl/internal/device"
	"dopencl/internal/native"
	"dopencl/internal/simnet"

	"dopencl"
)

// axpb is the buffer-free serve workload: the whole job travels inline
// (Input payload in, private output slab back), so it is cacheable on
// the daemon too.
const serveAxpbSrc = `
kernel void axpb(const global int* in, global int* out, int f, int n) {
	int i = get_global_id(0);
	if (i < n) { out[i] = in[i] * f + 1; }
}
`

// lutadd reads a shared session buffer (const -> read-only, the only
// binding the serve plane admits), so its cached results carry coherence
// stamps on the client and are never cached by the daemon.
const serveLutSrc = `
kernel void lutadd(const global int* lut, const global int* in, global int* out, int n) {
	int i = get_global_id(0);
	if (i < n) { out[i] = in[i] + lut[i]; }
}
`

// serveCluster is one daemon plus one connected client over simnet.
type serveCluster struct {
	nw   *simnet.Network
	d    *daemon.Daemon
	plat *dopencl.Platform
	srv  *dopencl.Server
	ctx  dopencl.Context
	devs []dopencl.Device
}

func newServeCluster(t testing.TB, node string, window time.Duration) *serveCluster {
	t.Helper()
	nw := simnet.NewNetwork(simnet.LinkConfig{LatencySec: 100e-6})
	return newServeClusterOn(t, nw, node, window)
}

func newServeClusterOn(t testing.TB, nw *simnet.Network, node string, window time.Duration) *serveCluster {
	t.Helper()
	np := native.NewPlatform("serve-"+node, "test", []device.Config{device.TestCPU("cpu0")})
	d, err := daemon.New(daemon.Config{Name: node, Platform: np, ServeWindow: window})
	if err != nil {
		t.Fatal(err)
	}
	l, err := nw.Listen(node)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = d.Serve(l) }()
	t.Cleanup(func() { _ = l.Close() })
	plat := dopencl.NewPlatform(dopencl.Options{Dialer: nw.Dial, ClientName: "serve-client-" + node})
	srv, err := plat.ConnectServer(node)
	if err != nil {
		t.Fatal(err)
	}
	devs, err := plat.Devices(cl.DeviceTypeAll)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := plat.CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ctx.Release() })
	return &serveCluster{nw: nw, d: d, plat: plat, srv: srv, ctx: ctx, devs: devs}
}

func (c *serveCluster) kernel(t testing.TB, src, name string) dopencl.Kernel {
	t.Helper()
	prog, err := c.ctx.CreateProgramWithSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(nil, ""); err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel(name)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func int32sToBytes(vs []int32) []byte {
	out := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
	}
	return out
}

func bytesToInt32s(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// TestServeBatchingEndToEnd submits many small concurrent jobs through
// one serve session and checks that (a) every job's demultiplexed result
// is correct and (b) the daemon coalesced them into far fewer batched
// dispatches than jobs.
func TestServeBatchingEndToEnd(t *testing.T) {
	c := newServeCluster(t, "batch-node", 25*time.Millisecond)
	k := c.kernel(t, serveAxpbSrc, "axpb")
	ses, err := dopencl.OpenServe(c.ctx, c.devs[0], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()

	const jobs, n = 32, 8
	futs := make([]*dopencl.ServeFuture, jobs)
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			in := make([]int32, n)
			for i := range in {
				in[i] = int32(j*n + i)
			}
			futs[j], errs[j] = ses.Submit(dopencl.ServeJob{
				Kernel:   k,
				Args:     []any{nil, nil, int32(3), int32(n)},
				InputArg: 0, OutputArg: 1,
				Input:   int32sToBytes(in),
				OutSize: 4 * n,
				Global:  []int{n},
			})
		}(j)
	}
	wg.Wait()
	maxBatch := 0
	for j := 0; j < jobs; j++ {
		if errs[j] != nil {
			t.Fatalf("submit %d: %v", j, errs[j])
		}
		res, err := futs[j].Wait()
		if err != nil {
			t.Fatalf("job %d: %v", j, err)
		}
		out := bytesToInt32s(res.Output)
		if len(out) != n {
			t.Fatalf("job %d: %d results, want %d", j, len(out), n)
		}
		for i, v := range out {
			if want := int32(j*n+i)*3 + 1; v != want {
				t.Fatalf("job %d element %d = %d, want %d", j, i, v, want)
			}
		}
		if res.BatchSize > maxBatch {
			maxBatch = res.BatchSize
		}
	}
	st := c.d.ServeStats()
	if st.Submitted != jobs || st.BatchedJobs != jobs {
		t.Fatalf("stats = %+v, want %d submitted and batched", st, jobs)
	}
	if st.Dispatches >= jobs/2 {
		t.Fatalf("%d dispatches for %d jobs — coalescing window did not batch", st.Dispatches, jobs)
	}
	if maxBatch < 2 {
		t.Fatalf("max batch size %d, want >= 2", maxBatch)
	}
}

// TestServeWarmCacheHitSkipsWire pins the client cache's core promise:
// resubmitting an identical job completes from the session cache with
// zero wire traffic in either direction and zero new daemon dispatches.
func TestServeWarmCacheHitSkipsWire(t *testing.T) {
	const node = "cache-node"
	c := newServeCluster(t, node, time.Millisecond)
	k := c.kernel(t, serveLutSrc, "lutadd")
	const n = 16
	lut := make([]int32, n)
	for i := range lut {
		lut[i] = int32(100 * (i + 1))
	}
	buf, err := c.ctx.CreateBuffer(cl.MemReadWrite|cl.MemCopyHostPtr, 4*n, int32sToBytes(lut))
	if err != nil {
		t.Fatal(err)
	}
	ses, err := dopencl.OpenServe(c.ctx, c.devs[0], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()

	in := make([]int32, n)
	for i := range in {
		in[i] = int32(i)
	}
	spec := dopencl.ServeJob{
		Kernel:   k,
		Args:     []any{buf, nil, nil, int32(n)},
		InputArg: 1, OutputArg: 2,
		Input:   int32sToBytes(in),
		OutSize: 4 * n,
		Global:  []int{n},
	}
	fut, err := ses.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("cold submit reported cached")
	}
	for i, v := range bytesToInt32s(res.Output) {
		if want := in[i] + lut[i]; v != want {
			t.Fatalf("element %d = %d, want %d", i, v, want)
		}
	}

	client := "client:" + node
	up, down := c.nw.BytesSent(client, node), c.nw.BytesSent(node, client)
	dispatches := c.d.ServeStats().Dispatches

	fut2, err := ses.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := fut2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached || res2.BatchSize != 0 {
		t.Fatalf("warm submit: cached=%v batch=%d, want a pure cache hit", res2.Cached, res2.BatchSize)
	}
	for i, v := range bytesToInt32s(res2.Output) {
		if want := in[i] + lut[i]; v != want {
			t.Fatalf("warm element %d = %d, want %d", i, v, want)
		}
	}
	if du, dd := c.nw.BytesSent(client, node)-up, c.nw.BytesSent(node, client)-down; du != 0 || dd != 0 {
		t.Fatalf("warm cache hit shipped %d bytes up, %d down — want zero wire traffic", du, dd)
	}
	if got := c.d.ServeStats().Dispatches; got != dispatches {
		t.Fatalf("warm cache hit cost a daemon dispatch (%d -> %d)", dispatches, got)
	}
	if cs := ses.CacheStats(); cs.Hits != 1 {
		t.Fatalf("session cache stats = %+v, want 1 hit", cs)
	}
}

// TestServeDaemonCacheSharedAcrossSessions: buffer-free jobs are cached
// on the daemon under a key derived from wire-visible content only, so a
// different session submitting the identical job is answered from the
// daemon cache without a new dispatch (the result rides back marked
// Cached with BatchSize 0).
func TestServeDaemonCacheSharedAcrossSessions(t *testing.T) {
	c := newServeCluster(t, "shared-node", time.Millisecond)
	k := c.kernel(t, serveAxpbSrc, "axpb")
	const n = 8
	spec := dopencl.ServeJob{
		Kernel:   k,
		Args:     []any{nil, nil, int32(2), int32(n)},
		InputArg: 0, OutputArg: 1,
		Input:   int32sToBytes([]int32{1, 2, 3, 4, 5, 6, 7, 8}),
		OutSize: 4 * n,
		Global:  []int{n},
	}

	ses1, err := dopencl.OpenServe(c.ctx, c.devs[0], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ses1.Close()
	fut, err := ses1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	want := bytesToInt32s(res.Output)

	ses2, err := dopencl.OpenServe(c.ctx, c.devs[0], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ses2.Close()
	dispatches := c.d.ServeStats().Dispatches
	fut2, err := ses2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := fut2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached || res2.BatchSize != 0 {
		t.Fatalf("cross-session submit: cached=%v batch=%d, want a daemon cache hit", res2.Cached, res2.BatchSize)
	}
	for i, v := range bytesToInt32s(res2.Output) {
		if v != want[i] {
			t.Fatalf("element %d = %d, want %d", i, v, want[i])
		}
	}
	st := c.d.ServeStats()
	if st.Dispatches != dispatches {
		t.Fatalf("daemon cache hit cost a dispatch (%d -> %d)", dispatches, st.Dispatches)
	}
	if st.CacheHits != 1 {
		t.Fatalf("daemon stats = %+v, want 1 cache hit", st)
	}
}

// TestServeStampInvalidation: a cached result derived from a session
// buffer must die with the buffer's coherence generation — after a write
// to the input range, the identical resubmit misses, dispatches fresh,
// and returns outputs computed from the new contents.
func TestServeStampInvalidation(t *testing.T) {
	c := newServeCluster(t, "stamp-node", time.Millisecond)
	k := c.kernel(t, serveLutSrc, "lutadd")
	const n = 8
	lut1 := []int32{10, 10, 10, 10, 10, 10, 10, 10}
	lut2 := []int32{70, 70, 70, 70, 70, 70, 70, 70}
	buf, err := c.ctx.CreateBuffer(cl.MemReadWrite|cl.MemCopyHostPtr, 4*n, int32sToBytes(lut1))
	if err != nil {
		t.Fatal(err)
	}
	q, err := c.ctx.CreateQueue(c.devs[0])
	if err != nil {
		t.Fatal(err)
	}
	ses, err := dopencl.OpenServe(c.ctx, c.devs[0], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()

	in := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	spec := dopencl.ServeJob{
		Kernel:   k,
		Args:     []any{buf, nil, nil, int32(n)},
		InputArg: 1, OutputArg: 2,
		Input:   int32sToBytes(in),
		OutSize: 4 * n,
		Global:  []int{n},
	}
	submit := func() dopencl.ServeResult {
		t.Helper()
		fut, err := ses.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fut.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	if res := submit(); res.Cached {
		t.Fatal("cold submit reported cached")
	}
	if res := submit(); !res.Cached {
		t.Fatal("identical resubmit missed the session cache")
	}

	// Overwrite the lut: the range generation advances, the stamp goes
	// stale, and the cached entry must be dropped on the next lookup.
	if _, err := q.EnqueueWriteBuffer(buf, true, 0, int32sToBytes(lut2), nil); err != nil {
		t.Fatal(err)
	}
	res := submit()
	if res.Cached {
		t.Fatal("resubmit after input write still answered from cache")
	}
	for i, v := range bytesToInt32s(res.Output) {
		if want := in[i] + lut2[i]; v != want {
			t.Fatalf("element %d = %d, want %d (stale lut?)", i, v, want)
		}
	}
	if cs := ses.CacheStats(); cs.Invalidated != 1 {
		t.Fatalf("session cache stats = %+v, want 1 invalidated entry", cs)
	}
}

// TestServeBusyAdmission: once a session's in-flight share is full,
// Submit refuses with the typed cl.Busy instead of queueing, and the
// session recovers as soon as results drain the share.
func TestServeBusyAdmission(t *testing.T) {
	c := newServeCluster(t, "busy-node", 300*time.Millisecond)
	k := c.kernel(t, serveAxpbSrc, "axpb")
	const n, share = 4, 4
	ses, err := dopencl.OpenServe(c.ctx, c.devs[0], 0, share)
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()

	spec := func(j int) dopencl.ServeJob {
		return dopencl.ServeJob{
			Kernel:   k,
			Args:     []any{nil, nil, int32(j + 1), int32(n)},
			InputArg: 0, OutputArg: 1,
			Input:   int32sToBytes([]int32{1, 2, 3, 4}),
			OutSize: 4 * n,
			Global:  []int{n},
		}
	}
	var futs []*dopencl.ServeFuture
	for j := 0; j < share; j++ {
		fut, err := ses.Submit(spec(j))
		if err != nil {
			t.Fatalf("submit %d within share: %v", j, err)
		}
		futs = append(futs, fut)
	}
	if _, err := ses.Submit(spec(share)); !errors.Is(err, cl.Busy) {
		t.Fatalf("submit beyond share = %v, want cl.Busy", err)
	}
	for _, fut := range futs {
		if _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// The share drained: admission opens again.
	fut, err := ses.Submit(spec(share + 1))
	if err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	if _, err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestServeServerLostFailsOnlyAffected: killing the connection to one
// daemon mid-window fails exactly that session's pending futures with
// ServerLost; a session on a healthy daemon completes untouched.
func TestServeServerLostFailsOnlyAffected(t *testing.T) {
	nw := simnet.NewNetwork(simnet.LinkConfig{LatencySec: 100e-6})
	doomed := newServeClusterOn(t, nw, "doomed-node", 400*time.Millisecond)
	healthy := newServeClusterOn(t, nw, "healthy-node", 50*time.Millisecond)

	submit := func(c *serveCluster, j int) *dopencl.ServeFuture {
		t.Helper()
		k := c.kernel(t, serveAxpbSrc, "axpb")
		ses, err := dopencl.OpenServe(c.ctx, c.devs[0], 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		fut, err := ses.Submit(dopencl.ServeJob{
			Kernel:   k,
			Args:     []any{nil, nil, int32(j), int32(4)},
			InputArg: 0, OutputArg: 1,
			Input:   int32sToBytes([]int32{1, 2, 3, 4}),
			OutSize: 16,
			Global:  []int{4},
		})
		if err != nil {
			t.Fatal(err)
		}
		return fut
	}

	// Both jobs sit inside their daemons' coalescing windows when the
	// doomed link dies.
	doomedFut := submit(doomed, 1)
	healthyFut := submit(healthy, 2)
	nw.Sever("client:doomed-node", "doomed-node")
	select {
	case <-doomed.srv.Down():
	case <-time.After(10 * time.Second):
		t.Fatal("severed server never reported down")
	}

	if _, err := doomedFut.Wait(); cl.CodeOf(err) != cl.ServerLost {
		t.Fatalf("doomed job error = %v, want ServerLost", err)
	}
	res, err := healthyFut.Wait()
	if err != nil {
		t.Fatalf("healthy job: %v", err)
	}
	if got := bytesToInt32s(res.Output); got[0] != 1*2+1 {
		t.Fatalf("healthy output = %v", got)
	}
}

// TestServeSubmitAllocsGate pins the allocation cost of the warm Submit
// path (a session cache hit): the whole freeze-hash-lookup-complete
// cycle must stay within a fixed object budget so key derivation or the
// future plumbing cannot silently grow per-job garbage.
func TestServeSubmitAllocsGate(t *testing.T) {
	c := newServeCluster(t, "allocs-node", time.Millisecond)
	k := c.kernel(t, serveAxpbSrc, "axpb")
	ses, err := dopencl.OpenServe(c.ctx, c.devs[0], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()

	const n = 8
	spec := dopencl.ServeJob{
		Kernel:   k,
		Args:     []any{nil, nil, int32(3), int32(n)},
		InputArg: 0, OutputArg: 1,
		Input:   int32sToBytes(make([]int32, n)),
		OutSize: 4 * n,
		Global:  []int{n},
	}
	fut, err := ses.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	op := func() {
		fut, err := ses.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fut.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Fatal("warm submit missed the cache")
		}
	}
	op() // warm once more before measuring
	allocs := testing.AllocsPerRun(200, op)
	t.Logf("warm serve submit: %.1f allocs/op", allocs)
	const ceiling = 12
	if allocs > ceiling {
		t.Fatalf("warm serve submit allocates %.1f objects/op, gate is %d", allocs, ceiling)
	}
}

// TestServeColdAllocsGate pins the allocation cost of a cold job, end to
// end and process-wide: client submit, key, wire, the daemon's job, fair
// queue, batch dispatch and result cache, the result frame and the
// session cache. Windows of 128 unique 64-int jobs (no cache tier has
// seen any) are submitted and awaited, and the heap objects allocated
// meanwhile, by every goroutine of the process, are divided by the jobs.
// A 1 ms coalescing window keeps batches near full (64 jobs), so the
// per-dispatch share of the count does not swing with the host's timing:
// 23.0 objects per job on a 2-core host, 23.5 under -race.
func TestServeColdAllocsGate(t *testing.T) {
	const window, ints, windows = 128, 64, 16
	c := newServeCluster(t, "cold-allocs-node", time.Millisecond)
	k := c.kernel(t, serveAxpbSrc, "axpb")
	ses, err := dopencl.OpenServe(c.ctx, c.devs[0], 0, 2*window)
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()

	var seq uint32
	inputs := func() [][]byte {
		in := make([][]byte, window)
		for j := range in {
			seq++
			vs := make([]int32, ints)
			vs[0] = int32(seq)
			in[j] = int32sToBytes(vs)
		}
		return in
	}
	futs := make([]*dopencl.ServeFuture, window)
	run := func(in [][]byte) {
		for j := range in {
			fut, err := ses.Submit(dopencl.ServeJob{
				Kernel:   k,
				Args:     []any{nil, nil, int32(3), int32(ints)},
				InputArg: 0, OutputArg: 1,
				Input:   in[j],
				OutSize: 4 * ints,
				Global:  []int{ints},
			})
			if err != nil {
				t.Fatal(err)
			}
			futs[j] = fut
		}
		for j, fut := range futs {
			res, err := fut.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if res.Cached || bytesToInt32s(res.Output)[0] != int32(binary.LittleEndian.Uint32(in[j]))*3+1 {
				t.Fatalf("cold job %d: cached %v, output %v", j, res.Cached, bytesToInt32s(res.Output)[:1])
			}
		}
	}
	for i := 0; i < 4; i++ { // warm the pools and the caches' slots
		run(inputs())
	}
	cold := make([][][]byte, windows)
	for i := range cold {
		cold[i] = inputs()
	}
	var m0, m1 runtime.MemStats
	s0 := c.d.ServeStats()
	runtime.ReadMemStats(&m0)
	for _, in := range cold {
		run(in)
	}
	runtime.ReadMemStats(&m1)
	s1 := c.d.ServeStats()
	perJob := float64(m1.Mallocs-m0.Mallocs) / (windows * window)
	t.Logf("cold serve job: %.1f heap objects, process-wide (%.1f jobs per dispatch)",
		perJob, float64(s1.BatchedJobs-s0.BatchedJobs)/float64(s1.Dispatches-s0.Dispatches))
	const ceiling = 24
	if perJob > ceiling {
		t.Fatalf("a cold serve job allocates %.1f heap objects, gate is %d", perJob, ceiling)
	}
}
