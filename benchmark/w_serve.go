package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/client"
	"dopencl/internal/kernel"
	"dopencl/internal/serve"
)

const (
	serveWindow   = 128 // jobs per closed-loop window (= ServeMaxBatch)
	serveJobInts  = 64  // int32 elements per job
	serveFactor   = 3
	serveClients  = 2 // connections, one ServeSession each
	serveJobBytes = 4 * serveJobInts
)

var (
	// Windows per round in the cold phase, and resubmissions of the fixed
	// window per round in the repeat phase.
	serveColdWindows, serveRepeatWindows = 4, 4
)

const axpbSource = `
kernel void axpb(const global int* in, global int* out, int f, int n) {
	int i = get_global_id(0);
	if (i < n) { out[i] = in[i] * f + 1; }
}
`

// serveClient is one connection with its serve session.
type serveClient struct {
	plat *client.Platform
	ctx  cl.Context
	k    cl.Kernel
	ses  *client.ServeSession
	sc   *scope

	fixed [][]byte // the repeat phase's window
	seq   uint32   // unique-input counter for the cold phase
	id    int
	salt  uint32

	lat, submit, hit samples
	busy             int
}

func (c *serveClient) close() {
	if c == nil {
		return
	}
	if c.ses != nil {
		_ = c.ses.Close() // tearing down
	}
	if c.ctx != nil {
		_ = c.ctx.Release()
	}
	if c.plat != nil {
		disconnect(c.plat)
	}
}

func (c *serveClient) spec(input []byte) client.JobSpec {
	return client.JobSpec{
		Kernel:   c.k,
		Args:     []any{nil, nil, int32(serveFactor), int32(serveJobInts)},
		InputArg: 0, OutputArg: 1,
		Input:   input,
		OutSize: serveJobBytes,
		Global:  []int{serveJobInts},
	}
}

// checkOutput verifies out[i] == in[i]*f+1 for every element.
func checkOutput(in, out []byte) bool {
	if len(out) != len(in) {
		return false
	}
	for i := 0; i+4 <= len(in); i += 4 {
		v := int32(binary.LittleEndian.Uint32(in[i:]))
		if int32(binary.LittleEndian.Uint32(out[i:])) != v*serveFactor+1 {
			return false
		}
	}
	return true
}

// window submits the inputs, then waits for and checks every result.
// It returns the wall time; per-job latencies go to lat when non-nil.
func (c *serveClient) window(p *pass, inputs [][]byte, lat, submit *samples, wantCached bool) time.Duration {
	defer c.sc.begin("serve.window")()
	type inflight struct {
		fut *serve.Future
		at  time.Time
	}
	futs := make([]inflight, 0, len(inputs))
	start := time.Now()
	for _, in := range inputs {
		t0 := time.Now()
		fut, err := c.ses.Submit(c.spec(in))
		if submit != nil {
			submit.add(time.Since(t0))
		}
		if err != nil {
			if cl.CodeOf(err) == cl.Busy {
				c.busy++
			}
			p.op(false, "serve submit: %v", err)
			futs = append(futs, inflight{})
			continue
		}
		futs = append(futs, inflight{fut, t0})
	}
	for i, f := range futs {
		if f.fut == nil {
			continue
		}
		res, err := f.fut.Wait()
		if lat != nil {
			lat.add(time.Since(f.at))
		}
		ok := err == nil && checkOutput(inputs[i], res.Output) && (!wantCached || res.Cached)
		p.op(ok, "serve job: err=%v cached=%v (want cached=%v)", err, res.Cached, wantCached)
	}
	return time.Since(start)
}

// uniqueWindow generates inputs no cache tier has seen: a per-client
// salt, a counter and seed-derived filler.
func (c *serveClient) uniqueWindow(fill []byte) [][]byte {
	inputs := make([][]byte, serveWindow)
	for j := range inputs {
		in := append([]byte(nil), fill...)
		c.seq++
		binary.LittleEndian.PutUint32(in[0:], c.salt)
		binary.LittleEndian.PutUint32(in[4:], c.seq)
		inputs[j] = in
	}
	return inputs
}

// serveState is what a serve set-up builds: one daemon and the clients,
// each with its context, kernel and open serve session.
type serveState struct {
	c       *cluster
	clients [serveClients]*serveClient
}

func (st *serveState) close() {
	for _, sc := range st.clients {
		sc.close()
	}
	if st.c != nil {
		st.c.close()
	}
}

func (st *serveState) build(p *pass, rng *rand.Rand, fill []byte) error {
	var err error
	if st.c, err = startCluster(clusterSpec{daemons: 1, devType: cl.DeviceTypeCPU, serveMaxBatch: serveWindow, w: p.w}); err != nil {
		return err
	}
	for i := range st.clients {
		sc := &serveClient{id: i, salt: uint32(rng.Int31())<<1 | uint32(i), sc: p.tr.scope(i + 1)}
		st.clients[i] = sc
		if sc.plat, err = st.c.connect(fmt.Sprintf("benchmark-serve-%d", i)); err != nil {
			return err
		}
		devs, err := sc.plat.Devices(cl.DeviceTypeAll)
		if err != nil {
			return err
		}
		if sc.ctx, err = sc.plat.CreateContext(devs); err != nil {
			return err
		}
		prog, err := sc.ctx.CreateProgramWithSource(axpbSource)
		if err != nil {
			return err
		}
		if err := prog.Build(nil, ""); err != nil {
			return err
		}
		if sc.k, err = prog.CreateKernel("axpb"); err != nil {
			return err
		}
		if sc.ses, err = sc.ctx.(*client.Context).OpenServe(devs[0], 0, 2*serveWindow); err != nil {
			return err
		}
		// First cold operation: one window starts the dispatcher and
		// fills the pools.
		sc.window(p, sc.uniqueWindow(fill), nil, nil, false)
	}
	return nil
}

// runServe: many tiny jobs through the serve plane — fair queue, hasher,
// caches, the daemon's coalescing dispatcher and vm.RunBatch. The cold
// phase defeats every cache tier; the repeat phase is answered from the
// session cache.
func runServe(p *pass) error {
	rng := p.rng()
	fill := make([]byte, serveJobBytes)
	for i := 0; i < serveJobInts; i++ {
		binary.LittleEndian.PutUint32(fill[4*i:], uint32(rng.Int31n(1<<20)))
	}

	st, err := setUp(p, func() (*serveState, error) {
		st := &serveState{}
		if err := st.build(p, rng, fill); err != nil {
			st.close()
			return nil, err
		}
		return st, nil
	})
	if err != nil {
		return err
	}
	defer st.close()
	clients := st.clients
	d := st.c.nodes[0].d

	// both runs fn on every client concurrently (the two load-generating
	// goroutines) and returns the wall time of the slowest.
	both := func(fn func(sc *serveClient)) time.Duration {
		var wg sync.WaitGroup
		t0 := time.Now()
		for _, sc := range clients {
			wg.Add(1)
			go func(sc *serveClient) {
				defer wg.Done()
				fn(sc)
			}(sc)
		}
		wg.Wait()
		return time.Since(t0)
	}

	// Discarded warm-up window set, then the fixed windows the repeat
	// phase resubmits (their first submission is a cold miss that fills
	// the session cache).
	both(func(sc *serveClient) {
		for i := 0; i < 4; i++ {
			sc.window(p, sc.uniqueWindow(fill), nil, nil, false)
		}
		sc.fixed = sc.uniqueWindow(fill)
		sc.window(p, sc.fixed, nil, nil, false)
	})

	stats0 := d.ServeStats()
	var coldTime, hitTime time.Duration
	var coldBlocks samples // wall time of each round's cold phase
	coldJobs, hitJobs := 0, 0
	cache0 := [serveClients]serve.CacheStats{}
	var hits, lookups int64
	p.begin()
	for round := 0; p.more(round, 1); round++ {
		cold := both(func(sc *serveClient) {
			defer sc.sc.begin(fmt.Sprintf("serve.round.%d", round))()
			for i := 0; i < serveColdWindows; i++ {
				sc.window(p, sc.uniqueWindow(fill), &sc.lat, &sc.submit, false)
			}
		})
		coldTime += cold
		coldBlocks.add(cold)
		coldJobs += serveClients * serveColdWindows * serveWindow
		for i, sc := range clients {
			cache0[i] = sc.ses.CacheStats()
		}
		hitTime += both(func(sc *serveClient) {
			for i := 0; i < serveRepeatWindows; i++ {
				sc.window(p, sc.fixed, nil, &sc.hit, true)
			}
		})
		hitJobs += serveClients * serveRepeatWindows * serveWindow
		for i, sc := range clients {
			cs := sc.ses.CacheStats()
			hits += cs.Hits - cache0[i].Hits
			lookups += (cs.Hits - cache0[i].Hits) + (cs.Misses - cache0[i].Misses)
		}
	}
	stats1 := d.ServeStats()

	var lat, submit, hit samples
	busy := 0
	for _, sc := range clients {
		lat = append(lat, sc.lat...)
		submit = append(submit, sc.submit...)
		hit = append(hit, sc.hit...)
		busy += sc.busy
	}
	perJob := coldTime.Seconds() / float64(coldJobs)
	p99 := percentile(lat, 99)
	// The gated time is a whole cold phase of a round, both clients'
	// windows, per job. A single window is no measure of the rate: the
	// fastest are the ones the daemon served while the other client was
	// between windows.
	p.slot(0, coldBlocks, float64(serveClients*serveColdWindows*serveWindow))
	p.r.put("jobs_per_s", 1/perJob, coldJobs)
	p.r.put("job_p99_ms", p99*1e3, len(lat))
	if !p.traced() {
		return nil
	}

	p.r.put("serve.submit_us", median(submit)*1e6, len(submit))
	p.r.put("serve.hit_us", median(hit)*1e6, len(hit))
	p.r.put("serve.hits_per_s", float64(hitJobs)/hitTime.Seconds(), hitJobs)
	ratio := 0.0
	if lookups > 0 {
		ratio = float64(hits) / float64(lookups)
	}
	p.r.put("serve.hit_ratio.repeat", ratio, int(lookups))
	p.r.put("serve.busy_refusals", float64(busy), coldJobs+hitJobs)
	if n := stats1.Dispatches - stats0.Dispatches; n > 0 {
		p.r.put("daemon.serve_jobs_per_dispatch", float64(stats1.BatchedJobs-stats0.BatchedJobs)/float64(n), int(n))
	} else {
		p.r.put("daemon.serve_jobs_per_dispatch", 0, 0)
	}

	// The daemon's own result cache is shared across sessions: each
	// client serves one fresh window, then submits the other's, which its
	// session cache has never seen but the daemon has just computed.
	var fresh [serveClients][][]byte
	both(func(sc *serveClient) {
		fresh[sc.id] = sc.uniqueWindow(fill)
		sc.window(p, fresh[sc.id], nil, nil, false)
	})
	c0 := kernel.WorkGroupCompiles()
	h0 := d.ServeStats().CacheHits
	both(func(sc *serveClient) {
		sc.window(p, fresh[1-sc.id], nil, nil, true)
	})
	p.r.put("daemon.serve_cache_hits", float64(d.ServeStats().CacheHits-h0), serveClients*serveWindow)
	p.wgCompiles += int(kernel.WorkGroupCompiles() - c0)
	return nil
}
