package main

import (
	"fmt"
	"sort"
	"time"
)

// metricDef names one metric with its unit and the direction in which it
// improves. BENCHMARK.json carries the same tables; checkManifest fails
// the run at start-up when the two disagree.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// Contract end-to-end metrics. The driver's contract wants every
// end-to-end metric from every workload, and the six workloads measure
// different things, so the gated list is a set of typed slots: the
// fastest time per unit of user-visible work, all in µs, all
// lower-is-better. slotMeaning says what each slot holds per workload; a
// workload with fewer gated times than slots repeats its primary (t1) in
// the spare ones, so a spare slot adds no new series that could fail on
// noise. The same samples are also reduced the way the issue defines its
// metrics (solve_s, write_MBps, ...) and printed under those names in the
// per-layer list and the full report.
var endToEnd = []metricDef{
	{"setup_s", "s", lower},
	{"t1_us", "us", lower},
	{"t2_us", "us", lower},
	{"t3_us", "us", lower},
}

const numSlots = 3

// slotMeaning documents the slots per workload (printed with the report
// and written into README.md's table).
var slotMeaning = map[string][numSlots]string{
	"mandelbrot": {"2-daemon solve (solve_s)", "1-daemon solve", "native solve"},
	"heat":       {"2-daemon solve (solve_s)", "1-daemon solve", "native solve"},
	"transfer":   {"256 KiB blocking write", "4 KiB blocking write (small_write_us)", "4 KiB blocking read (small_read_us)"},
	"cmdstream":  {"one eager command (1/cmds_per_s)", "one replayed 16-command iteration (1/replay_iters_per_s)", "blocking one-group launch + wait (rtt_us)"},
	"serve":      {"one cold job (1/jobs_per_s)", "= t1", "= t1"},
	"lease":      {"one lease session (session_ms)", "= t1", "= t1"},
}

// issueEndToEnd are the issue's end-to-end metrics (set-up time aside)
// under their own names and units; the three that mandelbrot and heat
// both report carry the workload as a suffix, because the list is flat.
// They are derived from the untraced pass; in BENCHMARK.json they sit in
// the per-layer list (printed, not gated) because the contract gates only
// metrics that every workload reports.
var issueEndToEnd = []metricDef{
	{"solve_s.mandelbrot", "s", lower},
	{"dcl_over_native_x.mandelbrot", "x", lower},
	{"scaling_2d_x.mandelbrot", "x", higher},
	{"solve_s.heat", "s", lower},
	{"dcl_over_native_x.heat", "x", lower},
	{"scaling_2d_x.heat", "x", higher},
	{"write_MBps", "MB/s", higher},
	{"read_MBps", "MB/s", higher},
	{"copy_MBps", "MB/s", higher},
	{"small_write_us", "us", lower},
	{"small_read_us", "us", lower},
	{"cmds_per_s", "1/s", higher},
	{"replay_iters_per_s", "1/s", higher},
	{"rtt_us", "us", lower},
	{"jobs_per_s", "1/s", higher},
	{"job_p99_ms", "ms", lower},
	{"session_ms", "ms", lower},
}

// layerMetrics are the single-layer metrics, named <module>.<metric>.
// Timed ones come from micro-loops or from the traced pass of the
// workload that exercises the layer; counts are exact.
var layerMetrics = []metricDef{
	// kernel
	{"kernel.compile_us", "us", lower},
	{"kernel.lower_us", "us", lower},
	{"kernel.wg_compiles", "count", lower},
	{"kernel.fallback_kernels", "count", lower},
	// vm
	{"vm.instr_per_item.mandelbrot", "count", lower},
	{"vm.instr_per_item.heat", "count", lower},
	{"vm.minstr_per_s.mandelbrot", "M/s", higher},
	{"vm.minstr_per_s.heat", "M/s", higher},
	{"vm.launch_us", "us", lower},
	{"vm.barrier_group_us", "us", lower},
	{"vm.batch_jobs_per_s", "1/s", higher},
	{"vm.coop_groups", "%", lower},
	{"vm.dispatch_allocs", "count", lower},
	// native
	{"native.launch_us", "us", lower},
	{"native.marker_us", "us", lower},
	{"native.write_MBps", "MB/s", higher},
	{"native.read_MBps", "MB/s", higher},
	// protocol
	{"protocol.envelope_ns", "ns", lower},
	{"protocol.execgraph_ns", "ns", lower},
	{"protocol.servesubmit_ns", "ns", lower},
	{"protocol.delta_MBps", "MB/s", higher},
	{"protocol.delta_ratio", "x", lower},
	// gcf
	{"gcf.rtt_us", "us", lower},
	{"gcf.local_rtt_us", "us", lower},
	{"gcf.oneway_frames_per_s", "1/s", higher},
	{"gcf.stream_MBps", "MB/s", higher},
	{"gcf.payload_allocs", "count", lower},
	{"gcf.conn_writes_per_frame", "count", lower},
	// client
	{"client.enqueue_kernel_us", "us", lower},
	{"client.enqueue_allocs", "count", lower},
	{"client.finish_us", "us", lower},
	{"client.frames_per_iter.eager", "count", lower},
	{"client.frames_per_iter.replay", "count", lower},
	{"client.wire_bytes_per_iter.eager", "B", lower},
	{"client.wire_bytes_per_iter.replay", "B", lower},
	{"client.connect_ms", "ms", lower},
	{"client.create_context_ms", "ms", lower},
	{"client.build_ms", "ms", lower},
	{"client.finalize_ms", "ms", lower},
	// rtt ladder
	{"rtt.vm_us", "us", lower},
	{"rtt.native_us", "us", lower},
	{"rtt.local_us", "us", lower},
	{"rtt.tcp_us", "us", lower},
	{"native.self_us", "us", lower},
	{"client_daemon.self_us", "us", lower},
	{"gcf.self_us", "us", lower},
	// coherence
	{"coherence.claim_ns", "ns", lower},
	{"coherence.validate_ns", "ns", lower},
	{"coherence.readplan_ns", "ns", lower},
	{"coherence.spans_after_partition", "count", lower},
	// daemon
	{"daemon.peer_bytes_per_iter", "B", lower},
	{"daemon.peer_over_surface_x", "x", lower},
	{"daemon.forward_256k_MBps", "MB/s", higher},
	{"daemon.cached_graphs", "count", lower},
	{"daemon.serve_jobs_per_dispatch", "count", higher},
	{"daemon.serve_cache_hits", "count", higher},
	{"daemon.sessions_retained", "count", lower},
	// sched
	{"sched.chunks", "count", lower},
	{"sched.imbalance_pct", "%", lower},
	{"sched.dynamic_solve_s", "s", lower},
	{"sched.rendercl_solve_s", "s", lower},
	// darray
	{"darray.infer_halo_us", "us", lower},
	{"darray.record_ms", "ms", lower},
	{"darray.scatter_ms", "ms", lower},
	{"darray.gather_ms", "ms", lower},
	{"darray.iter_ms", "ms", lower},
	{"darray.client_bytes_per_iter", "B", lower},
	{"darray.dotrows_us", "us", lower},
	// serve
	{"serve.queue_ns", "ns", lower},
	{"serve.cache_get_ns", "ns", lower},
	{"serve.cache_put_ns", "ns", lower},
	{"serve.hash_ns", "ns", lower},
	{"serve.submit_us", "us", lower},
	{"serve.hit_us", "us", lower},
	{"serve.hits_per_s", "1/s", higher},
	{"serve.hit_ratio.repeat", "x", higher},
	{"serve.busy_refusals", "count", lower},
	// devmgr and the lease session split
	{"devmgr.place_us", "us", lower},
	{"devmgr.assign_us", "us", lower},
	{"lease.request_ms", "ms", lower},
	{"lease.connect_ms", "ms", lower},
	{"lease.build_ms", "ms", lower},
	{"lease.run_ms", "ms", lower},
	{"lease.release_ms", "ms", lower},
	// benchmark
	{"trace_overhead_pct.mandelbrot", "%", lower},
	{"trace_overhead_pct.heat", "%", lower},
	{"trace_overhead_pct.transfer", "%", lower},
	{"trace_overhead_pct.cmdstream", "%", lower},
	{"trace_overhead_pct.serve", "%", lower},
	{"trace_overhead_pct.lease", "%", lower},
}

// perLayer is the contract's per_layer list: the issue's end-to-end
// names followed by the layer metrics.
func perLayer() []metricDef {
	return append(append([]metricDef(nil), issueEndToEnd...), layerMetrics...)
}

// reading is one measured value.
type reading struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Samples int     `json:"samples"`
	Note    string  `json:"note,omitempty"`
}

// readings maps metric names to values. put refuses names that are not
// in the tables above, so a typo cannot add a metric silently.
type readings map[string]reading

var defsByName = func() map[string]metricDef {
	m := map[string]metricDef{}
	for _, list := range [][]metricDef{endToEnd, issueEndToEnd, layerMetrics} {
		for _, d := range list {
			if _, dup := m[d.Name]; dup {
				panic("benchmark: metric " + d.Name + " defined twice")
			}
			m[d.Name] = d
		}
	}
	return m
}()

func (r readings) put(name string, value float64, samples int) {
	d, ok := defsByName[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the metric tables")
	}
	r[name] = reading{Value: value, Unit: d.Unit, Better: d.Better, Samples: samples}
}

func (r readings) note(name, note string) {
	if v, ok := r[name]; ok {
		v.Note = note
		r[name] = v
	}
}

// merge copies src into r.
func (r readings) merge(src readings) {
	for k, v := range src {
		r[k] = v
	}
}

// missing lists the names of defs that r lacks.
func (r readings) missing(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		if _, ok := r[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	sort.Strings(out)
	return out
}

// contractMetrics renders the subset named by defs in the shape the
// driver reads: {"name": {"value": v, "unit": u}}.
func (r readings) contractMetrics(defs []metricDef) (map[string]map[string]any, error) {
	if miss := r.missing(defs); len(miss) > 0 {
		return nil, fmt.Errorf("metrics not measured: %v", miss)
	}
	out := map[string]map[string]any{}
	for _, d := range defs {
		out[d.Name] = map[string]any{"value": r[d.Name].Value, "unit": d.Unit}
	}
	return out, nil
}

// timed runs fn for loop (n operations per call) and records conv(seconds
// per operation) under name.
func (r readings) timed(name string, loop time.Duration, n int, conv func(float64) float64, fn func() error) error {
	per, ops, err := timeLoop(loop, n, fn)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r.put(name, conv(per), ops)
	return nil
}

// Conversions from seconds per operation to a metric's unit.
func usec(per float64) float64      { return per * 1e6 }
func nsec(per float64) float64      { return per * 1e9 }
func perSecond(per float64) float64 { return 1 / per }

// mbps converts seconds per operation of the given size to MB/s.
func mbps(bytes int) func(float64) float64 {
	return func(per float64) float64 { return float64(bytes) / per / 1e6 }
}
