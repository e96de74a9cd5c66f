package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// shrink sets every workload size to a smoke-test value. The benchmark
// proper never calls it: its sizes are fixed.
func shrink() {
	mandelW, mandelH, mandelIter = 64, 64, 32
	heatW, heatH, heatIters, heatLadderIters = 32, 32, 6, 6
	xferSmall, xferMid, xferBig = 4<<10, 32<<10, 256<<10
	xferSmallOps, xferMidOps, xferBigOps, xferCopyOps = 8, 4, 2, 1
	csEagerIters, csReplayIters, csRTTs = 4, 4, 8
	serveColdWindows, serveRepeatWindows = 2, 2
	leaseRound = 4
}

func smokeOptions(t *testing.T) options {
	return options{
		seed: 1, seconds: 0.05, trace: -1, manifest: "../BENCHMARK.json",
		setups: 1, loop: 5 * time.Millisecond,
		traceOut: filepath.Join(t.TempDir(), "trace.json"),
	}
}

// exactCounts are the per-layer metrics that count rather than time: two
// runs of the same code must agree on them to the last digit.
var exactCounts = []string{
	"vm.instr_per_item.mandelbrot", "vm.instr_per_item.heat",
	"client.frames_per_iter.eager", "client.frames_per_iter.replay",
	"kernel.wg_compiles", "kernel.fallback_kernels", "vm.coop_groups",
	"coherence.spans_after_partition", "sched.chunks",
	"daemon.cached_graphs", "daemon.serve_cache_hits", "daemon.sessions_retained",
	"serve.hit_ratio.repeat", "serve.busy_refusals",
}

func TestSmokeSuite(t *testing.T) {
	shrink()
	if err := checkManifest("../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
	var runs [2]*outcome
	var traces [2]string
	for i := range runs {
		o := smokeOptions(t)
		out, err := runSuite(o)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if out.failed != 0 || out.attempted == 0 {
			t.Fatalf("run %d: %d of %d operations failed: %s", i, out.failed, out.attempted, out.firstFail)
		}
		if miss := out.r.missing(perLayer()); len(miss) > 0 {
			t.Fatalf("run %d: metrics not emitted: %v", i, miss)
		}
		for _, w := range workloads {
			if miss := out.perWork[w.name].missing(endToEnd); len(miss) > 0 {
				t.Fatalf("run %d: %s did not emit %v", i, w.name, miss)
			}
			for _, d := range endToEnd {
				if v := out.perWork[w.name][d.Name].Value; !(v > 0) {
					t.Errorf("run %d: %s %s = %v, want > 0", i, w.name, d.Name, v)
				}
			}
		}
		runs[i], traces[i] = out, o.traceOut
	}
	for _, name := range exactCounts {
		a, b := runs[0].r[name].Value, runs[1].r[name].Value
		if a != b {
			t.Errorf("%s is a count but read %v then %v", name, a, b)
		}
	}
	if got := runs[0].r["serve.hit_ratio.repeat"].Value; got != 1 {
		t.Errorf("serve.hit_ratio.repeat = %v, want 1", got)
	}
	if got := runs[0].r["daemon.sessions_retained"].Value; got != 0 {
		t.Errorf("daemon.sessions_retained = %v, want 0", got)
	}

	// The traced pass must leave loadable Chrome-trace JSON whose spans
	// nest: every parent id names a recorded span.
	blob, err := os.ReadFile(traces[0])
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			Args map[string]int `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	ids := map[int]bool{0: true}
	layers := map[string]bool{}
	for _, e := range doc.TraceEvents {
		ids[e.Args["id"]] = true
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Name == "" || e.Dur < 0 {
			t.Fatalf("malformed trace event %+v", e)
		}
		if !ids[e.Args["parent"]] {
			t.Fatalf("span %q has unknown parent %d", e.Name, e.Args["parent"])
		}
		layers[e.Name] = true
	}
	for _, want := range []string{"client.EnqueueNDRangeKernel", "native.CreateContext", "darray.Iterate", "serve.window", "lease.session", "client.RequestFromManager"} {
		if !layers[want] {
			t.Errorf("trace has no %q span", want)
		}
	}
}

// TestContractLine runs the driver's command line for one workload and
// checks the shape of the result line.
func TestContractLine(t *testing.T) {
	shrink()
	o := smokeOptions(t)
	o.workload, o.trace, o.traceOut = "lease", 0, ""
	// Two set-ups before the measured phase, so that more are timed
	// during it.
	o.setups = 2
	out, defs, err := runContract(o)
	if err != nil {
		t.Fatal(err)
	}
	if n := out.r["setup_s"].Samples; n < 3 {
		t.Errorf("%d set-ups timed, want the two before the measured phase and at least one during it", n)
	}
	metrics, err := out.r.contractMetrics(defs)
	if err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Fatalf("contract line has %d metrics, want %d", len(metrics), len(endToEnd))
	}
	if realMain([]string{"-workload", "nosuch", "-trace", "0", "-manifest", "../BENCHMARK.json"}) == 0 {
		t.Error("unknown workload exited 0")
	}
	if realMain([]string{"-workload", "lease", "-trace", "0", "-manifest", "no-such-file.json"}) == 0 {
		t.Error("missing manifest exited 0")
	}
}

func TestStats(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := percentile(xs, 99); got != 100 {
		t.Errorf("p99 of 1..100 = %v, want 100", got)
	}
	if got := fast(xs); got != 1 {
		t.Errorf("fast of 100 samples = %v, want the minimum", got)
	}
	big := make([]float64, 2500)
	for i := range big {
		big[i] = float64(len(big) - i)
	}
	if got := fast(big); got != 3 {
		t.Errorf("fast of 2500 samples = %v, want the third smallest", got)
	}
}
