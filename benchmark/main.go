// Command benchmark is the repository's one benchmark: six named
// workloads over the real stack (ExecReal devices, real daemon, devmgr
// and client objects, TCP on 127.0.0.1), end-to-end metrics from an
// untraced pass, per-layer metrics and tracing overhead from a traced
// pass. See README.md in this directory for the metric tables.
//
// Driver contract (BENCHMARK.json):
//
//	go run ./benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints one JSON object as the last line of standard output. The whole
// suite, every metric by name:
//
//	go run ./benchmark -seed 1 -out results.json [-only <workload>] [-trace-out trace.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"
)

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	run  func(*pass) error
}

// workloads lists the six workloads; names are fixed (later issues cite
// them) and must match BENCHMARK.json.
var workloads = []workload{
	{"mandelbrot", "Fig. 4 app, 128x128x256 on native, 1 and 2 daemons: vm does >90% of the work, so transport changes must show no change and kernel/vm/sched changes must show", runMandelbrot},
	{"heat", "256x256x10 darray Jacobi on native, 1 and 2 daemons: load/store-bound kernel, and darray, coherence, peer forwards and graph replay block every iteration", runHeat},
	{"transfer", "Figs. 7-8 shape: blocking 4 KiB / 256 KiB / 8 MiB writes and reads plus 8 MiB peer-forwarded copies: gcf, protocol, staging and peer plane do all the work, vm none", runTransfer},
	{"cmdstream", "16-command OSEM-shaped iteration run eagerly and as a replayed command buffer, plus blocking launches: per-command cost dominates, payload and compute are negligible", runCmdstream},
	{"serve", "2 connections x 128-job windows of 64-int axpb jobs, cold then repeated: the only workload on the serve plane, the coalescing dispatcher and vm.RunBatch", runServe},
	{"lease", "2 clients looping manager lease -> context -> build -> launch -> read -> release: the Fig. 6 control path and a cold compile per session, untouched by the others after set-up", runLease},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are the command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int // contract mode: 0 or 1; -1 when not given
	out      string
	traceOut string
	manifest string
	// Overrides the smoke test sets; zero means the defaults below.
	setups int
	loop   time.Duration
}

// outcome is everything one invocation measured.
type outcome struct {
	r         readings
	attempted int
	failed    int
	firstFail string
	perWork   map[string]readings // suite mode: each workload's slot readings
}

// watchdog bounds one pass: a hung operation must fail the benchmark,
// not stall whatever pipeline runs it.
func watchdog(limit time.Duration, p *pass, fn func(*pass) error) error {
	done := make(chan error, 1)
	go func() { done <- fn(p) }()
	select {
	case err := <-done:
		return err
	case <-time.After(limit):
		// The goroutine is abandoned; main exits non-zero right after.
		p.op(false, "watchdog: %s still running after %s", p.workload, limit)
		return fmt.Errorf("watchdog: %s pass exceeded %s", p.workload, limit)
	}
}

// loopFor scales the micro-loop length with the run length: one second
// in a suite run of 12 s or more. A traced run for the driver has to fit
// fifty loops and all six workloads into about twice its --seconds, so
// its loops are shorter. Never less than a quarter of a second.
func loopFor(o options) time.Duration {
	if o.loop > 0 {
		return o.loop
	}
	s := o.seconds / 12
	if o.trace == 1 {
		s = o.seconds / 40
	}
	s = max(0.25, min(1, s))
	return time.Duration(s * float64(time.Second))
}

// runPass executes one pass of w.
func runPass(w workload, o options, budget float64, setups int, tr *tracer, loop time.Duration, out *outcome) (*pass, error) {
	p := &pass{
		workload: w.name, seed: o.seed,
		budget: time.Duration(budget * float64(time.Second)),
		setups: setups, loop: loop, tr: tr, r: readings{},
	}
	if tr != nil {
		p.w = &wires{}
	}
	limit := 3*p.budget + 60*time.Second
	err := watchdog(limit, p, w.run)
	p.mu.Lock()
	out.attempted += p.attempted
	out.failed += p.failed
	if out.firstFail == "" {
		out.firstFail = p.firstFail
	}
	p.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	p.publish()
	return p, nil
}

// setupsFor is how many fresh set-ups an untraced pass times.
func setupsFor(o options) int {
	if o.setups > 0 {
		return o.setups
	}
	return 5
}

// measureUntraced runs the pass the end-to-end metrics come from.
func measureUntraced(w workload, o options, out *outcome) error {
	p, err := runPass(w, o, o.seconds, setupsFor(o), nil, 0, out)
	if err != nil {
		return err
	}
	out.r.merge(p.r)
	return nil
}

// measureTraced runs w twice at the given budget, untraced then traced:
// layer readings come from the traced pass, the issue's end-to-end names
// from an untraced one, and the two primary times give the overhead.
func measureTraced(w workload, o options, budget float64, tr *tracer, loop time.Duration, out *outcome) (wgCompiles int, err error) {
	plain, err := runPass(w, o, budget, 1, nil, loop, out)
	if err != nil {
		return 0, err
	}
	traced, err := runPass(w, o, budget, 1, tr, loop, out)
	if err != nil {
		return 0, err
	}
	for _, d := range layerMetrics {
		if v, ok := traced.r[d.Name]; ok {
			out.r[d.Name] = v
		}
	}
	for _, d := range issueEndToEnd {
		// A suite run has already put the full-length untraced pass's
		// readings here; the shorter pass must not replace them.
		if v, ok := plain.r[d.Name]; ok {
			if _, have := out.r[d.Name]; !have {
				out.r[d.Name] = v
			}
		}
	}
	out.r.put("trace_overhead_pct."+w.name, 100*(traced.slots[0]-plain.slots[0])/plain.slots[0], 1)
	return traced.wgCompiles, nil
}

// deriveSelfTimes turns the rtt ladder into self times: the same
// blocking one-group launch at four boundaries, each rung's cost being
// the difference to the rung below. Rungs not measured (a -only suite
// run without cmdstream) leave their difference out.
func deriveSelfTimes(r readings) {
	for _, d := range []struct{ name, upper, lower string }{
		{"native.self_us", "rtt.native_us", "rtt.vm_us"},
		{"client_daemon.self_us", "rtt.local_us", "rtt.native_us"},
		{"gcf.self_us", "rtt.tcp_us", "rtt.local_us"},
	} {
		up, ok1 := r[d.upper]
		lo, ok2 := r[d.lower]
		if ok1 && ok2 {
			r.put(d.name, up.Value-lo.Value, min(up.Samples, lo.Samples))
		}
	}
}

// runTraced runs the layer micro-loops and then the traced measurement
// of every workload in ws at the budget budgetFor gives it, merging the
// readings into out.
func runTraced(ws []workload, o options, budgetFor func(workload) float64, out *outcome) error {
	loop := loopFor(o)
	fmt.Fprintf(os.Stderr, "benchmark: layer micro-loops, %s each\n", loop)
	layers, err := runLayers(loop)
	if err != nil {
		return err
	}
	out.r.merge(layers)
	tr := newTracer()
	compiles := 0
	for _, w := range ws {
		fmt.Fprintf(os.Stderr, "benchmark: %s, untraced then traced, %.1f s each\n", w.name, budgetFor(w))
		n, err := measureTraced(w, o, budgetFor(w), tr, loop, out)
		if err != nil {
			return err
		}
		compiles += n
	}
	out.r.put("kernel.wg_compiles", float64(compiles), len(ws))
	deriveSelfTimes(out.r)
	if o.traceOut != "" {
		return tr.write(o.traceOut)
	}
	return nil
}

// runContract serves the driver: one workload, one JSON line.
func runContract(o options) (*outcome, []metricDef, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	out := &outcome{r: readings{}}
	if o.trace == 0 {
		return out, endToEnd, measureUntraced(w, o, out)
	}
	// Traced run: every workload — the named one at a quarter of the run
	// length, the others at their minimum repetitions — so that each layer
	// metric is measured in every traced run.
	err := runTraced(workloads, o, func(other workload) float64 {
		if other.name == w.name {
			return o.seconds / 4
		}
		return 0
	}, out)
	return out, perLayer(), err
}

// runSuite measures every workload (or the one named by -only) untraced
// at full length, then traced at a third, and prints every metric.
func runSuite(o options) (*outcome, error) {
	out := &outcome{r: readings{}, perWork: map[string]readings{}}
	selected := workloads
	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{w}
	}
	for _, w := range selected {
		fmt.Fprintf(os.Stderr, "benchmark: %s, untraced, %.0f s\n", w.name, o.seconds)
		p, err := runPass(w, o, o.seconds, setupsFor(o), nil, 0, out)
		if err != nil {
			return out, err
		}
		slots := readings{}
		for _, d := range endToEnd {
			slots[d.Name] = p.r[d.Name]
		}
		out.perWork[w.name] = slots
		for _, d := range issueEndToEnd {
			if v, ok := p.r[d.Name]; ok {
				out.r[d.Name] = v
			}
		}
	}
	return out, runTraced(selected, o, func(workload) float64 { return o.seconds / 3 }, out)
}

// report is the JSON written by -out: the same content as the table.
type report struct {
	Host      hostInfo            `json:"host"`
	Seed      int64               `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Slots     map[string]readings `json:"end_to_end_by_workload"`
	Metrics   readings            `json:"metrics"`
}

func printTable(o options, out *outcome) {
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d cpu=%q llc=%s go=%s rev=%s seed=%d transport=%s\n",
		host.NProc, host.GOMAXPROCS, host.CPU, host.LLC, host.GoVersion, host.GitRev, o.seed, transport)
	fmt.Printf("transfer sizes: %d B, %d B, %d B (last-level cache %s: MB/s is loopback throughput, not memory bandwidth)\n",
		xferSmall, xferMid, xferBig, host.LLC)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tvalue\tunit\tbetter\tsamples\tmeaning")
	names := make([]string, 0, len(out.perWork))
	for _, w := range workloads {
		if _, ok := out.perWork[w.name]; ok {
			names = append(names, w.name)
		}
	}
	for _, wn := range names {
		for i, d := range endToEnd {
			v := out.perWork[wn][d.Name]
			meaning := "fastest of the fresh set-ups"
			if i > 0 {
				meaning = slotMeaning[wn][i-1]
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%s\t%d\t%s\n", wn, d.Name, v.Value, v.Unit, v.Better, v.Samples, meaning)
		}
	}
	for _, d := range perLayer() {
		if v, ok := out.r[d.Name]; ok {
			fmt.Fprintf(tw, "-\t%s\t%.6g\t%s\t%s\t%d\t%s\n", d.Name, v.Value, v.Unit, v.Better, v.Samples, v.Note)
		}
	}
	_ = tw.Flush() // stdout
	fmt.Printf("ops attempted=%d failed=%d\n", out.attempted, out.failed)
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload (driver contract)")
	fs.StringVar(&o.workload, "only", "", "alias of -workload for suite runs")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 16, "measured seconds per workload")
	fs.IntVar(&o.trace, "trace", -1, "driver contract: 0 prints end-to-end metrics, 1 per-layer metrics")
	fs.StringVar(&o.out, "out", "", "suite runs: write every metric as JSON to this file")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans as Chrome-trace JSON to this file")
	fs.StringVar(&o.manifest, "manifest", "BENCHMARK.json", "benchmark manifest to check names against")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds <= 0 || (o.trace != -1 && o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if err := checkManifest(o.manifest); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}

	steal := startStealMeter()
	if o.trace >= 0 {
		// Driver contract.
		if o.workload == "" {
			fmt.Fprintln(os.Stderr, "benchmark: -trace needs -workload")
			return 2
		}
		out, defs, err := runContract(o)
		if err == nil && out.failed > 0 {
			err = fmt.Errorf("%d of %d operations failed; first: %s", out.failed, out.attempted, out.firstFail)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		metrics, err := out.r.contractMetrics(defs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Printf("host: nproc=%d GOMAXPROCS=%d transport=%s seed=%d workload=%s stolen=%.1f%%\n",
			host.NProc, host.GOMAXPROCS, transport, o.seed, o.workload, steal.percent())
		line, err := json.Marshal(map[string]any{
			"correct": true, "attempted": out.attempted, "failed": 0, "metrics": metrics,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Println(string(line))
		return 0
	}

	out, err := runSuite(o)
	if out != nil {
		printTable(o, out)
		fmt.Printf("cpu time stolen by the hypervisor during the run: %.1f%%\n", steal.percent())
		if o.out != "" {
			blob, merr := json.MarshalIndent(report{
				Host: host, Seed: o.seed, Seconds: o.seconds,
				Attempted: out.attempted, Failed: out.failed,
				Slots: out.perWork, Metrics: out.r,
			}, "", "  ")
			if merr == nil {
				merr = os.WriteFile(o.out, append(blob, '\n'), 0o644)
			}
			if merr != nil && err == nil {
				err = merr
			}
		}
	}
	if err == nil && out.failed > 0 {
		err = fmt.Errorf("%d of %d operations failed; first: %s", out.failed, out.attempted, out.firstFail)
	}
	if err == nil && o.workload == "" {
		if miss := out.r.missing(perLayer()); len(miss) > 0 {
			err = fmt.Errorf("metrics not emitted: %s", strings.Join(miss, ", "))
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}
