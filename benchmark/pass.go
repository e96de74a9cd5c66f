package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"
)

// pass is one measured execution of one workload: untraced (end-to-end
// metrics) or traced (per-layer metrics and tracing overhead).
type pass struct {
	workload string
	seed     int64
	budget   time.Duration // length of the measured phase
	setups   int           // fresh set-ups to time before the measured phase (>=1)
	loop     time.Duration // length of each timed micro-loop
	tr       *tracer       // nil: untraced
	w        *wires        // nil: untraced

	r      readings
	setupS samples
	probe  func() error      // times one more set-up; nil in a traced pass
	probed time.Time         // when probe last ran
	slots  [numSlots]float64 // seconds
	slotN  [numSlots]int     // samples behind each slot

	mu        sync.Mutex
	attempted int
	failed    int
	firstFail string

	// wgCompiles counts work-group compilations during one steady-state
	// unit of work (traced pass only); the run sums it over workloads.
	wgCompiles int

	start time.Time
}

func (p *pass) traced() bool { return p.tr != nil }

// rng returns the generator of this pass's inputs: the same seed gives
// the same inputs.
func (p *pass) rng() *rand.Rand { return rand.New(rand.NewSource(p.seed)) }

// closer is the state a set-up builds.
type closer interface{ close() }

// Set-ups are timed before the measured phase and, in an untraced pass,
// all through it: one more every probeEvery, between rounds. The
// reference host has slow stretches of seconds to minutes (README, Noise):
// in one set of ten runs heat's set-up time, then timed in the first
// second of a run only, spread 32 % while its solves, sampled over the
// whole run, spread 8-10 %.
const (
	probeEvery = 100 * time.Millisecond
	mostSetups = 200
)

// setUp times fresh set-ups. mk builds an independent instance of
// everything the measured phase needs, up to and including its first cold
// operation. The configured number of instances is built here; the last
// one is returned for the measured phase to run on, the others are closed
// at once, as are the ones more builds later.
func setUp[T closer](p *pass, mk func() (T, error)) (T, error) {
	timed := func() (T, error) {
		t0 := time.Now()
		st, err := mk()
		if err != nil {
			var none T
			return none, fmt.Errorf("set-up %d: %w", len(p.setupS)+1, err)
		}
		p.setupS.add(time.Since(t0))
		return st, nil
	}
	if p.setups > 1 {
		p.probe = func() error {
			st, err := timed()
			if err == nil {
				st.close()
			}
			return err
		}
	}
	for i := 1; i < p.setups; i++ {
		if err := p.probe(); err != nil {
			var none T
			return none, err
		}
	}
	return timed()
}

// begin starts the measured phase.
func (p *pass) begin() { p.start = time.Now() }

// more reports whether the measured phase should run another round:
// always until minRounds are done, then until the budget is spent. The
// one goroutine that drives the rounds calls it between them, which is
// where the set-ups of the measured phase are timed.
func (p *pass) more(done, minRounds int) bool {
	if p.probe != nil && len(p.setupS) < mostSetups && time.Since(p.probed) >= probeEvery {
		p.check(p.probe(), "set-up during the measured phase")
		p.probed = time.Now()
	}
	return done < minRounds || time.Since(p.start) < p.budget
}

// op counts one attempted operation; ok=false counts it as failed and
// keeps the first reason.
func (p *pass) op(ok bool, why string, args ...any) {
	p.mu.Lock()
	p.attempted++
	if !ok {
		p.failed++
		if p.firstFail == "" {
			p.firstFail = fmt.Sprintf(why, args...)
		}
	}
	p.mu.Unlock()
}

// check is op for a call that returns an error.
func (p *pass) check(err error, what string) bool {
	p.op(err == nil, "%s: %v", what, err)
	return err == nil
}

// fast is the estimator of the gated times: the fastest sample of the
// run, after dropping the fastest one in a thousand. The shared 2-vCPU
// reference host slows down by 25–45 % for seconds to tens of minutes at
// a time (neighbours, invisible to the guest); that only ever adds time,
// and the fast end of the samples is the one statistic it barely moves:
// between a quiet and a slow stretch the minimum of cmdstream's eager
// iterations moved 5 % where their 5th percentile moved 28 % and their
// median 48 %. Dropping one in a thousand keeps a freak sample out: a few
// of cmdstream's five thousand replays per run finish 10–20 % below all
// the others, in some runs and not in others. With fewer than a thousand
// samples nothing is dropped. Medians, throughputs and tails of the same
// samples are what the issue-named metrics report.
func fast(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/1000]
}

// slot sets gated time i to the fastest of xs, divided by per (the
// units of work one sample covers).
func (p *pass) slot(i int, xs []float64, per float64) {
	p.slots[i], p.slotN[i] = fast(xs)/per, len(xs)
}

// publish copies t1 into the slots a workload leaves unset and records
// the slots and the set-up time as readings.
func (p *pass) publish() {
	for i := range p.slots {
		if p.slots[i] == 0 {
			p.slots[i], p.slotN[i] = p.slots[0], p.slotN[0]
		}
		p.r.put(fmt.Sprintf("t%d_us", i+1), p.slots[i]*1e6, p.slotN[i])
	}
	p.r.put("setup_s", fast(p.setupS), len(p.setupS))
}
