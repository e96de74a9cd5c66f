// Package exp is the benchmark harness reproducing the paper's evaluation
// (Section V): one runner per figure, each building a simulated cluster
// that matches the paper's testbed, running the same application study and
// printing the figure's data series.
//
// Timing methodology: devices and links are modeled components whose
// delays are compressed by a time-scale factor; runners measure wall-clock
// time around the same API calls the paper instruments and divide by the
// scale to report modeled seconds. Kernel cost profiles are prewarmed
// (device.PrewarmCost) so that timed runs never pay VM sampling cost.
// Absolute device throughputs are calibrated against the paper's anchor
// measurements; the reported comparisons — who wins, overhead
// decomposition, scaling, crossovers — emerge from the behaviour of the
// actual middleware stack (client driver, wire protocol, daemons).
package exp

import (
	"fmt"
	"strings"
	"time"

	"dopencl/internal/client"
	"dopencl/internal/device"
	"dopencl/internal/simnet"
	"dopencl/internal/testbed"
)

// Options tunes experiment size and time compression.
type Options struct {
	// TimeScale compresses modeled durations (default 0.02: one modeled
	// minute ≈ 1.2 real seconds).
	TimeScale float64
	// Quick shrinks workloads further for use inside `go test -bench`
	// (sweeps skip intermediate points, transfer sizes are capped).
	Quick bool
	// Logf receives progress lines; nil silences them.
	Logf func(format string, args ...any)
}

func (o Options) scale() float64 {
	return o.scaleOr(0.02)
}

// scaleOr returns the configured time scale or the figure's default.
func (o Options) scaleOr(def float64) float64 {
	if o.TimeScale <= 0 {
		return def
	}
	return o.TimeScale
}

// scaleLink divides a link's bandwidth (and slow-start window) by d: used
// together with 1/d-sized payloads to preserve modeled transfer times
// while cutting real memory traffic ("data scaling").
func scaleLink(cfg simnet.LinkConfig, d float64) simnet.LinkConfig {
	if cfg.BandwidthBps > 0 {
		cfg.BandwidthBps /= d
	}
	cfg.SlowStartBytes = int(float64(cfg.SlowStartBytes) / d)
	return cfg
}

// scaleBus divides a device bus's bandwidths by d (data scaling).
func scaleBus(b device.BusConfig, d float64) device.BusConfig {
	if b.WriteBps > 0 {
		b.WriteBps /= d
	}
	if b.ReadBps > 0 {
		b.ReadBps /= d
	}
	return b
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// seconds converts measured wall time to modeled seconds.
func (o Options) seconds(d time.Duration) float64 {
	return d.Seconds() / o.scale()
}

// newClient creates a dOpenCL platform dialing into a figure's cluster.
func newClient(tb *testbed.Testbed, name string) *client.Platform {
	return client.NewPlatform(client.Options{Dialer: tb.Dialer(""), ClientName: name})
}

// Table renders rows of labelled values as an aligned text table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// secs formats a duration in seconds with 3 decimals.
func secs(v float64) string { return fmt.Sprintf("%.3f", v) }
