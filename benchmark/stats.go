package main

import (
	"sort"
	"time"
)

// samples collects per-operation timings of one measured quantity.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, d.Seconds()) }

// median returns the middle value (mean of the two middle values for an
// even count), 0 for an empty set.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile (nearest rank).
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p / 100 * float64(n))
	if i >= n {
		i = n - 1
	}
	return s[i]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// timeLoop calls fn until dur has elapsed (at least once) and returns the
// mean seconds per call. fn may run a batch; n is the number of
// operations each call performs.
func timeLoop(dur time.Duration, n int, fn func() error) (perOp float64, ops int, err error) {
	start := time.Now()
	for {
		if err := fn(); err != nil {
			return 0, ops, err
		}
		ops += n
		if el := time.Since(start); el >= dur {
			return el.Seconds() / float64(ops), ops, nil
		}
	}
}
