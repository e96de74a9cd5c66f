package sched

// Span is the index set Lo, Lo+Step, Lo+2·Step, … below Hi. Step 0 means
// the contiguous range [Lo, Hi).
type Span struct {
	Lo, Hi, Step int
}

// Len returns the number of indices in the span.
func (s Span) Len() int {
	if s.Hi <= s.Lo {
		return 0
	}
	if s.Step > 1 {
		return (s.Hi - s.Lo + s.Step - 1) / s.Step
	}
	return s.Hi - s.Lo
}

// Split cuts [0, n) into one contiguous span per weight, in order, each
// sized in proportion to its weight. Inner boundaries round up to a
// multiple of align and never fall below the previous one; the last span
// ends at n. With equal weights, span i starts at i*n/len(weights).
func Split(n int, weights []float64, align int) []Span {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	spans := make([]Span, len(weights))
	acc, lo := 0.0, 0
	for i, w := range weights {
		acc += w
		hi := max(alignUp(int(float64(n)*acc/total), align, n), lo)
		if i == len(weights)-1 {
			hi = n
		}
		spans[i] = Span{Lo: lo, Hi: hi}
		lo = hi
	}
	return spans
}

// Chunks cuts [0, n) into consecutive spans of size indices, the last
// one shorter when size does not divide n.
func Chunks(n, size int) []Span {
	size = max(size, 1)
	var spans []Span
	for lo := 0; lo < n; lo += size {
		spans = append(spans, Span{Lo: lo, Hi: min(lo+size, n)})
	}
	return spans
}

// Cyclic deals [0, n) out round-robin over k parts: part d holds d, d+k,
// d+2k, … Parts past n are empty.
func Cyclic(n, k int) []Span {
	spans := make([]Span, k)
	for d := range spans {
		spans[d] = Span{Lo: d, Hi: n, Step: k}
	}
	return spans
}
