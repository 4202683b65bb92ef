package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly above a tail
// percentile before it is reported: with fewer, the "p99.9" is just the
// largest sample or two and jumps between runs.
const minBeyond = 10

// recorder holds one latency sample (ns) per operation in a buffer
// sized before the timed window, so recording allocates nothing and the
// benchmark never inflates the program's own allocation counts.
type recorder struct{ ns []int64 }

func newRecorder(capacity int) recorder { return recorder{ns: make([]int64, 0, capacity)} }

// add records one sample. Past the preallocated capacity it still
// records (append grows the buffer) rather than dropping samples.
func (r *recorder) add(ns int64) { r.ns = append(r.ns, ns) }

// sorted sorts the samples in place and returns them.
func (r *recorder) sorted() []int64 {
	sort.Slice(r.ns, func(i, j int) bool { return r.ns[i] < r.ns[j] })
	return r.ns
}

var errTooFewSamples = errors.New("too few samples")

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted:
// the smallest sample with at least q*n samples at or below it. For
// q > 0.5 it refuses (errTooFewSamples) unless at least minBeyond
// samples lie above the rank, so a p99.9 needs 10,000 samples.
func percentile(sorted []int64, q float64) (int64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, errTooFewSamples
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	if q > 0.5 && n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples: %w (need %d beyond it)", 100*q, n, errTooFewSamples, minBeyond)
	}
	return sorted[rank-1], nil
}

// mean returns the arithmetic mean of xs, 0 when empty.
func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

// medianFloat returns the median of xs (sorting a copy).
func medianFloat(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}
