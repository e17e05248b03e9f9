package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-th percentile (0 ≤ q ≤ 100) of xs by linear
// interpolation between the two closest ranks (the method numpy and
// Excel call "linear"/type 7). xs is sorted in place. An empty input
// yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return sortedPercentile(xs, q)
}

// sortedPercentile is percentile over an already sorted slice.
func sortedPercentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if q <= 0 {
		return xs[0]
	}
	if q >= 100 {
		return xs[len(xs)-1]
	}
	pos := q / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= len(xs) {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[hi]-xs[lo])
}

// median is the 50th percentile; it sorts xs in place.
func median(xs []float64) float64 { return percentile(xs, 50) }

// durationsMS converts durations to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// durationsUS converts durations to float microseconds.
func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// latencySummary holds the end-to-end latency percentiles of one run in
// milliseconds plus the number of samples they were taken over.
type latencySummary struct {
	p50, p90, p99 float64
	n             int
}

// summarizeLatency computes p50/p90/p99 over all samples of a run.
func summarizeLatency(ds []time.Duration) latencySummary {
	ms := durationsMS(ds)
	sort.Float64s(ms)
	return latencySummary{
		p50: sortedPercentile(ms, 50),
		p90: sortedPercentile(ms, 90),
		p99: sortedPercentile(ms, 99),
		n:   len(ms),
	}
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
