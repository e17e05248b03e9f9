package main

import (
	"math/bits"
	"time"
)

// hist is a fixed-size log-linear latency histogram: exact below 128ns,
// then 64 buckets per power of two, so a recorded value is known to
// within 1/64 (1.6%). The closed loop records into histograms instead
// of keeping every sample, so the benchmark's own heap stays small and
// constant and does not change how often the in-process server's
// garbage collector runs.
type hist struct {
	counts [histBuckets]uint32
	n      int
}

const histBuckets = 128 + 40*64

func histIndex(ns int64) int {
	if ns < 128 {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	shift := bits.Len64(uint64(ns)) - 7 // ns>>shift lies in [64, 128)
	i := 128 + (shift-1)*64 + int(ns>>shift) - 64
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// histValue is the midpoint of bucket i in nanoseconds.
func histValue(i int) float64 {
	if i < 128 {
		return float64(i)
	}
	shift := (i-128)/64 + 1
	lo := int64((i-128)%64+64) << shift
	return float64(lo) + float64(int64(1)<<shift)/2
}

func (h *hist) record(d time.Duration) {
	h.counts[histIndex(int64(d))]++
	h.n++
}

// percentile returns the q-th percentile in milliseconds: the midpoint
// of the bucket holding the sample of rank ⌈q/100·n⌉.
func (h *hist) percentile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int(q / 100 * float64(h.n))
	if float64(rank) < q/100*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	seen := 0
	for i, c := range h.counts {
		seen += int(c)
		if seen >= rank {
			return histValue(i) / float64(time.Millisecond)
		}
	}
	return histValue(histBuckets-1) / float64(time.Millisecond)
}

func (h *hist) summary() latencySummary {
	return latencySummary{p50: h.percentile(50), p90: h.percentile(90), p99: h.percentile(99), n: h.n}
}
