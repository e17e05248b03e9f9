package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileInterpolates(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {50, 50.5}, {90, 90.1}, {99, 99.01}, {100, 100},
	} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("p%v = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("empty p99 = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single-sample p99 = %v, want 7", got)
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("even-count median = %v, want 2.5", got)
	}
}

func TestSummarizeLatencyInMilliseconds(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 1000; i++ {
		ds = append(ds, time.Duration(i)*time.Microsecond)
	}
	s := summarizeLatency(ds)
	if s.n != 1000 || !near(s.p50, 0.5005) || !near(s.p90, 0.9001) || !near(s.p99, 0.99001) {
		t.Errorf("summary = %+v, want n=1000 p50=0.5005 p90=0.9001 p99=0.99001", s)
	}
}

func TestRatioOfZeroBase(t *testing.T) {
	if ratio(3, 0) != 0 || ratio(3, 2) != 1.5 {
		t.Error("ratio must be 0 on a zero base and num/den otherwise")
	}
}

func TestHistPercentilesWithinBucketPrecision(t *testing.T) {
	var h hist
	var raw []float64
	for i := 1; i <= 10000; i++ {
		d := time.Duration(i*i) * time.Nanosecond // spans 1ns to 100ms
		h.record(d)
		raw = append(raw, float64(d)/float64(time.Millisecond))
	}
	for _, q := range []float64{50, 90, 99} {
		exact := percentile(raw, q)
		if got := h.percentile(q); math.Abs(got-exact) > exact/64 {
			t.Errorf("p%v = %v, exact %v: beyond the 1/64 bucket precision", q, got, exact)
		}
	}
	if s := h.summary(); s.n != 10000 {
		t.Errorf("summary counts %d samples, want 10000", s.n)
	}
	var empty hist
	if empty.percentile(99) != 0 {
		t.Error("an empty histogram must report 0")
	}
}

func TestHistBucketsAreMonotonic(t *testing.T) {
	prev := -1
	for ns := int64(0); ns < 1<<30; ns = ns*9/8 + 1 {
		i := histIndex(ns)
		if i < prev {
			t.Fatalf("index of %dns is %d, below the previous %d", ns, i, prev)
		}
		if v := histValue(i); math.Abs(v-float64(ns)) > float64(ns)/64+1 {
			t.Fatalf("bucket %d midpoint %v is more than 1/64 away from %dns", i, v, ns)
		}
		prev = i
	}
}

func TestWindowFiguresAndCut(t *testing.T) {
	marks := []cpuMark{
		{0, 0},
		{time.Second, 200 * time.Millisecond},
		{2 * time.Second, 500 * time.Millisecond},
		{3 * time.Second, 700 * time.Millisecond},
		{3*time.Second + 100*time.Millisecond, 710 * time.Millisecond}, // short tail, dropped
	}
	var done []completion
	for i := 0; i < 300; i++ {
		at := time.Duration(i) * 10 * time.Millisecond // 100 per window
		done = append(done, completion{at: at + time.Millisecond, lat: time.Millisecond})
	}
	slices, lats := windowed(done, marks)
	if len(slices) != 3 || len(lats) != 3 {
		t.Fatalf("got %d windows and %d latency windows, want 3 and 3", len(slices), len(lats))
	}
	ips, cpu, lat := windowFigures(slices, lats)
	if !near(ips, 100) || !near(cpu, 2000) || !near(lat.p50, 1) || lat.n != 300 {
		t.Errorf("medians: %v items/s, %v µs/item, %+v; want 100, 2000 and p50 1ms over 300", ips, cpu, lat)
	}
}
