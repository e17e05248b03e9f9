package main

import (
	"sort"
	"sync"
	"time"
)

// The end-to-end metrics are taken over the windows of a run: the
// median of the windows' throughput and CPU per item, and the lower
// quartile of each window's latency percentile. A burst of interference
// from outside the benchmark then moves one window's figures, not the
// run's; and since a stall of the host only ever adds latency, the
// calmer quarter of the windows is what a change to the program moves.

// slice is one window's work: items completed, the wall time and the
// process CPU it took.
type slice struct {
	items        float64
	elapsed, cpu time.Duration
}

// cpuMark is a reading of the process CPU clock at offset at.
type cpuMark struct {
	at, cpu time.Duration
}

// cpuMarker reads the process CPU clock every interval from start until
// stop is called.
type cpuMarker struct {
	start time.Time
	quit  chan struct{}
	wg    sync.WaitGroup
	marks []cpuMark
}

func startCPUMarker(start time.Time, every time.Duration) *cpuMarker {
	m := &cpuMarker{start: start, quit: make(chan struct{})}
	m.marks = append(m.marks, cpuMark{at: time.Since(start), cpu: cpuTime()})
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-m.quit:
				return
			case <-t.C:
				m.marks = append(m.marks, cpuMark{at: time.Since(start), cpu: cpuTime()})
			}
		}
	}()
	return m
}

// stop ends the marker with a final reading and returns all readings.
func (m *cpuMarker) stop() []cpuMark {
	close(m.quit)
	m.wg.Wait()
	return append(m.marks, cpuMark{at: time.Since(m.start), cpu: cpuTime()})
}

// completion is one finished request: when it finished and its latency,
// relative to the phase start.
type completion struct {
	at, lat time.Duration
}

// windowed cuts an open-loop phase at the CPU marks. A window counts the
// requests completed in it, and holds the latencies of the requests
// due in it, so a stall's backlog is charged where it arose.
func windowed(done []completion, marks []cpuMark) ([]slice, []latencySummary) {
	n := len(marks) - 1
	if n < 1 {
		return nil, nil
	}
	index := func(at time.Duration) int {
		i := sort.Search(len(marks), func(i int) bool { return marks[i].at > at }) - 1
		return min(max(i, 0), n-1)
	}
	items := make([]float64, n)
	lats := make([][]time.Duration, n)
	for _, c := range done {
		items[index(c.at)]++
		w := index(c.at - c.lat)
		lats[w] = append(lats[w], c.lat)
	}
	sums := make([]latencySummary, n)
	for i, l := range lats {
		sums[i] = summarizeLatency(l)
	}
	return cut(marks, items, sums)
}

// histWindows turns a closed-loop phase's per-window histograms — window
// i covering the marks i and i+1 — into windows.
func histWindows(hists []*hist, marks []cpuMark) ([]slice, []latencySummary) {
	n := len(marks) - 1
	if n < 1 {
		return nil, nil
	}
	items := make([]float64, n)
	sums := make([]latencySummary, n)
	for i := 0; i < n && i < len(hists); i++ {
		items[i] = float64(hists[i].n)
		sums[i] = hists[i].summary()
	}
	return cut(marks, items, sums)
}

// cut pairs per-window items and latencies with the CPU marks, dropping
// windows shorter than half the mark interval (the tail after the last
// full one) and windows without requests.
func cut(marks []cpuMark, items []float64, sums []latencySummary) ([]slice, []latencySummary) {
	full := marks[1].at - marks[0].at
	var slices []slice
	var lat []latencySummary
	for i := range items {
		el := marks[i+1].at - marks[i].at
		if el < full/2 || items[i] == 0 {
			continue
		}
		slices = append(slices, slice{items: items[i], elapsed: el, cpu: marks[i+1].cpu - marks[i].cpu})
		if sums[i].n > 0 {
			lat = append(lat, sums[i])
		}
	}
	return slices, lat
}

// windowFigures reduces windows to the run's figures: the median over
// windows of items per second and of CPU per item (µs), and the lower
// quartile over windows of each window's p50/p90/p99 latency (ms).
func windowFigures(slices []slice, lats []latencySummary) (itemsPerS, cpuUSPerItem float64, lat latencySummary) {
	var rates, cpus []float64
	for _, s := range slices {
		rates = append(rates, ratio(s.items, s.elapsed.Seconds()))
		cpus = append(cpus, ratio(float64(s.cpu)/float64(time.Microsecond), s.items))
	}
	var p50, p90, p99 []float64
	for _, s := range lats {
		p50, p90, p99 = append(p50, s.p50), append(p90, s.p90), append(p99, s.p99)
		lat.n += s.n
	}
	lat.p50, lat.p90, lat.p99 = percentile(p50, 25), percentile(p90, 25), percentile(p99, 25)
	return median(rates), median(cpus), lat
}
