package main

import (
	"fmt"
	"time"

	"trustseq/internal/core"
	"trustseq/internal/gen"
	"trustseq/internal/sim"
)

const (
	// popPrincipals is the population size: consumers, each with its own
	// reselling broker, over a shared producer tier (gen.Population).
	popPrincipals = 10_000
	// popDeadline is the escrow expiry, far beyond the honest run's span.
	popDeadline = 20_000
)

func setupPopulation() (*core.Plan, error) {
	plan, err := core.Synthesize(gen.Population(popPrincipals, 0, 10))
	if err != nil {
		return nil, err
	}
	if !plan.Feasible {
		return nil, fmt.Errorf("population plan is infeasible")
	}
	return plan, nil
}

func runSimPopulation(o options) (*result, error) {
	plan, setupS, setups, err := setupMedian(o.setups, setupPopulation, func(*core.Plan) {})
	if err != nil {
		return nil, err
	}
	res := &result{
		shape:  fmt.Sprintf("serial sim.Run calls, %d principals, seed %d", popPrincipals, o.seed),
		setupS: setupS, setups: setups,
	}
	untraced, traced := phaseLengths(o)
	res.main = measurePopulation(plan, o, untraced, nil)
	if o.trace {
		res.traced = measurePopulation(plan, o, traced, newRecorder(time.Now(), 0))
	}
	return res, nil
}

// measurePopulation runs the population simulation until d has passed
// (at least twice). Items are principals; the times, CPU and runtime
// counters (accumulated in rt1 over a zero rt0) are those of the
// sim.Run calls alone, without the checks between them.
func measurePopulation(plan *core.Plan, o options, d time.Duration, rec *recorder) *phase {
	ph := &phase{samples: map[string]int{}}
	var messages int
	var elapsed time.Duration
	var runS []float64
	// The first run's size, which every later run of the seed repeats.
	// Only the counts are kept: holding a whole result would grow the
	// heap the later runs' garbage collections pace against.
	var firstMessages int
	var firstDuration sim.Time
	first := true
	start := time.Now()
	for n := int64(0); n < 2 || time.Since(start) < d; n++ {
		ph.attempted++
		root := rec.begin("request", -1, n)
		r0, c0, t0 := readRuntime(), cpuTime(), time.Now()
		h := rec.begin("sim.run", root, n)
		out, err := sim.Run(plan, sim.Options{Seed: o.seed, Deadline: popDeadline})
		rec.end(h)
		dt := time.Since(t0)
		cpu := cpuTime() - c0
		ph.cpu += cpu
		ph.rt1 = ph.rt1.plus(r0, readRuntime())
		rec.end(root)
		elapsed += dt
		ph.lat = append(ph.lat, dt)
		ph.slices = append(ph.slices, slice{items: popPrincipals, elapsed: dt, cpu: cpu})
		runS = append(runS, dt.Seconds())
		if err != nil {
			ph.fail("run %d: %v", n, err)
			continue
		}
		ph.items += popPrincipals
		messages += out.Messages
		if err := checkSimRun(out); err != nil {
			ph.fail("run %d: %v", n, err)
		} else if !first && (out.Messages != firstMessages || out.Duration != firstDuration) {
			ph.fail("run %d: %d messages over %d ticks, the seed's first run had %d over %d",
				n, out.Messages, out.Duration, firstMessages, firstDuration)
		}
		if first {
			first, firstMessages, firstDuration = false, out.Messages, out.Duration
		}
	}
	// One latency window: a run's time is the latency, and a run holds
	// too few runs to take percentiles per window.
	ph.latWindows = []latencySummary{summarizeLatency(ph.lat)}
	if rec != nil {
		ph.spans = rec.spans
	}
	runs := float64(len(runS))
	ph.layers = map[string]float64{
		"sim.run.s":                 median(runS),
		"sim.messages_per_s":        ratio(float64(messages), elapsed.Seconds()),
		"sim.alloc_b_per_principal": ratio(float64(ph.rt1.allocBytes-ph.rt0.allocBytes), runs*popPrincipals),
	}
	ph.samples["sim.run.s"] = len(runS)
	ph.samples["sim.messages_per_s"] = len(runS)
	ph.samples["sim.alloc_b_per_principal"] = len(runS)
	return ph
}
