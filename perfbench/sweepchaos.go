package main

import (
	"fmt"
	"math/rand"
	"time"

	"trustseq/internal/core"
	"trustseq/internal/gen"
	"trustseq/internal/model"
	"trustseq/internal/petri"
	"trustseq/internal/search"
	"trustseq/internal/sim"
	"trustseq/internal/sweep"
)

const (
	// sweepProblems is the size of one sweep of the random family.
	sweepProblems = 2000
	// sweepChaosRuns is the number of fault-injected simulations per
	// graph-feasible problem.
	sweepChaosRuns = 4
	// sweepWarmProblems is the size of the set-up's warm-up sweep.
	sweepWarmProblems = 100
	// sweepReplayStride selects every n-th problem of a traced sweep for
	// the per-layer replay.
	sweepReplayStride = 8
)

func sweepConfig(o options, n int) sweep.Config {
	return sweep.Config{N: n, Workers: o.conns, Seed: o.seed, Family: sweep.FamilyRandom, ChaosRuns: sweepChaosRuns}
}

func runSweepChaos(o options) (*result, error) {
	_, setupS, setups, err := setupMedian(o.setups, func() (*sweep.Report, error) {
		rep := sweep.Run(sweepConfig(o, sweepWarmProblems))
		return rep, checkSweep(rep, sweepWarmProblems, nil)
	}, func(*sweep.Report) {})
	if err != nil {
		return nil, err
	}
	res := &result{
		shape: fmt.Sprintf("sweep.Run of %d random problems, %d workers, %d chaos runs each",
			sweepProblems, o.conns, sweepChaosRuns),
		setupS: setupS, setups: setups,
	}
	untraced, traced := phaseLengths(o)
	res.main = measureSweep(o, untraced, nil)
	if o.trace {
		res.traced = measureSweep(o, traced, newRecorder(time.Now(), 0))
	}
	return res, nil
}

// measureSweep runs whole sweeps of one seed until d has passed (at
// least twice). Items are problems; latency samples are the per-problem
// durations; CPU and runtime counters cover the sweeps alone, plus, when
// traced, the per-layer replays.
func measureSweep(o options, d time.Duration, rec *recorder) *phase {
	ph := &phase{samples: map[string]int{}}
	cfg := sweepConfig(o, sweepProblems)
	var first *sweep.Stats
	var busy, capacity time.Duration
	start := time.Now()
	for n := int64(0); n < 2 || time.Since(start) < d; n++ {
		ph.attempted++
		root := rec.begin("request", -1, n)
		r0, c0 := readRuntime(), cpuTime()
		h := rec.begin("sweep.run", root, n)
		rep := sweep.Run(cfg)
		rec.end(h)
		if rec != nil {
			if err := replaySweep(rec, root, n, cfg.Normalized(), rep); err != nil {
				ph.fail("sweep %d replay: %v", n, err)
			}
		}
		cpu := cpuTime() - c0
		ph.cpu += cpu
		ph.rt1 = ph.rt1.plus(r0, readRuntime())
		rec.end(root)
		ph.items += float64(rep.Completed)
		ph.lat = append(ph.lat, rep.Durations...)
		ph.slices = append(ph.slices, slice{items: float64(rep.Completed), elapsed: rep.Elapsed, cpu: cpu})
		ph.latWindows = append(ph.latWindows, summarizeLatency(rep.Durations))
		for _, dur := range rep.Durations {
			busy += dur
		}
		capacity += rep.Elapsed * time.Duration(rep.Config.Workers)
		if err := checkSweep(rep, sweepProblems, first); err != nil {
			ph.fail("sweep %d: %v", n, err)
		}
		if first == nil {
			st := rep.Stats
			first = &st
		}
	}
	if rec != nil {
		ph.spans = rec.spans
	}
	us := durationsUS(ph.lat)
	ph.layers = map[string]float64{
		"sweep.problem.p50_us": percentile(us, 50),
		"sweep.problem.p99_us": percentile(us, 99),
		"sweep.busy_frac":      ratio(float64(busy), float64(capacity)),
	}
	ph.samples["sweep.problem.p50_us"], ph.samples["sweep.problem.p99_us"] = len(us), len(us)
	ph.samples["sweep.busy_frac"] = int(ph.attempted)
	return ph
}

// replaySweep re-runs every sweepReplayStride-th problem of a finished
// sweep serially through the layers the sweep calls — core.Synthesize,
// the fault-injected simulations, both exhaustive searches and the
// Petri check — each inside a span, and checks the replayed verdicts
// against the sweep's. Problem i is regenerated as the sweep generates
// it (seed cfg.Seed + i·0x9E3779B1 + 1, gen.Random with cfg.Gen) and the
// chaos options are sampled as the sweep samples them.
func replaySweep(rec *recorder, parent int, req int64, cfg sweep.Config, rep *sweep.Report) error {
	rng := rand.New(rand.NewSource(0))
	menu := sim.AllFaults()
	for i := 0; i < cfg.N; i += sweepReplayStride {
		want := rep.Results[i]
		seed := cfg.Seed + int64(i)*0x9E3779B1 + 1
		rng.Seed(seed)
		p := gen.Random(rng, cfg.Gen)
		var plan *core.Plan
		var err error
		rec.timed("core.engine", parent, req, func() { plan, err = core.Synthesize(p) })
		if err != nil {
			return fmt.Errorf("problem %d: %w", i, err)
		}
		if plan.Feasible != want.GraphFeasible {
			return fmt.Errorf("problem %d: replayed graph verdict %v, sweep has %v", i, plan.Feasible, want.GraphFeasible)
		}
		if plan.Feasible {
			var principals []model.PartyID
			for _, pa := range p.Parties {
				if !pa.IsTrusted() {
					principals = append(principals, pa.ID)
				}
			}
			rng.Seed(seed ^ 0x5DEECE66D)
			for k := 0; k < cfg.ChaosRuns; k++ {
				opts := sim.ChaosOptions(rng, p, menu, seed+int64(k)*0x85EBCA6B+3, 0)
				if len(principals) > 0 && rng.Intn(3) == 0 {
					opts.Defectors = map[model.PartyID]int{principals[rng.Intn(len(principals))]: rng.Intn(2)}
				}
				var out *sim.Result
				rec.timed("sim.chaos", parent, req, func() { out, err = sim.Run(plan, opts) })
				if err != nil {
					return fmt.Errorf("problem %d chaos run %d: %w", i, k, err)
				}
				if v := sim.ChaosViolations(out, opts.Defectors); len(v) > 0 {
					return fmt.Errorf("problem %d chaos run %d: %s", i, k, v[0])
				}
			}
		}
		if len(p.Exchanges) > cfg.MaxSearchExchanges {
			continue
		}
		var assets, strong search.Verdict
		rec.timed("search", parent, req, func() {
			if assets, err = search.Feasible(p, search.ModeAssets); err == nil {
				strong, err = search.Feasible(p, search.ModeStrong)
			}
		})
		if err != nil {
			return fmt.Errorf("problem %d: %w", i, err)
		}
		var cov petri.ReachabilityResult
		rec.timed("petri", parent, req, func() {
			var enc *petri.Encoding
			if enc, err = petri.FromProblem(p); err == nil {
				cov = enc.Completable(cfg.PetriBudget)
			}
		})
		if err != nil {
			return fmt.Errorf("problem %d: %w", i, err)
		}
		if assets.Feasible != want.AssetsFeasible || strong.Feasible != want.StrongFeasible || cov.Found != want.PetriFound {
			return fmt.Errorf("problem %d: replayed cross-check verdicts differ from the sweep's", i)
		}
	}
	return nil
}
