package main

import (
	"encoding/json"
	"errors"
	"testing"

	"trustseq/internal/core"
	"trustseq/internal/gen"
	"trustseq/internal/service"
	"trustseq/internal/sim"
	"trustseq/internal/sweep"
)

func chainPlan(t *testing.T) *core.Plan {
	t.Helper()
	plan, err := core.Synthesize(gen.Chain(3, 20))
	if err != nil || !plan.Feasible {
		t.Fatalf("chain-3 must synthesize feasibly: %v", err)
	}
	return plan
}

func TestCheckHitRejectsCorruptedBody(t *testing.T) {
	want, err := service.RenderText(chainPlan(t), service.RenderOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	ok := &reply{status: 200, cache: "hit", body: []byte(want)}
	if err := checkHit(ok, []byte(want)); err != nil {
		t.Fatalf("valid hit rejected: %v", err)
	}
	corrupt := append([]byte(nil), want...)
	corrupt[len(corrupt)/2] ^= 0x20
	if checkHit(&reply{status: 200, cache: "hit", body: corrupt}, []byte(want)) == nil {
		t.Error("corrupted body accepted")
	}
	if checkHit(&reply{status: 200, cache: "miss", body: []byte(want)}, []byte(want)) == nil {
		t.Error("a miss accepted as a hit")
	}
	if checkHit(&reply{status: 504, cache: "hit", body: []byte(want)}, []byte(want)) == nil {
		t.Error("non-200 status accepted")
	}
}

func TestCheckEditRejectsUnpatchedEdit(t *testing.T) {
	body := []byte("problem chain-3: ...\n")
	if err := checkEdit(&reply{status: 200, incremental: "patched", body: body}, body); err != nil {
		t.Fatalf("valid patched edit rejected: %v", err)
	}
	for _, inc := range []string{"full", "base-miss", ""} {
		if checkEdit(&reply{status: 200, incremental: inc, body: body}, body) == nil {
			t.Errorf("edit with X-Trustd-Incremental %q accepted", inc)
		}
	}
	if checkEdit(&reply{status: 200, incremental: "patched", body: body}, []byte("other\n")) == nil {
		t.Error("patched body that differs from the from-scratch analysis accepted")
	}
}

func TestCheckMissRequiresEveryAnalysisPart(t *testing.T) {
	plan := chainPlan(t)
	yes := true
	good := service.Result{
		Feasible:   true,
		Sequence:   plan.ExecutionSequence(),
		Verified:   &yes,
		CrossCheck: &service.CrossCheckInfo{Agreement: true},
		Simulation: &service.SimulationInfo{Completed: true},
	}
	encode := func(r service.Result) *reply {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return &reply{status: 200, cache: "miss", body: b}
	}
	if _, err := checkMiss(encode(good), verdictOf(plan)); err != nil {
		t.Fatalf("valid miss rejected: %v", err)
	}
	bad := map[string]func(r *service.Result){
		"verdict":     func(r *service.Result) { r.Feasible = false },
		"sequence":    func(r *service.Result) { r.Sequence += "x" },
		"unverified":  func(r *service.Result) { r.Verified = nil },
		"disagreeing": func(r *service.Result) { r.CrossCheck = &service.CrossCheckInfo{} },
		"incomplete":  func(r *service.Result) { r.Simulation = &service.SimulationInfo{} },
		"no sim":      func(r *service.Result) { r.Simulation = nil },
	}
	for name, mutate := range bad {
		r := good
		mutate(&r)
		if _, err := checkMiss(encode(r), verdictOf(plan)); err == nil {
			t.Errorf("%s miss accepted", name)
		}
	}
	if _, err := checkMiss(&reply{status: 200, cache: "miss", body: []byte("{")}, verdictOf(plan)); err == nil {
		t.Error("truncated JSON accepted")
	}
}

func TestCheckRepeat(t *testing.T) {
	body := []byte("{}\n")
	for _, c := range []string{"hit", "coalesced"} {
		if err := checkRepeat(&reply{status: 200, cache: c, body: body}, body); err != nil {
			t.Errorf("%s repeat rejected: %v", c, err)
		}
	}
	if checkRepeat(&reply{status: 200, cache: "miss", body: body}, body) == nil {
		t.Error("a repeat that ran the engines accepted")
	}
}

func TestCheckSweepRejectsViolationsAndDrift(t *testing.T) {
	const n = 24
	rep := sweep.Run(sweep.Config{N: n, Workers: 2, Seed: 5, ChaosRuns: 1})
	if err := checkSweep(rep, n, nil); err != nil {
		t.Fatalf("clean sweep rejected: %v", err)
	}
	first := rep.Stats
	if err := checkSweep(sweep.Run(sweep.Config{N: n, Workers: 1, Seed: 5, ChaosRuns: 1}), n, &first); err != nil {
		t.Fatalf("repeat of the same seed rejected: %v", err)
	}
	violated := *rep
	violated.Stats.Unsound++
	if checkSweep(&violated, n, nil) == nil {
		t.Error("sweep with an unsound verdict accepted")
	}
	drifted := *rep
	drifted.Stats.Feasible++
	if checkSweep(&drifted, n, &first) == nil {
		t.Error("sweep whose stats differ from the seed's first sweep accepted")
	}
	short := *rep
	short.Completed--
	if checkSweep(&short, n, nil) == nil {
		t.Error("incomplete sweep accepted")
	}
}

func TestCheckSimRunReplaysBalances(t *testing.T) {
	plan, err := core.Synthesize(gen.Population(20, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	run := func() *sim.Result {
		res, err := sim.Run(plan, sim.Options{Seed: 3, Deadline: popDeadline})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if err := checkSimRun(run()); err != nil {
		t.Fatalf("honest population run rejected: %v", err)
	}
	faulty := run()
	faulty.Faults = append(faulty.Faults, errors.New("unfundable step"))
	if checkSimRun(faulty) == nil {
		t.Error("run with faults accepted")
	}
	skewed := run()
	for _, pa := range skewed.Problem.Parties {
		skewed.Balances[pa.ID] = skewed.Balances[pa.ID].Clone()
		skewed.Balances[pa.ID].Cash++
		break
	}
	if checkSimRun(skewed) == nil {
		t.Error("run whose balances disagree with its trace accepted")
	}
}
