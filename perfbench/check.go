package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"trustseq/internal/core"
	"trustseq/internal/service"
	"trustseq/internal/sim"
	"trustseq/internal/sweep"
)

// verdict is the part of an analysis every response must reproduce: the
// feasibility verdict and, when feasible, the execution sequence.
type verdict struct {
	feasible bool
	sequence string
}

func verdictOf(plan *core.Plan) verdict {
	v := verdict{feasible: plan.Feasible}
	if plan.Feasible {
		v.sequence = plan.ExecutionSequence()
	}
	return v
}

// checkVerdict decodes a JSON analysis body and compares its verdict
// and sequence with an in-process analysis of the same input.
func checkVerdict(body []byte, want verdict) (*service.Result, error) {
	var res service.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("decoding analysis: %w", err)
	}
	if res.Feasible != want.feasible {
		return nil, fmt.Errorf("verdict feasible=%v, in-process analysis says %v", res.Feasible, want.feasible)
	}
	if res.Sequence != want.sequence {
		return nil, errors.New("execution sequence differs from the in-process analysis")
	}
	return &res, nil
}

// checkHit accepts an analyze-hot response: 200, served from the cache,
// and byte-identical to the body verified during warm-up.
func checkHit(rep *reply, want []byte) error {
	if rep.status != 200 {
		return fmt.Errorf("status %d", rep.status)
	}
	if rep.cache != "hit" {
		return fmt.Errorf("X-Trustd-Cache %q, want hit", rep.cache)
	}
	if !bytes.Equal(rep.body, want) {
		return errors.New("body differs from the verified analysis")
	}
	return nil
}

// checkMiss accepts a churn miss: a fresh engine run whose verdict and
// sequence match the in-process analysis, that verified its plan, whose
// cross-check agrees and whose simulation completed.
func checkMiss(rep *reply, want verdict) (*service.Result, error) {
	if rep.status != 200 {
		return nil, fmt.Errorf("status %d", rep.status)
	}
	if rep.cache != "miss" {
		return nil, fmt.Errorf("X-Trustd-Cache %q, want miss", rep.cache)
	}
	res, err := checkVerdict(rep.body, want)
	if err != nil {
		return nil, err
	}
	switch {
	case res.Verified == nil || !*res.Verified:
		return nil, errors.New("plan not verified")
	case res.CrossCheck == nil || !res.CrossCheck.Agreement:
		return nil, errors.New("cross-check missing or in disagreement")
	case res.Simulation == nil || !res.Simulation.Completed:
		return nil, errors.New("simulation missing or not completed")
	}
	return res, nil
}

// checkEdit accepts a churn edit: served by the patch path and
// byte-identical to a from-scratch analysis of the edited problem.
func checkEdit(rep *reply, fromScratch []byte) error {
	if rep.status != 200 {
		return fmt.Errorf("status %d", rep.status)
	}
	if rep.incremental != string(service.IncrementalPatched) {
		return fmt.Errorf("X-Trustd-Incremental %q, want patched", rep.incremental)
	}
	if !bytes.Equal(rep.body, fromScratch) {
		return errors.New("patched body differs from the from-scratch analysis")
	}
	return nil
}

// checkRepeat accepts a churn repeat: answered without an engine run
// and byte-identical to the earlier response it repeats.
func checkRepeat(rep *reply, earlier []byte) error {
	if rep.status != 200 {
		return fmt.Errorf("status %d", rep.status)
	}
	if rep.cache != "hit" && rep.cache != "coalesced" {
		return fmt.Errorf("X-Trustd-Cache %q, want hit", rep.cache)
	}
	if !bytes.Equal(rep.body, earlier) {
		return errors.New("repeat body differs from the earlier response")
	}
	return nil
}

// checkSimRun accepts a population run: completed, fault-free, and its
// trace replays to the balances the live run produced.
func checkSimRun(res *sim.Result) error {
	if !res.Completed() {
		return errors.New("run did not complete")
	}
	if len(res.Faults) != 0 {
		return fmt.Errorf("run hit %d faults, first: %v", len(res.Faults), res.Faults[0])
	}
	replayed, err := res.ReplayBalances()
	if err != nil {
		return err
	}
	for _, pa := range res.Problem.Parties {
		if !replayed[pa.ID].Equal(res.Balances[pa.ID]) {
			return fmt.Errorf("replayed balance of %s is %v, live run has %v", pa.ID, replayed[pa.ID], res.Balances[pa.ID])
		}
	}
	return nil
}

// checkSweep accepts one sweep of n problems: complete, free of
// violations, and with the same stats as the first sweep of the seed
// (nil for the first).
func checkSweep(rep *sweep.Report, n int, first *sweep.Stats) error {
	if rep.Canceled || rep.Completed != n {
		return fmt.Errorf("sweep completed %d of %d problems", rep.Completed, n)
	}
	if v := rep.Stats.Violations(); v != 0 {
		return fmt.Errorf("sweep reports %d violations", v)
	}
	if first != nil && rep.Stats != *first {
		return fmt.Errorf("sweep stats %+v differ from the seed's first sweep %+v", rep.Stats, *first)
	}
	return nil
}
