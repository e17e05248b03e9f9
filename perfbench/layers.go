package main

import (
	"context"
	"encoding/json"
	"fmt"

	"trustseq/internal/core"
	"trustseq/internal/dsl"
	"trustseq/internal/model"
	"trustseq/internal/petri"
	"trustseq/internal/search"
	"trustseq/internal/service"
	"trustseq/internal/sim"
)

// The traced analyze phases replay, after each round trip, the layers
// the server ran for that request by calling the same public functions
// on the same input, each inside a span under the request's span. The
// round trip minus those spans is http.self_us.

// replayFrontEnd replays the parse and compile stages: dsl.Parse,
// dsl.Compile (which validates), (*Problem).Compile and the digest.
// nestedDigest marks the digest span as repeated inside a later span
// (the cache lookup recomputes it).
func replayFrontEnd(rec *recorder, root int, req int64, src string, nestedDigest bool) (*model.Problem, error) {
	var f *dsl.File
	var p *model.Problem
	var err error
	rec.timed("dsl.parse", root, req, func() { f, err = dsl.Parse(src) })
	if err != nil {
		return nil, err
	}
	rec.timed("dsl.compile", root, req, func() { p, err = dsl.Compile(f) })
	if err != nil {
		return nil, err
	}
	rec.timed("model.compile", root, req, p.Compile)
	h := rec.begin("service.digest", root, req)
	service.ProblemDigest(p)
	rec.end(h)
	rec.at(h).Nested = nestedDigest
	return p, nil
}

// replayHit replays the cache stage: Service.AnalyzeIncremental on a key
// the server holds, which must answer from the cache.
func replayHit(rec *recorder, root int, req int64, svc *service.Service, p *model.Problem, opts service.AnalyzeOptions) error {
	var err error
	var disp string
	rec.timed("service.cache.hit", root, req, func() {
		_, d, _, e := svc.AnalyzeIncremental(context.Background(), p, opts, nil)
		disp, err = string(d), e
	})
	if err != nil {
		return err
	}
	if disp != "hit" {
		return fmt.Errorf("replayed lookup was a %s, want hit", disp)
	}
	return nil
}

// replayMiss replays a fresh analysis with verify, crosscheck and
// simulate: core.Synthesize, the plan check, both exhaustive searches
// (under the server's size cap), the Petri completability check under
// its budget, a simulation with the settlement log, and the render.
func replayMiss(rec *recorder, root int, req int64, p *model.Problem, opts service.AnalyzeOptions, so service.Options) error {
	var plan *core.Plan
	var err error
	rec.timed("core.engine", root, req, func() { plan, err = core.Synthesize(p) })
	if err != nil {
		return err
	}
	res := baseResult(plan, opts)
	if plan.Feasible && opts.Verify {
		rec.timed("core.verify", root, req, func() { err = plan.Verify() })
		if err != nil {
			return err
		}
		ok := true
		res.Verified = &ok
	}
	if opts.CrossCheck {
		cc := &service.CrossCheckInfo{SearchSkipped: len(p.Exchanges) > so.MaxSearchExchanges, Agreement: true}
		if !cc.SearchSkipped {
			rec.timed("search", root, req, func() {
				var a, s search.Verdict
				if a, err = search.Feasible(p, search.ModeAssets); err != nil {
					return
				}
				if s, err = search.Feasible(p, search.ModeStrong); err != nil {
					return
				}
				cc.AssetsFeasible, cc.StrongFeasible = a.Feasible, s.Feasible
			})
			if err != nil {
				return err
			}
			rec.timed("petri", root, req, func() {
				var enc *petri.Encoding
				if enc, err = petri.FromProblem(p); err != nil {
					return
				}
				cov := enc.Completable(so.PetriBudget)
				cc.PetriFound, cc.PetriCapped = cov.Found, cov.Capped
			})
			if err != nil {
				return err
			}
			cc.Agreement = !plan.Feasible || cc.AssetsFeasible
		}
		res.CrossCheck = cc
	}
	if opts.Simulate && plan.Feasible {
		var out *sim.Result
		rec.timed("sim.simulate", root, req, func() {
			out, err = sim.Run(plan, sim.Options{Seed: opts.SimSeed, Deadline: sim.Time(opts.SimDeadline), VLog: true})
		})
		if err != nil {
			return err
		}
		res.Simulation = &service.SimulationInfo{
			Completed: out.Completed(), Messages: out.Messages, Duration: int64(out.Duration),
			Summary: out.Summary(), SettlementRoot: out.SettlementRoot,
		}
	}
	return replayRender(rec, root, req, plan, res, opts)
}

// replayEdit replays the patch stage — core.SynthesizeIncremental
// against the previous version's plan — and the render, returning the
// patched plan as the next edit's base.
func replayEdit(rec *recorder, root int, req int64, base *core.Plan, p *model.Problem, opts service.AnalyzeOptions) (*core.Plan, error) {
	var plan *core.Plan
	var info core.IncrementalInfo
	var err error
	rec.timed("core.patch", root, req, func() { plan, info, err = core.SynthesizeIncremental(base, p) })
	if err != nil {
		return nil, err
	}
	if !info.Patched() {
		return nil, fmt.Errorf("replayed edit was not patched (%v)", info.Outcome)
	}
	return plan, replayRender(rec, root, req, plan, baseResult(plan, opts), opts)
}

// replayRender replays the render stage: both response bodies, the
// JSON document and the trustseq-identical text.
func replayRender(rec *recorder, root int, req int64, plan *core.Plan, res *service.Result, opts service.AnalyzeOptions) error {
	var err error
	rec.timed("service.render", root, req, func() {
		if _, err = json.MarshalIndent(res, "", "  "); err != nil {
			return
		}
		_, err = service.RenderText(plan, service.RenderOptions{Trace: opts.Trace, Indemnify: opts.Indemnify, Verify: opts.Verify})
	})
	return err
}

// baseResult fills the analysis fields every response carries.
func baseResult(plan *core.Plan, opts service.AnalyzeOptions) *service.Result {
	p := plan.Problem
	trusted := 0
	for _, pa := range p.Parties {
		if pa.IsTrusted() {
			trusted++
		}
	}
	res := &service.Result{
		Problem: service.ProblemInfo{
			Name: p.Name, Principals: len(p.Parties) - trusted, Trusted: trusted, Exchanges: len(p.Exchanges) / 2,
		},
		Feasible: plan.Feasible,
	}
	if opts.Trace {
		res.Reduction = plan.Reduction.String()
	}
	if plan.Feasible {
		res.Sequence = plan.ExecutionSequence()
		for _, st := range plan.Steps {
			res.Steps = append(res.Steps, st.String())
		}
	} else {
		res.Impasse = plan.Reduction.Impasse()
	}
	return res
}
