package main

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's contract with BENCHMARK.json at the repository root:
// an untraced run reports exactly endToEnd, a traced run exactly
// perLayer (metrics_test.go checks the two files agree).
type metricDef struct {
	name, unit string
}

// endToEnd are the user-visible metrics, reported by every workload. An
// "item" is the workload's unit of work: a request (analyze-hot,
// analyze-churn), a principal (sim-population) or a generated problem
// (sweep-chaos). Latency is per request on the analyze workloads (from
// the moment it was due on analyze-churn), per sim.Run call on
// sim-population and per problem (sweep.Report.Durations) on
// sweep-chaos.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"items_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"p99_ms", "ms"},
	{"cpu_us_per_item", "us"},
	{"peak_rss_mb", "MB"},
}

// serverStages are the pipeline stage names the trustd service reports
// in its Server-Timing header; the traced run reports the benchmark's
// own spans under the same names (see stageParity).
var serverStages = []string{"parse", "compile", "cache", "engine", "patch", "crosscheck", "simulate", "render"}

// layerDefs lists the per-layer metrics of the traced run, before the
// per-stage parity metrics. Layers a workload does not exercise report
// 0 on it; README.md maps each metric to the end-to-end metric and the
// workload it should move.
var layerDefs = []metricDef{
	{"dsl.parse.us", "us"},
	{"dsl.compile.us", "us"},
	{"model.compile.us", "us"},
	{"service.digest.us", "us"},
	{"service.cache.hit_us", "us"},
	{"http.self_us", "us"},
	{"service.cache.hit_ratio", "frac"},
	{"service.vlog.appends_per_req", "count"},
	{"service.render.us", "us"},
	{"core.engine.us", "us"},
	{"core.patch.us", "us"},
	{"core.patch.patched_ratio", "frac"},
	{"search.us", "us"},
	{"search.skipped_ratio", "frac"},
	{"petri.us", "us"},
	{"petri.capped_ratio", "frac"},
	{"sim.simulate.us", "us"},
	{"sim.run.s", "s"},
	{"sim.messages_per_s", "1/s"},
	{"sim.alloc_b_per_principal", "B"},
	{"sim.chaos.us", "us"},
	{"sweep.problem.p50_us", "us"},
	{"sweep.problem.p99_us", "us"},
	{"sweep.busy_frac", "frac"},
	{"gc.cycles_per_kop", "count"},
	{"gc.cpu_frac", "frac"},
	{"alloc_b_per_op", "B"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}

// perLayer is the full traced-run metric list: layerDefs plus, for each
// Server-Timing stage, the server's median, the benchmark span's median
// and a 0/1 flag that the two disagree.
var perLayer = func() []metricDef {
	out := append([]metricDef(nil), layerDefs...)
	for _, st := range serverStages {
		out = append(out,
			metricDef{"stage." + st + ".server_us", "us"},
			metricDef{"stage." + st + ".bench_us", "us"},
			metricDef{"stage." + st + ".disagree", "flag"},
		)
	}
	return out
}()
