// Command perfbench is the repository's benchmark: it drives the three
// ways the system is used — trustd's /v1/analyze over HTTP, a trustsim
// population run and a sweep — through four named workloads, checks
// every output, and prints the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run) as the last line of standard output:
//
//	sh perfbench/run.sh --workload analyze-hot --seed 1 --seconds 20 --trace 0
//
// Workloads: analyze-hot, analyze-churn, sim-population, sweep-chaos.
// README.md describes each, why it was chosen, and which end-to-end
// metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	churnRPS float64
	setups   int
	conns    int
	commit   string
	root     string
}

// workload is one named traffic shape. run performs the set-ups and the
// measured phases and returns what they measured.
type workload struct {
	name string
	run  func(o options) (*result, error)
	// setups is how many set-ups a run makes: more where a set-up is
	// short, so their median is steady.
	setups int
}

var workloads = []workload{
	{"analyze-hot", runHot, 9},
	{"analyze-churn", runChurn, 5},
	{"sim-population", runSimPopulation, 3},
	{"sweep-chaos", runSweepChaos, 9},
}

// phase is one measured window of a workload.
type phase struct {
	attempted, failed int
	failures          []string
	items             float64         // units of work completed (requests, principals, problems)
	cpu               time.Duration   // process CPU while doing them
	lat               []time.Duration // per-op latencies (sim-population, sweep-chaos)
	slices            []slice
	latWindows        []latencySummary
	rt0, rt1          rtSample
	layers            map[string]float64 // layer metrics not derived from spans
	samples           map[string]int
	spans             []span
}

// fail counts one failed operation, keeping the first few messages.
func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 5 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// merge folds a worker's counts into p.
func (p *phase) merge(w *phase) {
	p.attempted += w.attempted
	p.failed += w.failed
	for _, f := range w.failures {
		if len(p.failures) < 5 {
			p.failures = append(p.failures, f)
		}
	}
	p.spans = append(p.spans, w.spans...)
}

func (p *phase) cpuPerItemUS() float64 {
	return ratio(float64(p.cpu)/float64(time.Microsecond), p.items)
}

// result is what a workload run reports.
type result struct {
	shape  string // load shape for the run record
	setupS float64
	setups []float64
	main   *phase // the untraced phase (the whole run when untraced)
	traced *phase // the traced phase, traced runs only
}

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.Float64Var(&o.churnRPS, "churn-rps", 48, "analyze-churn arrival rate in requests per second")
	fs.StringVar(&o.commit, "commit", "none", "commit of the measured code, for the run record")
	fs.StringVar(&o.root, "root", ".", "repository checkout the benchmark was built from")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 || o.churnRPS <= 0 {
		return 2, errors.New("--seconds and --churn-rps must be positive")
	}
	// No more connections (and sweep workers) than processors.
	o.conns = runtime.NumCPU()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return 2, fmt.Errorf("unknown --workload %q (want one of %s)", o.workload, strings.Join(names, ", "))
	}
	o.setups = wl.setups

	res, err := wl.run(o)
	if err != nil {
		return 1, err
	}
	if o.trace {
		dir := filepath.Join(o.root, ".bench_build", "spans")
		if err := os.MkdirAll(dir, 0o755); err == nil {
			path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
			if err := writeSpans(path, res.traced.spans); err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
			}
		}
	}
	if err := report(stdout, stderr, o, res); err != nil {
		return 1, err
	}
	return 0, nil
}

// report prints the run record and the human-readable metric lines
// (prefixed "#"), then the result object as the last line.
func report(stdout, stderr io.Writer, o options, res *result) error {
	ph := res.main
	attempted, failed := ph.attempted, ph.failed
	failures := append([]string(nil), ph.failures...)
	if res.traced != nil {
		attempted += res.traced.attempted
		failed += res.traced.failed
		failures = append(failures, res.traced.failures...)
	}
	for _, f := range failures {
		fmt.Fprintf(stderr, "perfbench: %s: failed: %s\n", o.workload, f)
	}

	var defs []metricDef
	var values map[string]float64
	samples := map[string]int{}
	if o.trace {
		for k, v := range ph.samples {
			samples[k] = v
		}
		defs, values = perLayer, layerMetrics(res, samples)
	} else {
		defs, values = endToEnd, endToEndMetrics(res, samples)
	}

	mode := "untraced"
	if o.trace {
		mode = "traced"
	}
	record := map[string]any{
		"workload":    o.workload,
		"seed":        o.seed,
		"seconds":     o.seconds,
		"mode":        mode,
		"commit":      o.commit,
		"source":      sourceDigest(o.root),
		"host":        hostInfo(),
		"load":        res.shape,
		"setups":      res.setups,
		"ops":         attempted,
		"ops_failed":  failed,
		"samples":     samples,
		"measured_at": time.Now().UTC().Format(time.RFC3339),
	}
	rec, err := json.Marshal(record)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# run-record %s\n", rec)
	fmt.Fprintf(stdout, "# %-30s %14d\n", "ops", attempted)
	fmt.Fprintf(stdout, "# %-30s %14d\n", "ops_failed", failed)
	for _, d := range defs {
		fmt.Fprintf(stdout, "# %-30s %14.4f %-6s n=%d\n", d.name, values[d.name], d.unit, samples[d.name])
	}
	if !o.trace {
		for _, a := range aliases(o.workload, values) {
			fmt.Fprintf(stdout, "# %-30s %14.4f %-6s (%s)\n", a.name, a.value, a.unit, a.of)
		}
	}

	out := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]json.RawMessage, len(defs)),
	}
	for _, d := range defs {
		v, err := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{values[d.name], d.unit})
		if err != nil {
			return err
		}
		out.Metrics[d.name] = v
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// endToEndMetrics computes the untraced run's metrics.
func endToEndMetrics(res *result, samples map[string]int) map[string]float64 {
	ph := res.main
	itemsPerS, cpuPerItem, lat := windowFigures(ph.slices, ph.latWindows)
	samples["setup_s"] = len(res.setups)
	samples["items_per_s"] = len(ph.slices)
	samples["cpu_us_per_item"] = len(ph.slices)
	samples["p50_ms"], samples["p90_ms"], samples["p99_ms"] = lat.n, lat.n, lat.n
	samples["peak_rss_mb"] = 1
	return map[string]float64{
		"setup_s":         res.setupS,
		"items_per_s":     itemsPerS,
		"p50_ms":          lat.p50,
		"p90_ms":          lat.p90,
		"p99_ms":          lat.p99,
		"cpu_us_per_item": cpuPerItem,
		"peak_rss_mb":     peakRSSMB(),
	}
}

// spanLayers maps span names to the per-layer metrics reporting their
// median duration in microseconds.
var spanLayers = map[string]string{
	"dsl.parse":         "dsl.parse.us",
	"dsl.compile":       "dsl.compile.us",
	"model.compile":     "model.compile.us",
	"service.digest":    "service.digest.us",
	"service.cache.hit": "service.cache.hit_us",
	"service.render":    "service.render.us",
	"core.engine":       "core.engine.us",
	"core.patch":        "core.patch.us",
	"search":            "search.us",
	"petri":             "petri.us",
	"sim.simulate":      "sim.simulate.us",
	"sim.chaos":         "sim.chaos.us",
}

// layerMetrics computes the traced run's metrics: span medians from the
// traced phase, counters and runtime readings from the untraced phase
// (so the replays the traced phase adds do not distort them), and the
// tracing overhead as the traced phase's CPU per item over the
// untraced phase's, minus one.
func layerMetrics(res *result, samples map[string]int) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = 0
	}
	main, tr := res.main, res.traced
	for k, v := range main.layers {
		out[k] = v
	}
	for name, xs := range layerSamples(tr.spans) {
		if m, ok := spanLayers[name]; ok {
			samples[m] = len(xs)
			out[m] = median(xs)
		}
	}
	if self := roundTripSelf(tr.spans); len(self) > 0 {
		samples["http.self_us"] = len(self)
		out["http.self_us"] = median(self)
	}
	for st, r := range stageParity(tr.spans) {
		out["stage."+st+".server_us"] = r.serverUS
		out["stage."+st+".bench_us"] = r.benchUS
		samples["stage."+st+".server_us"] = r.nServer
		samples["stage."+st+".bench_us"] = r.nBench
		if r.disagree {
			out["stage."+st+".disagree"] = 1
		}
	}
	cyc, gcFrac, alloc := gcLayer(main.rt0, main.rt1, main.items)
	out["gc.cycles_per_kop"], out["gc.cpu_frac"], out["alloc_b_per_op"] = cyc, gcFrac, alloc
	for _, k := range []string{"gc.cycles_per_kop", "gc.cpu_frac", "alloc_b_per_op"} {
		samples[k] = int(main.items)
	}
	if base := main.cpuPerItemUS(); base > 0 {
		out["trace.overhead_frac"] = tr.cpuPerItemUS()/base - 1
		samples["trace.overhead_frac"] = int(main.items + tr.items)
	}
	return out
}

// alias is an end-to-end metric under the name the workload's users
// know it by (req_s, principals_per_s, …), printed beside the generic
// metric it is derived from.
type alias struct {
	name, unit, of string
	value          float64
}

func aliases(workload string, v map[string]float64) []alias {
	switch workload {
	case "analyze-hot", "analyze-churn":
		return []alias{
			{"req_s", "1/s", "items_per_s", v["items_per_s"]},
			{"cpu_us_per_req", "us", "cpu_us_per_item", v["cpu_us_per_item"]},
		}
	case "sim-population":
		return []alias{
			{"principals_per_s", "1/s", "items_per_s", v["items_per_s"]},
			{"cpu_us_per_principal", "us", "cpu_us_per_item", v["cpu_us_per_item"]},
		}
	case "sweep-chaos":
		return []alias{
			{"problems_per_s", "1/s", "items_per_s", v["items_per_s"]},
			{"cpu_ms_per_problem", "ms", "cpu_us_per_item", v["cpu_us_per_item"] / 1000},
		}
	}
	return nil
}

// setupMedian runs setup n times, tearing down every state but the
// last, and returns the last state with the median and all set-up
// durations in seconds.
func setupMedian[T any](n int, setup func() (T, error), teardown func(T)) (T, float64, []float64, error) {
	var st T
	durs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(st)
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		st, err = setup()
		if err != nil {
			return st, 0, nil, err
		}
		durs = append(durs, time.Since(t0).Seconds())
	}
	sorted := append([]float64(nil), durs...)
	sort.Float64s(sorted)
	return st, sortedPercentile(sorted, 50), durs, nil
}

// phaseLengths splits the run: an untraced run measures for the whole
// time; a traced run measures half untraced and half traced, so the
// difference between the halves is the tracing overhead.
func phaseLengths(o options) (untraced, traced time.Duration) {
	total := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		return total, 0
	}
	return total / 2, total - total/2
}
