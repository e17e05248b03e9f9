package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The benchmark's metric lists and BENCHMARK.json at the repository root
// must name the same metrics with the same units, in the same order, and
// the same workloads.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd)
	compare("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, b.Workloads[i].Name, w.name)
		}
	}
}

// Every span name a replay records either feeds a per-layer metric or is
// a known structural span, so no measured layer is silently dropped.
func TestSpanLayersReportedMetrics(t *testing.T) {
	names := map[string]bool{}
	for _, d := range perLayer {
		names[d.name] = true
	}
	for span, metric := range spanLayers {
		if !names[metric] {
			t.Errorf("span %s feeds %s, which is not a per-layer metric", span, metric)
		}
	}
	for st, spans := range benchStages {
		for _, s := range spans {
			if _, ok := spanLayers[s]; !ok {
				t.Errorf("stage %s compares span %s, which no layer metric reports", st, s)
			}
		}
	}
}
