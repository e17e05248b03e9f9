package main

import (
	"testing"
	"time"
)

func TestSelfUSSubtractsChildren(t *testing.T) {
	if got := selfUS(100, []float64{20, 30, 5}); got != 45 {
		t.Errorf("selfUS = %v, want 45", got)
	}
	if got := selfUS(10, []float64{15}); got != -5 {
		t.Errorf("selfUS = %v, want -5 (replays longer than the round trip are kept)", got)
	}
	if got := selfUS(10, nil); got != 10 {
		t.Errorf("selfUS without children = %v, want 10", got)
	}
}

func TestRoundTripSelfSkipsNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Req: 1, Name: "request", DurUS: 500},
		{ID: 1, Parent: 0, Req: 1, Name: "http.roundtrip", DurUS: 200},
		{ID: 2, Parent: 0, Req: 1, Name: "dsl.parse", DurUS: 30},
		{ID: 3, Parent: 0, Req: 1, Name: "dsl.compile", DurUS: 20},
		{ID: 4, Parent: 0, Req: 1, Name: "service.digest", DurUS: 5, Nested: true},
		{ID: 5, Parent: 0, Req: 1, Name: "service.cache.hit", DurUS: 10},
		// A second request and an op without a round trip.
		{ID: 6, Parent: -1, Req: 2, Name: "request", DurUS: 100},
		{ID: 7, Parent: 6, Req: 2, Name: "http.roundtrip", DurUS: 90},
		{ID: 8, Parent: 6, Req: 2, Name: "core.engine", DurUS: 40},
		{ID: 9, Parent: -1, Req: 3, Name: "request", DurUS: 50},
		{ID: 10, Parent: 9, Req: 3, Name: "sim.run", DurUS: 50},
	}
	got := roundTripSelf(spans)
	want := []float64{140, 50}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("roundTripSelf = %v, want %v", got, want)
	}
	layers := layerSamples(spans)
	if len(layers["request"]) != 0 || len(layers["dsl.parse"]) != 1 || layers["core.engine"][0] != 40 {
		t.Errorf("layerSamples = %v", layers)
	}
}

func TestRecorderSpansNestAndTime(t *testing.T) {
	rec := newRecorder(time.Now(), 1)
	root := rec.begin("request", -1, 7)
	rec.timed("dsl.parse", root, 7, func() { time.Sleep(2 * time.Millisecond) })
	rec.end(root)
	if len(rec.spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(rec.spans))
	}
	r, c := rec.spans[0], rec.spans[1]
	if c.Parent != r.ID || r.Parent != -1 || c.Req != 7 || r.ID == 0 {
		t.Errorf("bad linkage or IDs: root %+v child %+v", r, c)
	}
	if c.DurUS < 2000 || r.DurUS < c.DurUS || c.StartUS < r.StartUS {
		t.Errorf("child %+v does not lie inside root %+v", c, r)
	}
	var none *recorder
	if h := none.begin("x", -1, 1); h != -1 {
		t.Error("a nil recorder must hand out the no-op handle")
	}
	none.end(-1)
}

func TestParseServerTiming(t *testing.T) {
	got := parseServerTiming("parse;dur=0.21, compile;dur=0.03, cache;dur=0.01;desc=hit, engine;dur=bad, total;dur=3.20")
	want := map[string]float64{"parse": 210, "compile": 30, "cache": 10, "total": 3200}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if !near(got[k], v) {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if len(parseServerTiming("")) != 0 {
		t.Error("an empty header must give no stages")
	}
}

func TestStageParityFlagsDisagreement(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Req: 1, Name: "request", Server: map[string]float64{"parse": 100, "engine": 1000, "render": 40}},
		{ID: 1, Parent: 0, Req: 1, Name: "dsl.parse", DurUS: 60},
		{ID: 2, Parent: 0, Req: 1, Name: "dsl.compile", DurUS: 45},
		{ID: 3, Parent: 0, Req: 1, Name: "core.engine", DurUS: 3000},
		{ID: 4, Parent: 0, Req: 1, Name: "sim.simulate", DurUS: 80},
		// An op without Server-Timing takes no part in the comparison.
		{ID: 5, Parent: -1, Req: 2, Name: "request"},
		{ID: 6, Parent: 5, Req: 2, Name: "core.engine", DurUS: 9},
	}
	got := stageParity(spans)
	if r := got["parse"]; r.disagree || !near(r.benchUS, 105) || r.serverUS != 100 {
		t.Errorf("parse = %+v, want agreement at 105 vs 100", r)
	}
	if r := got["engine"]; !r.disagree || r.nBench != 1 {
		t.Errorf("engine = %+v, want a disagreement over one request", r)
	}
	if r := got["render"]; !r.disagree || r.nBench != 0 {
		t.Errorf("render = %+v, want a disagreement: only the server saw it", r)
	}
	if r := got["simulate"]; !r.disagree || r.nServer != 0 {
		t.Errorf("simulate = %+v, want a disagreement: only the benchmark saw it", r)
	}
	if r := got["patch"]; r.disagree || r.nBench != 0 || r.nServer != 0 {
		t.Errorf("patch = %+v, want an unflagged empty row", r)
	}
}
