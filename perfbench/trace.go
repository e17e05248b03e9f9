package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// span is one interval the traced run records around a call into the
// program. Every span of one request (or one op) shares Req; the
// request span has Parent -1 and the layer spans point at it. Spans are
// kept in memory per worker and written out when the run ends.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Req     int64   `json:"req"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	// Nested marks a layer whose work a sibling span repeats (the digest
	// inside Service.AnalyzeIncremental), so it is not subtracted twice
	// when the round trip's self time is computed.
	Nested bool `json:"nested,omitempty"`
	// Server holds the request's Server-Timing stages in microseconds
	// (request spans only).
	Server map[string]float64 `json:"server,omitempty"`
}

// recorder collects the spans of one worker goroutine; it is not safe
// for concurrent use. A nil recorder records nothing, so untraced code
// paths call it unconditionally.
type recorder struct {
	origin time.Time
	base   int // ID offset, so IDs stay unique across merged workers
	spans  []span
}

func newRecorder(origin time.Time, worker int) *recorder {
	return &recorder{origin: origin, base: worker << 40}
}

// begin opens a span and returns its handle.
func (r *recorder) begin(name string, parent int, req int64) int {
	if r == nil {
		return -1
	}
	id := r.base + len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		StartUS: float64(time.Since(r.origin)) / float64(time.Microsecond),
	})
	return id
}

// end closes the span h.
func (r *recorder) end(h int) {
	if r == nil || h < 0 {
		return
	}
	s := &r.spans[h-r.base]
	s.DurUS = float64(time.Since(r.origin))/float64(time.Microsecond) - s.StartUS
}

// at returns the span behind handle h.
func (r *recorder) at(h int) *span { return &r.spans[h-r.base] }

// timed runs f inside a span named name under parent.
func (r *recorder) timed(name string, parent int, req int64, f func()) {
	h := r.begin(name, parent, req)
	f()
	r.end(h)
}

// selfUS is the part of a span's duration its children do not account
// for: the parent's duration minus the sum of the children's. The
// traced analyze runs use it for http.self_us, where the children are
// the benchmark's replays of the layers the server ran for that
// request. A negative result means the replays took longer than the
// whole round trip and is reported as measured.
func selfUS(parent float64, children []float64) float64 {
	for _, c := range children {
		parent -= c
	}
	return parent
}

// layerSamples groups span durations (µs) by layer name, leaving out
// the request spans themselves.
func layerSamples(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		out[s.Name] = append(out[s.Name], s.DurUS)
	}
	return out
}

// roundTripSelf returns, per request that has an http.roundtrip span,
// the round trip minus that request's other, non-nested layer spans.
func roundTripSelf(spans []span) []float64 {
	type acc struct {
		rt       float64
		hasRT    bool
		children []float64
	}
	byReq := make(map[int64]*acc)
	var order []int64
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		a := byReq[s.Req]
		if a == nil {
			a = &acc{}
			byReq[s.Req] = a
			order = append(order, s.Req)
		}
		switch {
		case s.Name == "http.roundtrip":
			a.rt, a.hasRT = s.DurUS, true
		case !s.Nested:
			a.children = append(a.children, s.DurUS)
		}
	}
	var out []float64
	for _, req := range order {
		if a := byReq[req]; a.hasRT {
			out = append(out, selfUS(a.rt, a.children))
		}
	}
	return out
}

// parseServerTiming decodes a Server-Timing header value such as
// "parse;dur=0.21, cache;dur=0.01;desc=hit, total;dur=3.20" into stage
// durations in microseconds. Entries without a numeric dur are skipped.
func parseServerTiming(v string) map[string]float64 {
	out := make(map[string]float64)
	for _, entry := range strings.Split(v, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ";")
		name := strings.TrimSpace(parts[0])
		if name == "" {
			continue
		}
		for _, p := range parts[1:] {
			k, val, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok || k != "dur" {
				continue
			}
			ms, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(ms) {
				continue
			}
			out[name] = ms * 1000
		}
	}
	return out
}

// benchStages maps each Server-Timing stage to the benchmark spans that
// replay the same work. "cache" is the lookup alone: the hit replay
// minus the digest it recomputes.
var benchStages = map[string][]string{
	"parse":      {"dsl.parse", "dsl.compile"},
	"compile":    {"model.compile", "service.digest"},
	"cache":      {"service.cache.hit"},
	"engine":     {"core.engine"},
	"patch":      {"core.patch"},
	"crosscheck": {"search", "petri"},
	"simulate":   {"sim.simulate"},
	"render":     {"service.render"},
}

// stageResult is one stage's parity row: the medians of the server's
// and the benchmark's view and whether they disagree.
type stageResult struct {
	serverUS, benchUS float64
	nServer, nBench   int
	disagree          bool
}

// stageParity compares, per Server-Timing stage, the server-reported
// durations with the benchmark's own spans over the same requests (the
// HTTP requests, whose request spans carry the header's stages). A
// stage disagrees when only one side saw it, or when both did and their
// medians differ by more than half the server's and by more than 50µs
// (the header's resolution is 10µs).
func stageParity(spans []span) map[string]stageResult {
	server := make(map[string][]float64)
	bench := make(map[string][]float64)
	perReq := make(map[int64]map[string]float64)
	var reqs []int64
	for _, s := range spans {
		if s.Parent < 0 && s.Server != nil {
			for st, us := range s.Server {
				server[st] = append(server[st], us)
			}
			perReq[s.Req] = make(map[string]float64)
			reqs = append(reqs, s.Req)
		}
	}
	for _, s := range spans {
		m := perReq[s.Req]
		if s.Parent < 0 || m == nil {
			continue
		}
		m[s.Name] += s.DurUS
	}
	for _, req := range reqs {
		m := perReq[req]
		for st, names := range benchStages {
			var sum float64
			seen := false
			for _, n := range names {
				if d, ok := m[n]; ok {
					sum += d
					seen = true
				}
			}
			if !seen {
				continue
			}
			if st == "cache" {
				sum -= m["service.digest"]
				if sum < 0 {
					sum = 0
				}
			}
			bench[st] = append(bench[st], sum)
		}
	}
	out := make(map[string]stageResult, len(serverStages))
	for _, st := range serverStages {
		r := stageResult{nServer: len(server[st]), nBench: len(bench[st])}
		r.serverUS = median(server[st])
		r.benchUS = median(bench[st])
		switch {
		case r.nServer == 0 && r.nBench == 0:
		case r.nServer == 0 || r.nBench == 0:
			r.disagree = true
		default:
			diff := math.Abs(r.benchUS - r.serverUS)
			r.disagree = diff > 50 && diff > 0.5*r.serverUS
		}
		out[st] = r
	}
	return out
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
