package service

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"trustseq/internal/dsl"
	"trustseq/internal/gen"
)

// hotQuery is the option set of perfbench's analyze-hot workload.
const hotQuery = "?seq=1&verify=1"

// hotSource prints one problem of the analyze-hot shape (one consumer,
// two brokers, two producers).
func hotSource(tb testing.TB, seed int64) string {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	src, err := dsl.Print(gen.Random(rng, gen.Options{Consumers: 1, Brokers: 2, Producers: 2, MaxPrice: 1000, DirectTrustProb: 0.3}))
	if err != nil {
		tb.Fatal(err)
	}
	return src
}

// serveAnalyze posts a raw .exch body to h in-process and returns the
// recorded response.
func serveAnalyze(h http.Handler, query, src string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze"+query, strings.NewReader(src))
	req.Header.Set("Content-Type", "text/plain")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// BenchmarkServiceAnalyze measures one /v1/analyze request through the
// full handler stack (request identity, metrics middleware, analyze
// handler), in-process via httptest. hit replays a resident input;
// miss sends a source and an option set never seen before on every
// iteration, so the front end, the engines and the render all run.
func BenchmarkServiceAnalyze(b *testing.B) {
	src := hotSource(b, 1)
	b.Run("hit", func(b *testing.B) {
		h := New(Options{}).Handler()
		if rec := serveAnalyze(h, hotQuery, src); rec.Code != http.StatusOK {
			b.Fatalf("warm-up: %d: %s", rec.Code, rec.Body)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := serveAnalyze(h, hotQuery, src)
			if rec.Header().Get("X-Trustd-Cache") != "hit" {
				b.Fatalf("request %d: X-Trustd-Cache %q", i, rec.Header().Get("X-Trustd-Cache"))
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		h := New(Options{}).Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A trailing comment gives a new source, a new seed a new
			// result key; the compiled problem stays the same size.
			n := strconv.Itoa(i)
			rec := serveAnalyze(h, hotQuery+"&seed="+n, src+"// "+n+"\n")
			if rec.Header().Get("X-Trustd-Cache") != "miss" {
				b.Fatalf("request %d: X-Trustd-Cache %q", i, rec.Header().Get("X-Trustd-Cache"))
			}
		}
	})
}

// TestAnalyzeHitAllocBudget gates the allocation count of a front-memo
// hit served from the result cache, harness request and recorder
// included. The budget is a fixed ceiling a little above the measured
// steady state (46 allocs; 453 before the front memo, when every hit
// re-parsed its source and allocated a span ring), so a regression back
// to parsing on a hit trips it at once.
func TestAnalyzeHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	h := New(Options{}).Handler()
	src := hotSource(t, 1)
	serveAnalyze(h, hotQuery, src)
	const budget = 52.0
	got := testing.AllocsPerRun(200, func() {
		if rec := serveAnalyze(h, hotQuery, src); rec.Header().Get("X-Trustd-Cache") != "hit" {
			t.Fatalf("not a hit: %q", rec.Header().Get("X-Trustd-Cache"))
		}
	})
	if got > budget {
		t.Errorf("a hit allocates %.0f/request, budget %.0f", got, budget)
	}
	t.Logf("a hit allocates %.0f/request", got)
}
