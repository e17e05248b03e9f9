package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"trustseq/internal/dsl"
	"trustseq/internal/gen"
	"trustseq/internal/obs"
)

// The front memo must be invisible in every answer: a request served
// from it (no parse, no compile) answers byte for byte what a fresh
// service answers for the same request.

// frontOptSets are the option sets the equivalence tests cover: the
// default, analyze-hot's, and one that runs indemnity, the cross-check
// and the simulator.
var frontOptSets = []AnalyzeOptions{
	{},
	{Trace: true, Verify: true},
	{Indemnify: true, CrossCheck: true, Simulate: true, SimSeed: 7},
}

// frontTestOptions keeps the cross-check cheap: the exhaustive search
// runs only on the smallest problems.
func frontTestOptions(cacheEntries int) (Options, *obs.Registry) {
	reg := obs.NewRegistry()
	return Options{
		CacheEntries:       cacheEntries,
		MaxSearchExchanges: 4,
		Telemetry:          &obs.Telemetry{Metrics: reg},
	}, reg
}

type frontInput struct {
	name, src string
}

// frontInputs is every examples/specs file plus 50 generated problems,
// printed as DSL.
func frontInputs(t testing.TB) []frontInput {
	t.Helper()
	files, err := filepath.Glob("../../examples/specs/*.exch")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example specs: %v", err)
	}
	var ins []frontInput
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, frontInput{filepath.Base(f), string(data)})
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 50; i++ {
		p := gen.Random(rng, gen.Options{
			Consumers: 1 + i%2, Brokers: 2, Producers: 2, MaxPrice: 1000,
			PoorBroker: i%5 == 0, DirectTrustProb: 0.3,
		})
		src, err := dsl.Print(p)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, frontInput{fmt.Sprintf("random-%d", i), src})
	}
	return ins
}

// frontRequest builds one /v1/analyze request. The raw form carries the
// options as query parameters, the JSON form in the body.
func frontRequest(src string, asJSON, text bool, opts AnalyzeOptions) *http.Request {
	q := url.Values{}
	body := []byte(src)
	ct := "text/plain"
	if asJSON {
		body, _ = json.Marshal(analyzeRequest{Source: src, AnalyzeOptions: opts})
		ct = "application/json"
	} else {
		for name, on := range map[string]bool{
			"seq": opts.Trace, "indemnify": opts.Indemnify, "verify": opts.Verify,
			"crosscheck": opts.CrossCheck, "simulate": opts.Simulate,
		} {
			if on {
				q.Set(name, "1")
			}
		}
		if opts.SimSeed != 0 {
			q.Set("seed", strconv.FormatInt(opts.SimSeed, 10))
		}
	}
	if text {
		q.Set("format", "text")
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze?"+q.Encode(), bytes.NewReader(body))
	req.Header.Set("Content-Type", ct)
	return req
}

// frontAnswer is what the equivalence tests compare of a response.
type frontAnswer struct {
	status              int
	body                string
	digest, root, cache string
	timing              string
}

func frontDo(h http.Handler, req *http.Request) frontAnswer {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return frontAnswer{
		status: rec.Code,
		body:   rec.Body.String(),
		digest: rec.Header().Get("X-Trustd-Digest"),
		root:   rec.Header().Get(logRootHeader),
		cache:  rec.Header().Get("X-Trustd-Cache"),
		timing: rec.Header().Get("Server-Timing"),
	}
}

// frontLen reports the number of front-memo entries.
func (s *Service) frontLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fronts.len()
}

// TestFrontMemoEquivalence: for every input, form, rendering and option
// set, the cold answer of a fresh service and the warm memo-hit answer
// agree in body, X-Trustd-Digest and X-Trustd-Log-Root. One long-lived
// service per input additionally serves every combination in turn, so
// later option sets hit the memo but miss the result cache and load the
// source lazily; those answers must match the cold bodies too.
func TestFrontMemoEquivalence(t *testing.T) {
	ins := frontInputs(t)
	lazyLoads := 0
	for _, in := range ins {
		sopts, sreg := frontTestOptions(0)
		shared := New(sopts).Handler()
		for oi, opts := range frontOptSets {
			for _, asJSON := range []bool{false, true} {
				for _, text := range []bool{false, true} {
					name := fmt.Sprintf("%s/opts%d/json=%v/text=%v", in.name, oi, asJSON, text)
					o, reg := frontTestOptions(0)
					h := New(o).Handler()
					cold := frontDo(h, frontRequest(in.src, asJSON, text, opts))
					warm := frontDo(h, frontRequest(in.src, asJSON, text, opts))
					if cold.status != http.StatusOK {
						t.Fatalf("%s: cold status %d: %s", name, cold.status, cold.body)
					}
					if cold.cache != "miss" || warm.cache != "hit" {
						t.Fatalf("%s: dispositions %q then %q, want miss then hit", name, cold.cache, warm.cache)
					}
					if got := reg.Counter("service.front.hits").Value(); got != 1 {
						t.Fatalf("%s: %d front-memo hits, want 1", name, got)
					}
					if warm.body != cold.body || warm.digest != cold.digest || warm.root != cold.root {
						t.Fatalf("%s: warm answer differs from cold:\ncold %s %s\n%s\nwarm %s %s\n%s",
							name, cold.digest, cold.root, cold.body, warm.digest, warm.root, warm.body)
					}
					got := frontDo(shared, frontRequest(in.src, asJSON, text, opts))
					if got.status != http.StatusOK || got.body != cold.body || got.digest != cold.digest {
						t.Fatalf("%s: long-lived service answers %d %s\n%s\nwant %s\n%s",
							name, got.status, got.digest, got.body, cold.digest, cold.body)
					}
					if strings.Contains(got.timing, "load;dur=") {
						lazyLoads++
					}
				}
			}
		}
		if got := sreg.Counter("service.front.misses").Value(); got != 1 {
			t.Fatalf("%s: long-lived service parsed the source %d times, want once", in.name, got)
		}
	}
	// Each input's later option sets miss the result cache on a memo hit.
	if want := len(ins) * (len(frontOptSets) - 1); lazyLoads != want {
		t.Fatalf("%d lazy loads, want %d", lazyLoads, want)
	}
}

// A reformatted source is a different memo key but the same compiled
// problem: it gets its own memo entry and shares the result slot.
func TestFrontMemoReformattedSourceSharesResult(t *testing.T) {
	o, _ := frontTestOptions(0)
	svc := New(o)
	h := svc.Handler()
	printed, err := dsl.Print(mustLoad(t, feasibleSpec))
	if err != nil {
		t.Fatal(err)
	}
	srcs := []string{feasibleSpec, printed, "\n\n" + strings.ReplaceAll(feasibleSpec, " ", "  ") + "\n"}
	var first frontAnswer
	for i, src := range srcs {
		got := frontDo(h, frontRequest(src, false, true, AnalyzeOptions{}))
		want := "hit"
		if i == 0 {
			first, want = got, "miss"
		}
		if got.cache != want {
			t.Fatalf("source %d: X-Trustd-Cache %q, want %q", i, got.cache, want)
		}
		if got.body != first.body || got.digest != first.digest || got.root != first.root {
			t.Fatalf("source %d: answer differs from the original source's", i)
		}
		if n := svc.frontLen(); n != i+1 {
			t.Fatalf("after source %d the memo holds %d entries, want %d", i, n, i+1)
		}
	}
	if n := svc.CacheLen(); n != 1 {
		t.Fatalf("result cache holds %d entries, want 1", n)
	}
}

// When the result entry is evicted while its memo entry stays resident,
// the next request is a miss that loads the source and answers the cold
// bytes.
func TestFrontMemoResultEvicted(t *testing.T) {
	o, reg := frontTestOptions(1)
	svc := New(o)
	h := svc.Handler()
	co, _ := frontTestOptions(0)
	cold := frontDo(New(co).Handler(), frontRequest(feasibleSpec, false, false, AnalyzeOptions{}))

	frontDo(h, frontRequest(feasibleSpec, false, false, AnalyzeOptions{}))
	// Another option set: a memo hit whose result evicts the first one.
	other := frontDo(h, frontRequest(feasibleSpec, false, false, AnalyzeOptions{Trace: true}))
	if other.cache != "miss" || reg.Counter("service.cache.evictions").Value() != 1 {
		t.Fatalf("second option set: %q, %d evictions", other.cache, reg.Counter("service.cache.evictions").Value())
	}
	got := frontDo(h, frontRequest(feasibleSpec, false, false, AnalyzeOptions{}))
	if got.cache != "miss" {
		t.Fatalf("evicted result: X-Trustd-Cache %q, want miss", got.cache)
	}
	if got.body != cold.body || got.digest != cold.digest {
		t.Fatalf("evicted result reanalyzed differently:\n%s\nwant\n%s", got.body, cold.body)
	}
	if hits, misses := reg.Counter("service.front.hits").Value(), reg.Counter("service.front.misses").Value(); hits != 2 || misses != 1 {
		t.Fatalf("front memo: %d hits, %d misses; want 2 and 1", hits, misses)
	}
	if !strings.Contains(got.timing, "load;dur=") {
		t.Fatalf("lazy load not recorded in Server-Timing: %q", got.timing)
	}
}

// A malformed body answers 400 every time, identically, and never
// enters the memo.
func TestFrontMemoMalformedBody(t *testing.T) {
	o, _ := frontTestOptions(0)
	svc := New(o)
	h := svc.Handler()
	bodies := []struct {
		body   string
		asJSON bool
	}{
		{"problem broken {", false},
		{"", false},
		{`{"source": "problem x {"}`, true},
		{`{"source": ""}`, true},
		{`{"source": 7}`, true},
	}
	for _, b := range bodies {
		var first frontAnswer
		for i := 0; i < 3; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(b.body))
			if b.asJSON {
				req.Header.Set("Content-Type", "application/json")
			}
			got := frontDo(h, req)
			if got.status != http.StatusBadRequest {
				t.Fatalf("%q: status %d, want 400", b.body, got.status)
			}
			if i == 0 {
				first = got
			} else if got.body != first.body {
				t.Fatalf("%q: error body changed: %s vs %s", b.body, got.body, first.body)
			}
		}
	}
	if n := svc.frontLen(); n != 0 {
		t.Fatalf("malformed bodies left %d memo entries", n)
	}
}

// A malformed X-Trustd-Base still answers 400 when the source is a memo
// hit.
func TestFrontMemoMalformedBaseOnHit(t *testing.T) {
	o, reg := frontTestOptions(0)
	h := New(o).Handler()
	frontDo(h, frontRequest(feasibleSpec, false, false, AnalyzeOptions{}))
	req := frontRequest(feasibleSpec, false, false, AnalyzeOptions{})
	req.Header.Set("X-Trustd-Base", "not-a-digest")
	got := frontDo(h, req)
	if got.status != http.StatusBadRequest || !strings.Contains(got.body, "X-Trustd-Base") {
		t.Fatalf("malformed base on a memo hit: %d %s", got.status, got.body)
	}
	if reg.Counter("service.front.hits").Value() != 1 {
		t.Fatal("the second request did not hit the memo")
	}
}

// The memo never holds more than CacheEntries entries.
func TestFrontMemoBounded(t *testing.T) {
	const entries = 4
	o, _ := frontTestOptions(entries)
	svc := New(o)
	h := svc.Handler()
	for i := 0; i < 3*entries; i++ {
		got := frontDo(h, frontRequest(fmt.Sprintf("%s// variant %d\n", feasibleSpec, i), false, false, AnalyzeOptions{}))
		if got.status != http.StatusOK {
			t.Fatalf("variant %d: status %d", i, got.status)
		}
		if n := svc.frontLen(); n > entries {
			t.Fatalf("after %d sources the memo holds %d entries, bound %d", i+1, n, entries)
		}
	}
	if n := svc.frontLen(); n != entries {
		t.Fatalf("memo holds %d entries, want %d", n, entries)
	}
}

// A body without a declared length is read to the end like any other.
func TestFrontMemoUnknownLength(t *testing.T) {
	o, _ := frontTestOptions(0)
	h := New(o).Handler()
	want := frontDo(h, frontRequest(feasibleSpec, false, true, AnalyzeOptions{}))
	req := frontRequest(feasibleSpec, false, true, AnalyzeOptions{})
	req.ContentLength = -1
	got := frontDo(h, req)
	if got.status != http.StatusOK || got.body != want.body || got.cache != "hit" {
		t.Fatalf("unknown-length body: %d %q\n%s", got.status, got.cache, got.body)
	}
}

// A node that does not own the digest proxies a memo hit without
// parsing, and relays the owner's answer.
func TestClusterProxiesFromFrontMemo(t *testing.T) {
	a := startClusterNode(t, Options{})
	b := startClusterNode(t, Options{})
	formCluster(t, a, b)
	owner, ok := a.node.Owner(ProblemDigest(mustLoad(t, feasibleSpec)))
	if !ok {
		t.Fatal("no owner")
	}
	proxy := a
	if owner == a.addr {
		proxy = b
	}
	reg := proxy.svc.opts.Telemetry.Reg()
	for i, want := range []string{"miss", "hit"} {
		resp, body := postAnalyze(t, proxy.addr, feasibleSpec, nil)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Trustd-Cluster") != "proxied" {
			t.Fatalf("request %d: %d, X-Trustd-Cluster %q: %s", i, resp.StatusCode, resp.Header.Get("X-Trustd-Cluster"), body)
		}
		if got := resp.Header.Get("X-Trustd-Cache"); got != want {
			t.Fatalf("request %d: X-Trustd-Cache %q, want %q", i, got, want)
		}
	}
	if hits, misses := reg.Counter("service.front.hits").Value(), reg.Counter("service.front.misses").Value(); hits != 1 || misses != 1 {
		t.Fatalf("proxy front memo: %d hits, %d misses; want 1 and 1", hits, misses)
	}
}

// Concurrent requests over more sources than the memo holds: memo hits,
// misses, evictions, lazy loads and coalesced runs interleave, and every
// answer still matches the cold one.
func TestFrontMemoConcurrent(t *testing.T) {
	ins := frontInputs(t)[:6]
	type reqSpec struct {
		src  string
		opts AnalyzeOptions
	}
	var reqs []reqSpec
	want := map[reqSpec]frontAnswer{}
	for _, in := range ins {
		for _, opts := range frontOptSets[:2] {
			r := reqSpec{in.src, opts}
			reqs = append(reqs, r)
			o, _ := frontTestOptions(0)
			want[r] = frontDo(New(o).Handler(), frontRequest(r.src, false, false, r.opts))
		}
	}
	o, _ := frontTestOptions(3)
	svc := New(o)
	h := svc.Handler()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				r := reqs[(g*7+i*5)%len(reqs)]
				got := frontDo(h, frontRequest(r.src, false, false, r.opts))
				if w := want[r]; got.status != w.status || got.body != w.body || got.digest != w.digest {
					t.Errorf("goroutine %d request %d: %d %s, want %d %s", g, i, got.status, got.digest, w.status, w.digest)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := svc.frontLen(); n > 3 {
		t.Fatalf("memo holds %d entries, bound 3", n)
	}
}
