package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"trustseq/internal/vlog"
)

// readAll drains a response body.
func readAll(t *testing.T, r io.Reader) []byte {
	t.Helper()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// parseRootHeader splits the "<size>:<root-hex>" anchor.
func parseRootHeader(t *testing.T, v string) (uint64, vlog.Hash) {
	t.Helper()
	var size uint64
	var hex string
	if _, err := fmt.Sscanf(v, "%d:%s", &size, &hex); err != nil {
		t.Fatalf("malformed %s %q: %v", logRootHeader, v, err)
	}
	root, err := vlog.ParseHash(hex)
	if err != nil {
		t.Fatalf("malformed root in %q: %v", v, err)
	}
	return size, root
}

// An analyze response must be immediately provable: the digest from the
// response headers resolves to a membership proof that verifies offline
// against the advertised root and the daemon's signing key.
func TestProofMembershipRoundTrip(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})
	resp, _ := postSpec(t, ts.URL+"/v1/analyze", feasibleSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d", resp.StatusCode)
	}
	digest := resp.Header.Get("X-Trustd-Digest")
	anchor := resp.Header.Get(logRootHeader)
	if digest == "" || anchor == "" {
		t.Fatalf("missing digest/log-root headers: %q, %q", digest, anchor)
	}
	size, root := parseRootHeader(t, anchor)
	if size != 1 {
		t.Fatalf("log size after one analysis: %d", size)
	}

	pr, err := http.Get(ts.URL + "/v1/proof/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Fatalf("proof fetch: %d", pr.StatusCode)
	}
	var body []byte
	body = readAll(t, pr.Body)
	e, err := vlog.ParseEnvelope(body)
	if err != nil {
		t.Fatalf("parsing served proof: %v", err)
	}
	if e.Kind != vlog.KindMembership || e.Log != analysisLogLabel {
		t.Fatalf("unexpected envelope kind/log: %q/%q", e.Kind, e.Log)
	}
	// Offline verification against the out-of-band anchors: the root
	// from the analyze response and the key from /v1/stats.
	var stats statsResponse
	sr, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.VLog.Size != 1 || stats.VLog.Appends != 1 || stats.VLog.ProofsServed != 1 {
		t.Fatalf("vlog stats: %+v", stats.VLog)
	}
	if err := e.VerifyAgainst(&root, stats.VLog.PublicKey); err != nil {
		t.Fatalf("served proof fails offline verification: %v", err)
	}
	// The served record must commit to the exact body bytes we hold.
	if e.Record == "" {
		t.Fatal("served proof carries no record")
	}

	// Corruption corpus over the served document: every mutation must be
	// rejected offline.
	for name, mutate := range map[string]func([]byte) []byte{
		"truncation": func(b []byte) []byte { return b[:len(b)-20] },
		"bit-flip": func(b []byte) []byte {
			out := append([]byte(nil), b...)
			i := strings.Index(string(out), `"root": "`) + len(`"root": "`)
			if out[i] == '0' {
				out[i] = '1'
			} else {
				out[i] = '0'
			}
			return out
		},
		"trailing garbage": func(b []byte) []byte { return append(append([]byte(nil), b...), []byte("{}")...) },
	} {
		doc := mutate(body)
		e2, err := vlog.ParseEnvelope(doc)
		if err != nil {
			continue // rejected at parse: fail-closed, good
		}
		if err := e2.VerifyAgainst(&root, stats.VLog.PublicKey); err == nil {
			t.Fatalf("corruption %q verified", name)
		}
	}

	// A cache hit serves the same body without growing the log.
	resp2, _ := postSpec(t, ts.URL+"/v1/analyze", feasibleSpec)
	if got := resp2.Header.Get("X-Trustd-Cache"); got != "hit" {
		t.Fatalf("second analyze disposition: %q", got)
	}
	size2, _ := parseRootHeader(t, resp2.Header.Get(logRootHeader))
	if size2 != 1 {
		t.Fatalf("cache hit grew the log to %d", size2)
	}
}

// Consistency proofs must verify across log growth, and a root captured
// at size m must be provably a prefix of the root at size n.
func TestProofConsistencyAcrossGrowth(t *testing.T) {
	svc, ts, _ := newTestService(t, Options{})
	// The anchor is rendered once per append; after each one it must be
	// exactly what the log itself reports.
	checkAnchor := func(resp *http.Response) {
		t.Helper()
		svc.vl.mu.Lock()
		want := fmt.Sprintf("%d:%s", svc.vl.log.Size(), svc.vl.log.Root())
		svc.vl.mu.Unlock()
		if got := svc.vl.rootHeader(); got != want {
			t.Fatalf("stored anchor %q, log reports %q", got, want)
		}
		if got := resp.Header.Get(logRootHeader); got != want {
			t.Fatalf("%s: %q, log reports %q", logRootHeader, got, want)
		}
	}
	resp1, _ := postSpec(t, ts.URL+"/v1/analyze", feasibleSpec)
	checkAnchor(resp1)
	_, oldRoot := parseRootHeader(t, resp1.Header.Get(logRootHeader))
	resp2, _ := postSpec(t, ts.URL+"/v1/analyze", infeasibleSpec)
	checkAnchor(resp2)
	n, newRoot := parseRootHeader(t, resp2.Header.Get(logRootHeader))
	if n != 2 {
		t.Fatalf("log size after two analyses: %d", n)
	}

	pr, err := http.Get(ts.URL + "/v1/proof/consistency?from=1")
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Fatalf("consistency fetch: %d: %s", pr.StatusCode, readAll(t, pr.Body))
	}
	e, err := vlog.ParseEnvelope(readAll(t, pr.Body))
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != vlog.KindConsistency || e.FromSize != 1 || e.ToSize != 2 {
		t.Fatalf("unexpected consistency envelope: %+v", e)
	}
	if err := e.VerifyAgainst(&newRoot, ""); err != nil {
		t.Fatalf("consistency proof fails: %v", err)
	}
	if got, _ := vlog.ParseHash(e.FromRoot); got != oldRoot {
		t.Fatal("consistency proof does not start from the anchored old root")
	}

	// Error taxonomy over the endpoint.
	for path, want := range map[string]int{
		"/v1/proof/":                           http.StatusBadRequest,
		"/v1/proof/zz":                         http.StatusBadRequest,
		"/v1/proof/" + strings.Repeat("0", 32): http.StatusNotFound,
		"/v1/proof/consistency":                http.StatusBadRequest, // missing from
		"/v1/proof/consistency?from=0":         http.StatusBadRequest,
		"/v1/proof/consistency?from=3":         http.StatusBadRequest, // beyond size
		"/v1/proof/consistency?from=2&to=1":    http.StatusBadRequest,
		"/v1/proof/consistency?from=1&to=99":   http.StatusBadRequest,
	} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != want {
			t.Fatalf("GET %s: got %d, want %d", path, r.StatusCode, want)
		}
	}
}

// A simulate analysis must expose the run's settlement root in the JSON
// body (and only there — the text rendering stays CLI-identical).
func TestAnalyzeSimulationSettlementRoot(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})
	resp, body := postSpec(t, ts.URL+"/v1/analyze?simulate=1", feasibleSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d: %s", resp.StatusCode, body)
	}
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Simulation == nil || res.Simulation.SettlementRoot == "" {
		t.Fatal("simulation result carries no settlement root")
	}
	if _, err := vlog.ParseHash(res.Simulation.SettlementRoot); err != nil {
		t.Fatalf("settlement root is not a hash: %v", err)
	}
}
