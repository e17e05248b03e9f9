package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// FuzzAnalyzeBody feeds arbitrary bytes to POST /v1/analyze, raw or as
// a JSON request, through the full handler. Properties: no panic; the
// status is 200, 400 or 422 — never a 5xx; and the same body sent twice
// answers the same bytes and X-Trustd-Digest, the second time through
// the front memo whenever the first parsed.
//
//	go test -run='^$' -fuzz=FuzzAnalyzeBody -fuzztime=20s ./internal/service
func FuzzAnalyzeBody(f *testing.F) {
	files, err := filepath.Glob("../../examples/specs/*.exch")
	if err != nil || len(files) == 0 {
		f.Fatalf("no example specs: %v", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, false)
		js, _ := json.Marshal(analyzeRequest{Source: string(data), AnalyzeOptions: AnalyzeOptions{Trace: true, Verify: true}})
		f.Add(js, true)
	}
	o, _ := frontTestOptions(0)
	o.PetriBudget = 1 << 12
	h := New(o).Handler()
	f.Fuzz(func(t *testing.T, body []byte, asJSON bool) {
		send := func() *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body))
			if asJSON {
				req.Header.Set("Content-Type", "application/json")
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec
		}
		first, second := send(), send()
		switch first.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("status %d: %s", first.Code, first.Body)
		}
		if second.Code != first.Code || !bytes.Equal(second.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("repeat answered differently:\n%d %s\n%d %s", first.Code, first.Body, second.Code, second.Body)
		}
		if d1, d2 := first.Header().Get("X-Trustd-Digest"), second.Header().Get("X-Trustd-Digest"); d1 != d2 {
			t.Fatalf("repeat digest %q, first %q", d2, d1)
		}
	})
}
