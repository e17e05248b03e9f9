package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"trustseq/internal/obs"
	"trustseq/internal/service"
)

// trustdOptions are the service options cmd/trustd builds from its flag
// defaults, metrics-registry telemetry included, for a single node.
func trustdOptions() service.Options {
	return service.Options{
		CacheEntries:       512,
		BaseEntries:        64,
		MaxConcurrent:      0, // GOMAXPROCS, as -concurrency 0
		RequestTimeout:     30 * time.Second,
		SweepTimeout:       2 * time.Minute,
		MaxSearchExchanges: 10,
		PetriBudget:        1 << 17,
		SearchWorkers:      1,
		Telemetry:          &obs.Telemetry{Metrics: obs.NewRegistry()},
		SlowLogMillis:      250,
		SlowLogEntries:     128,
	}
}

// server is trustd served in-process on a loopback listener, with an
// HTTP client limited to conns connections.
type server struct {
	svc    *service.Service
	url    string
	client *http.Client
	stop   context.CancelFunc
	done   chan error
}

func startServer(conns int) (*server, error) {
	svc := service.New(trustdOptions())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- service.Serve(ctx, ln, svc.Handler(), 10*time.Second) }()
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &server{
		svc:    svc,
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: tr},
		stop:   stop,
		done:   done,
	}, nil
}

// close drains the server, waits for it to return and drops the
// client's idle connections.
func (s *server) close() error {
	s.stop()
	err := <-s.done
	s.client.CloseIdleConnections()
	return err
}

// request is one prepared /v1/analyze call.
type request struct {
	query string // including the leading "?"
	body  []byte
	base  string // X-Trustd-Base, when the request is an edit
}

// reply is what the benchmark keeps of a response.
type reply struct {
	status      int
	cache       string
	incremental string
	digest      string
	timing      string
	body        []byte
}

// analyze posts r to /v1/analyze and reads the whole response.
func (s *server) analyze(r *request) (*reply, error) {
	req, err := http.NewRequest(http.MethodPost, s.url+"/v1/analyze"+r.query, bytes.NewReader(r.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "text/plain")
	if r.base != "" {
		req.Header.Set("X-Trustd-Base", r.base)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &reply{
		status:      resp.StatusCode,
		cache:       resp.Header.Get("X-Trustd-Cache"),
		incremental: resp.Header.Get("X-Trustd-Incremental"),
		digest:      resp.Header.Get("X-Trustd-Digest"),
		timing:      resp.Header.Get("Server-Timing"),
		body:        body,
	}, nil
}

// vlogAppends reads the analysis log's append counter from /v1/stats.
func (s *server) vlogAppends() (int64, error) {
	resp, err := s.client.Get(s.url + "/v1/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st struct {
		VLog struct {
			Appends int64 `json:"appends"`
		} `json:"vlog"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return st.VLog.Appends, nil
}
