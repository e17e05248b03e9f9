package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"trustseq/internal/cluster"
	"trustseq/internal/model"
	"trustseq/internal/obs"
)

// clusterTestNode is one trustd-shaped process: a gossip node and a
// Service sharing one loopback listener, exactly as cmd/trustd wires
// them.
type clusterTestNode struct {
	svc  *Service
	node *cluster.Node
	srv  *http.Server
	addr string
}

func startClusterNode(t *testing.T, opts Options) *clusterTestNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node, err := cluster.NewNode(cluster.Config{Self: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	opts.Cluster = node
	if opts.Telemetry == nil {
		opts.Telemetry = &obs.Telemetry{Metrics: obs.NewRegistry()}
	}
	svc := New(opts)
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	tn := &clusterTestNode{svc: svc, node: node, srv: srv, addr: ln.Addr().String()}
	t.Cleanup(func() { srv.Close() })
	return tn
}

// formCluster joins the nodes through explicit sync rounds (no timers,
// so the tests stay deterministic) and asserts ring agreement.
func formCluster(t *testing.T, nodes ...*clusterTestNode) {
	t.Helper()
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		for _, n := range nodes[1:] {
			if err := n.node.Sync(ctx, nodes[0].addr); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := nodes[0].node.Ring().Version()
	for _, n := range nodes[1:] {
		if got := n.node.Ring().Version(); got != want {
			t.Fatalf("ring versions diverge: %x vs %x", got, want)
		}
	}
}

// syncAll runs one more full round, e.g. to spread fill announcements.
func syncAll(t *testing.T, nodes ...*clusterTestNode) {
	t.Helper()
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		for _, n := range nodes[1:] {
			if err := n.node.Sync(ctx, nodes[0].addr); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func postAnalyze(t *testing.T, addr, src string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/analyze", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestClusterAnalyzeRouting: on a converged 3-node ring exactly one
// node owns the problem digest; requests landing anywhere return the
// same body, with X-Trustd-Cluster distinguishing the owner from the
// proxies.
func TestClusterAnalyzeRouting(t *testing.T) {
	a := startClusterNode(t, Options{})
	b := startClusterNode(t, Options{})
	c := startClusterNode(t, Options{})
	formCluster(t, a, b, c)
	nodes := []*clusterTestNode{a, b, c}

	var owners, proxied int
	var ownerAddr string
	var bodies [][]byte
	for _, n := range nodes {
		resp, body := postAnalyze(t, n.addr, feasibleSpec, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("node %s: status %d: %s", n.addr, resp.StatusCode, body)
		}
		bodies = append(bodies, body)
		switch cl := resp.Header.Get("X-Trustd-Cluster"); cl {
		case "owner":
			owners++
			ownerAddr = n.addr
		case "proxied":
			proxied++
			if resp.Header.Get("X-Trustd-Cluster-Owner") == "" {
				t.Fatal("proxied response without X-Trustd-Cluster-Owner")
			}
		default:
			t.Fatalf("node %s: X-Trustd-Cluster = %q", n.addr, cl)
		}
	}
	if owners != 1 || proxied != 2 {
		t.Fatalf("owners = %d, proxied = %d; want 1 and 2", owners, proxied)
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("node %d body differs from node 0", i)
		}
	}
	// Every proxied request filled exactly one cache: the owner's.
	for _, n := range nodes {
		want := 0
		if n.addr == ownerAddr {
			want = 1
		}
		if got := n.svc.CacheLen(); got != want {
			t.Fatalf("node %s cache holds %d entries, want %d", n.addr, got, want)
		}
	}
	// Second request through a proxy replays the owner's cache.
	for _, n := range nodes {
		if n.addr == ownerAddr {
			continue
		}
		resp, _ := postAnalyze(t, n.addr, feasibleSpec, nil)
		if got := resp.Header.Get("X-Trustd-Cache"); got != "hit" {
			t.Fatalf("re-request through proxy: X-Trustd-Cache = %q, want hit", got)
		}
		break
	}
}

// TestClusterHopGuardNoLoop: a request that already carries the
// forwarded marker is served where it lands — even by a node that is
// certain someone else owns it — so divergent rings can never bounce a
// request between nodes.
func TestClusterHopGuardNoLoop(t *testing.T) {
	a := startClusterNode(t, Options{})
	b := startClusterNode(t, Options{})
	formCluster(t, a, b)

	// Find a node that does NOT own the spec's digest.
	p := mustLoad(t, feasibleSpec)
	owner, ok := a.node.Owner(ProblemDigest(p))
	if !ok {
		t.Fatal("no owner on a 2-node ring")
	}
	nonOwner := a
	if owner == a.addr {
		nonOwner = b
	}
	resp, body := postAnalyze(t, nonOwner.addr, feasibleSpec,
		map[string]string{"X-Trustd-Forwarded": "test-injector"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Trustd-Cluster"); got != "local" {
		t.Fatalf("X-Trustd-Cluster = %q, want local (hop guard)", got)
	}
	// The non-owner computed and cached it locally: one hop, no proxy.
	if got := nonOwner.svc.CacheLen(); got != 1 {
		t.Fatalf("non-owner cache holds %d entries, want 1", got)
	}
}

// TestClusterProxyForwardsGeneratedRequestID: when the client sends no
// request ID, the front node generates one, and the proxied hop must
// carry that same ID, so the owner files its half of the request under
// it rather than under a second, unrelated ID.
func TestClusterProxyForwardsGeneratedRequestID(t *testing.T) {
	a := startClusterNode(t, Options{})
	b := startClusterNode(t, Options{})
	formCluster(t, a, b)

	p := mustLoad(t, feasibleSpec)
	ownerAddr, ok := a.node.Owner(ProblemDigest(p))
	if !ok {
		t.Fatal("no owner on a 2-node ring")
	}
	front, owner := a, b
	if ownerAddr == a.addr {
		front, owner = b, a
	}
	resp, body := postAnalyze(t, front.addr, feasibleSpec, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Trustd-Cluster"); got != "proxied" {
		t.Fatalf("X-Trustd-Cluster = %q, want proxied", got)
	}
	id := resp.Header.Get(requestIDHeader)
	if id == "" {
		t.Fatal("front node assigned no request ID")
	}
	// The owner records its request once its handler returns, which can
	// trail the relayed response by a moment.
	deadline := time.Now().Add(2 * time.Second)
	for {
		var ids []string
		for _, rec := range owner.svc.reqlog.recentList() {
			if rec.Endpoint == "analyze" {
				ids = append(ids, rec.ID)
			}
		}
		if len(ids) == 1 && ids[0] == id {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("owner recorded analyze requests %q, want exactly the front's ID %q", ids, id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterPeerFill: a node that must compute a key it does not have
// (hop-guarded arrival) first consults the gossip fill hints and
// fetches the owner's rendered bodies instead of running engines —
// X-Trustd-Cache: peer.
func TestClusterPeerFill(t *testing.T) {
	a := startClusterNode(t, Options{})
	b := startClusterNode(t, Options{})
	formCluster(t, a, b)

	p := mustLoad(t, feasibleSpec)
	owner, _ := a.node.Owner(ProblemDigest(p))
	ownerNode, otherNode := a, b
	if owner == b.addr {
		ownerNode, otherNode = b, a
	}

	// Fill the owner's cache, then gossip the fill announcement out.
	resp, body := postAnalyze(t, ownerNode.addr, feasibleSpec, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner analyze: status %d: %s", resp.StatusCode, body)
	}
	ownerBody := body
	syncAll(t, a, b)

	// A hop-guarded request forces the non-owner to serve locally; its
	// miss should resolve via the peer fetch, byte-identically.
	resp, body = postAnalyze(t, otherNode.addr, feasibleSpec,
		map[string]string{"X-Trustd-Forwarded": "test-injector"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peer-fill analyze: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Trustd-Cache"); got != "peer" {
		t.Fatalf("X-Trustd-Cache = %q, want peer", got)
	}
	if !bytes.Equal(body, ownerBody) {
		t.Fatal("peer-fetched body differs from the owner's")
	}
	if got := otherNode.svc.clusterPeerFills.Value(); got != 1 {
		t.Fatalf("peer_fills = %d, want 1", got)
	}
}

// TestClusterFetchGone: a stale hint (the holder evicted the entry)
// degrades to an engine run and drops the hint.
func TestClusterFetchGone(t *testing.T) {
	a := startClusterNode(t, Options{})
	b := startClusterNode(t, Options{})
	formCluster(t, a, b)

	p := mustLoad(t, feasibleSpec)
	key := FormatDigest(optionsKeyFor(p))
	// Plant a hint at b claiming a holds the result, without filling a.
	a.node.AnnounceFill(cluster.FillResult, key)
	syncAll(t, a, b)

	resp, body := postAnalyze(t, b.addr, feasibleSpec,
		map[string]string{"X-Trustd-Forwarded": "test-injector"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	// The fetch 404s (a's cache is empty), so the engines ran: a plain
	// miss, not a peer fill, and the bad hint is gone.
	if got := resp.Header.Get("X-Trustd-Cache"); got != "miss" {
		t.Fatalf("X-Trustd-Cache = %q, want miss", got)
	}
	if _, ok := b.node.FillHolder(cluster.FillResult, key); ok {
		t.Fatal("stale hint survived the failed fetch")
	}
}

// optionsKeyFor computes the request key for default options, mirroring
// the analyze path's fingerprinting.
func optionsKeyFor(p *model.Problem) [2]uint64 {
	p.Compile()
	h := newFP()
	problemFingerprint(&h, p)
	return optionsKey(h, AnalyzeOptions{})
}

// TestClusterDistributedSweepByteIdentical is the tentpole property at
// the HTTP layer: a sweep distributed over three nodes answers
// byte-identically (elapsed_ms aside) to the same sweep on a
// single-node, cluster-free service.
func TestClusterDistributedSweepByteIdentical(t *testing.T) {
	a := startClusterNode(t, Options{})
	b := startClusterNode(t, Options{})
	c := startClusterNode(t, Options{})
	formCluster(t, a, b, c)

	singleSrv := httptest.NewServer(New(Options{}).Handler())
	t.Cleanup(singleSrv.Close)

	const sweepBody = `{"n": 24, "seed": 11, "chaos_runs": 1}`
	post := func(url string) (*http.Response, map[string]any, []byte) {
		resp, err := http.Post(url, "application/json", strings.NewReader(sweepBody))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
		return resp, m, raw
	}

	resp, distributed, _ := post("http://" + a.addr + "/v1/sweep")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("distributed sweep: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trustd-Cluster"); got != "distributed" {
		t.Fatalf("X-Trustd-Cluster = %q, want distributed", got)
	}
	if got := resp.Header.Get("X-Trustd-Cluster-Sweep"); got != "3" {
		t.Fatalf("X-Trustd-Cluster-Sweep = %q, want 3 partitions", got)
	}
	_, local, _ := post(singleSrv.URL + "/v1/sweep")

	// Everything but wall-clock must agree exactly.
	delete(distributed, "elapsed_ms")
	delete(local, "elapsed_ms")
	dj, _ := json.Marshal(distributed)
	lj, _ := json.Marshal(local)
	if !bytes.Equal(dj, lj) {
		t.Fatalf("distributed and single-node sweeps differ:\n distributed: %s\n      single: %s", dj, lj)
	}
	if v, _ := distributed["completed"].(float64); int(v) != 24 {
		t.Fatalf("completed = %v, want 24", distributed["completed"])
	}
}

// TestClusterSweepSurvivesDeadMember: when a member dies between ring
// convergence and the sweep, its range is re-run locally — the sweep
// still completes with the full, correct answer.
func TestClusterSweepSurvivesDeadMember(t *testing.T) {
	a := startClusterNode(t, Options{})
	b := startClusterNode(t, Options{})
	formCluster(t, a, b)
	b.srv.Close() // dead, but still on a's ring

	resp, err := http.Post("http://"+a.addr+"/v1/sweep", "application/json",
		strings.NewReader(`{"n": 10, "seed": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var m struct {
		Completed int  `json:"completed"`
		Canceled  bool `json:"canceled"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Completed != 10 || m.Canceled {
		t.Fatalf("completed = %d canceled = %v, want 10 and false", m.Completed, m.Canceled)
	}
	if got := a.svc.clusterSweepFallback.Value(); got != 1 {
		t.Fatalf("sweep_range_fallbacks = %d, want 1", got)
	}
}

// TestClusterSingleMemberServesEverythingAsOwner: a one-node cluster
// degenerates cleanly — every request is owned locally, sweeps run
// undistributed, and /v1/stats grows the cluster block.
func TestClusterSingleMemberServesEverythingAsOwner(t *testing.T) {
	a := startClusterNode(t, Options{})
	resp, body := postAnalyze(t, a.addr, feasibleSpec, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Trustd-Cluster"); got != "owner" {
		t.Fatalf("X-Trustd-Cluster = %q, want owner", got)
	}
	sresp, err := http.Post("http://"+a.addr+"/v1/sweep", "application/json",
		strings.NewReader(`{"n": 4, "seed": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, sresp.Body)
	sresp.Body.Close()
	if got := sresp.Header.Get("X-Trustd-Cluster"); got != "" {
		t.Fatalf("single-member sweep set X-Trustd-Cluster = %q, want unset", got)
	}

	stats, err := http.Get("http://" + a.addr + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sr struct {
		Cluster *struct {
			RingMembers  int   `json:"ring_members"`
			AnalyzeOwner int64 `json:"analyze_owner"`
		} `json:"cluster"`
	}
	if err := json.NewDecoder(stats.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	stats.Body.Close()
	if sr.Cluster == nil {
		t.Fatal("/v1/stats has no cluster block in cluster mode")
	}
	if sr.Cluster.RingMembers != 1 || sr.Cluster.AnalyzeOwner != 1 {
		t.Fatalf("cluster stats = %+v, want 1 ring member and 1 owned analyze", sr.Cluster)
	}
}

// TestClusterEvictionAnnouncesInvalidation: when the owner's cache
// evicts an entry, peers that held a hint for it stop offering it.
func TestClusterEvictionAnnouncesInvalidation(t *testing.T) {
	// CacheEntries: 1 — the second distinct problem evicts the first.
	a := startClusterNode(t, Options{CacheEntries: 1})
	b := startClusterNode(t, Options{CacheEntries: 1})
	formCluster(t, a, b)

	resp, body := postAnalyze(t, a.addr, feasibleSpec,
		map[string]string{"X-Trustd-Forwarded": "test-injector"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first analyze: status %d: %s", resp.StatusCode, body)
	}
	key := FormatDigest(optionsKeyFor(mustLoad(t, feasibleSpec)))
	syncAll(t, a, b)
	if holder, ok := b.node.FillHolder(cluster.FillResult, key); !ok || holder != a.addr {
		t.Fatalf("b's hint = %q, %v; want %q", holder, ok, a.addr)
	}

	// A second problem through a's cache evicts the first fill.
	resp, body = postAnalyze(t, a.addr, infeasibleSpec,
		map[string]string{"X-Trustd-Forwarded": "test-injector"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second analyze: status %d: %s", resp.StatusCode, body)
	}
	syncAll(t, a, b)
	if _, ok := b.node.FillHolder(cluster.FillResult, key); ok {
		t.Fatal("hint survived the eviction announcement")
	}
}
