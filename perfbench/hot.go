package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"trustseq/internal/core"
	"trustseq/internal/dsl"
	"trustseq/internal/gen"
	"trustseq/internal/model"
	"trustseq/internal/service"
)

// hotInputs is the analyze-hot working set: small enough that every
// input stays resident in the 512-entry result cache.
const hotInputs = 64

const (
	// hotWindow is the window the end-to-end figures are medians over.
	hotWindow = time.Second
	// hotWarmup is the unmeasured closed-loop traffic before the clock
	// starts.
	hotWarmup = 2 * time.Second
)

// hotOptions is the analysis every analyze-hot request asks for; odd
// inputs additionally ask for the text rendering.
var hotOptions = service.AnalyzeOptions{Trace: true, Verify: true}

type hotInput struct {
	src  string
	req  request
	text bool
	plan *core.Plan // in-process analysis of the input
	want []byte     // the verified response body every hit must repeat
}

type hotState struct {
	srv    *server
	inputs []hotInput
	order  []int // seeded request sequence over the inputs
}

// genDistinct draws problems from next until n have distinct digests,
// returning each as printed DSL source plus the problem the service
// will parse from it. keep filters candidates (nil keeps all).
func genDistinct(n int, next func() *model.Problem, keep func(*core.Plan) bool) ([]string, []*core.Plan, error) {
	seen := make(map[[2]uint64]bool, n)
	var srcs []string
	var plans []*core.Plan
	for tries := 0; len(srcs) < n; tries++ {
		if tries > 100*n+1000 {
			return nil, nil, fmt.Errorf("generated only %d of %d distinct inputs", len(srcs), n)
		}
		src, err := dsl.Print(next())
		if err != nil {
			return nil, nil, err
		}
		p, err := dsl.Load(src)
		if err != nil {
			return nil, nil, fmt.Errorf("printed problem does not parse: %w", err)
		}
		d := service.ProblemDigest(p)
		if seen[d] {
			continue
		}
		plan, err := core.Synthesize(p)
		if err != nil {
			return nil, nil, err
		}
		if keep != nil && !keep(plan) {
			continue
		}
		seen[d] = true
		srcs = append(srcs, src)
		plans = append(plans, plan)
	}
	return srcs, plans, nil
}

// inThirds returns a genDistinct filter that admits problems until each
// size gen.Random draws for one consumer — 4, 8 or 12 exchanges — holds
// a third of n, so every seed gets the same mix of sizes.
func inThirds(n int) func(*core.Plan) bool {
	left := map[int]int{4: n / 3, 8: n / 3, 12: n - 2*(n/3)}
	return func(pl *core.Plan) bool {
		k := len(pl.Problem.Exchanges)
		if left[k] == 0 {
			return false
		}
		left[k]--
		return true
	}
}

// setupHot boots the service, generates the inputs and fills the cache:
// each input is analyzed once (a miss, checked against the in-process
// analysis) and once more (a hit, which must repeat it).
func setupHot(o options) (*hotState, error) {
	rng := rand.New(rand.NewSource(o.seed))
	srcs, plans, err := genDistinct(hotInputs, func() *model.Problem {
		return gen.Random(rng, gen.Options{Consumers: 1, Brokers: 2, Producers: 2, MaxPrice: 1000, DirectTrustProb: 0.3})
	}, inThirds(hotInputs))
	if err != nil {
		return nil, err
	}
	srv, err := startServer(o.conns)
	if err != nil {
		return nil, err
	}
	h := &hotState{srv: srv, inputs: make([]hotInput, hotInputs)}
	for i := range h.inputs {
		in := &h.inputs[i]
		in.src, in.plan, in.text = srcs[i], plans[i], i%2 == 1
		in.req = request{query: "?seq=1&verify=1", body: []byte(srcs[i])}
		if in.text {
			in.req.query += "&format=text"
		}
		rep, err := srv.analyze(&in.req)
		if err != nil {
			srv.close()
			return nil, err
		}
		if rep.status != 200 || rep.cache != "miss" {
			srv.close()
			return nil, fmt.Errorf("warm-up: input %d: status %d, cache %q", i, rep.status, rep.cache)
		}
		if err := checkAnalysis(rep.body, in.plan, in.text); err != nil {
			srv.close()
			return nil, fmt.Errorf("warm-up: input %d: %w", i, err)
		}
		in.want = rep.body
	}
	for i := range h.inputs {
		rep, err := srv.analyze(&h.inputs[i].req)
		if err == nil {
			err = checkHit(rep, h.inputs[i].want)
		}
		if err != nil {
			srv.close()
			return nil, fmt.Errorf("warm-up hit: input %d: %w", i, err)
		}
	}
	h.order = make([]int, 1<<16)
	for i := range h.order {
		h.order[i] = rng.Intn(hotInputs)
	}
	return h, nil
}

// checkAnalysis compares a response body with the in-process analysis
// of the same input: byte for byte against service.RenderText for the
// text rendering, verdict and sequence for JSON.
func checkAnalysis(body []byte, plan *core.Plan, text bool) error {
	if !text {
		_, err := checkVerdict(body, verdictOf(plan))
		return err
	}
	want, err := service.RenderText(plan, service.RenderOptions{Trace: hotOptions.Trace, Verify: hotOptions.Verify})
	if err != nil {
		return err
	}
	if string(body) != want {
		return fmt.Errorf("text body differs from service.RenderText")
	}
	return nil
}

func runHot(o options) (*result, error) {
	h, setupS, setups, err := setupMedian(o.setups, func() (*hotState, error) { return setupHot(o) },
		func(h *hotState) { h.srv.close() })
	if err != nil {
		return nil, err
	}
	defer h.srv.close()
	res := &result{
		shape:  fmt.Sprintf("closed loop, %d connections, %d resident inputs", o.conns, hotInputs),
		setupS: setupS, setups: setups,
	}
	untraced, traced := phaseLengths(o)
	var cursor atomic.Int64
	// Unmeasured traffic first, so the connections, the server's
	// buffers and the garbage collector's pacing reach their steady
	// state before the clock starts.
	h.measure(o, hotWarmup, false, &cursor)
	res.main = h.measure(o, untraced, false, &cursor)
	if o.trace {
		res.traced = h.measure(o, traced, true, &cursor)
	}
	return res, nil
}

// measure runs the closed loop for d: each connection sends its next
// request as soon as the previous answer is read and checked.
func (h *hotState) measure(o options, d time.Duration, traced bool, cursor *atomic.Int64) *phase {
	ph := &phase{samples: map[string]int{}}
	workers := make([]*phase, o.conns)
	hists := make([][]*hist, o.conns) // per worker, per window
	origin := time.Now()
	ph.rt0, ph.cpu = readRuntime(), cpuTime()
	marker := startCPUMarker(origin, hotWindow)
	deadline := origin.Add(d)
	var wg sync.WaitGroup
	for w := range workers {
		wp := &phase{}
		workers[w] = wp
		var rec *recorder
		if traced {
			rec = newRecorder(origin, w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				n := cursor.Add(1)
				in := &h.inputs[h.order[int(n)%len(h.order)]]
				if lat, ok := h.one(wp, rec, n, in); ok {
					win := int(time.Since(origin) / hotWindow)
					for len(hists[w]) <= win {
						hists[w] = append(hists[w], new(hist))
					}
					hists[w][win].record(lat)
				}
			}
			if rec != nil {
				wp.spans = rec.spans
			}
		}()
	}
	wg.Wait()
	marks := marker.stop()
	ph.cpu = cpuTime() - ph.cpu
	ph.rt1 = readRuntime()
	var merged []*hist
	for w, wp := range workers {
		ph.merge(wp)
		for i, hw := range hists[w] {
			if i == len(merged) {
				merged = append(merged, new(hist))
			}
			for b, c := range hw.counts {
				merged[i].counts[b] += c
			}
			merged[i].n += hw.n
			ph.items += float64(hw.n)
		}
	}
	ph.slices, ph.latWindows = histWindows(merged, marks)
	ph.layers = map[string]float64{"service.cache.hit_ratio": 1}
	ph.samples["service.cache.hit_ratio"] = int(ph.items)
	return ph
}

// one sends one request and checks the answer; with a recorder it also
// replays the hit path's layers under the request's span. It returns the
// request's latency and whether an answer arrived.
func (h *hotState) one(wp *phase, rec *recorder, n int64, in *hotInput) (time.Duration, bool) {
	root := rec.begin("request", -1, n)
	defer rec.end(root)
	wp.attempted++
	rt := rec.begin("http.roundtrip", root, n)
	t0 := time.Now()
	rep, err := h.srv.analyze(&in.req)
	lat := time.Since(t0)
	rec.end(rt)
	if err != nil {
		wp.fail("request %d: %v", n, err)
		return 0, false
	}
	if err := checkHit(rep, in.want); err != nil {
		wp.fail("request %d: %v", n, err)
	}
	if rec == nil {
		return lat, true
	}
	rec.at(root).Server = parseServerTiming(rep.timing)
	p, err := replayFrontEnd(rec, root, n, in.src, true)
	if err == nil {
		err = replayHit(rec, root, n, h.srv.svc, p, hotOptions)
	}
	if err != nil {
		wp.fail("request %d replay: %v", n, err)
	}
	return lat, true
}
