package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"trustseq/internal/core"
	"trustseq/internal/dsl"
	"trustseq/internal/gen"
	"trustseq/internal/model"
	"trustseq/internal/service"
)

const (
	// churnChains is the number of gen.Chain documents being edited.
	churnChains = 8
	// churnWarmMisses are analyzed during set-up; the first repeats of a
	// run, which have no earlier miss of their own, repeat them.
	churnWarmMisses = 16
	// repeatSpan bounds how many arrivals back a repeat reaches: with
	// two thirds of arrivals filling the 512-entry result cache, a
	// target 150 arrivals older than the earliest eligible one is still
	// resident.
	repeatSpan = 150
	// churnWindow is the window the end-to-end figures are medians over.
	churnWindow = 3 * time.Second
)

type churnKind int

const (
	kindMiss churnKind = iota
	kindEdit
	kindRepeat
)

var (
	missOptions = service.AnalyzeOptions{Verify: true, CrossCheck: true, Simulate: true}
	editOptions = service.AnalyzeOptions{Trace: true}
)

// editLink is one version of an edited chain document. The next
// version's request waits for done and carries digest, this version's
// X-Trustd-Digest, as its X-Trustd-Base.
type editLink struct {
	done   chan struct{}
	digest string
	src    string
	plan   *core.Plan // benchmark-side plan, set by the traced replays (churnState.mu)
}

// arrival is one scheduled analyze-churn request and, after the run,
// its answer.
type arrival struct {
	kind churnKind
	src  string
	req  request
	opts service.AnalyzeOptions
	want verdict   // misses: the in-process verdict
	prev *editLink // edits: the version this one edits
	link *editLink // edits: this version
	of   *arrival  // repeats: the earlier request repeated
	rep  *reply
	err  error
}

type churnState struct {
	srv      *server
	so       service.Options // the server's options, for the replays
	arrivals []*arrival
	due      []time.Duration
	warm     []*arrival
	mu       sync.Mutex // guards editLink.plan
}

// retune applies a one-exchange price change to hop h of a chain
// problem: the buyer's deposit and the seller's receipt move together,
// so the exchange stays balanced and the sequencing graph unchanged.
func retune(p *model.Problem, h int, delta model.Money) {
	if p.Exchanges[2*h].Gives.Amount+delta < 2 {
		delta = -delta
	}
	p.Exchanges[2*h].Gives.Amount += delta
	p.Exchanges[2*h+1].Gets.Amount += delta
}

// setupChurn generates the whole arrival schedule and its inputs, boots
// the service and warms it: each chain's first version is analyzed (its
// plan becomes the first edit's base) and the warm misses are filled.
func setupChurn(o options) (*churnState, error) {
	rng := rand.New(rand.NewSource(o.seed))
	n := int(o.churnRPS * o.seconds)
	kinds := make([]churnKind, n)
	for i := 0; i < n; i += 3 {
		perm := rng.Perm(3)
		for j := 0; j < 3 && i+j < n; j++ {
			kinds[i+j] = churnKind(perm[j])
		}
	}
	nMiss := churnWarmMisses
	for _, k := range kinds {
		if k == kindMiss {
			nMiss++
		}
	}
	// Misses must simulate, so fresh problems are feasible ones. Every
	// third is a gen.Chain of 5 brokers (12 exchanges), over the
	// 10-exchange cap, so the server skips its exhaustive cross-checks;
	// the others are one-document gen.Random markets (4 exchanges),
	// which it searches. Sizes are fixed because miss costs spread
	// widely with them — plan verification, which the server runs twice
	// per verify=1 request, takes ~6 ms at 12 exchanges and ~18 ms at 18
	// on the 2-core reference host — and a wide spread of miss costs
	// makes the median latency jump between runs.
	nLarge := nMiss / 3
	small, smallPlans, err := genDistinct(nMiss-nLarge, func() *model.Problem {
		return gen.Random(rng, gen.Options{Consumers: 1, Brokers: 1 + rng.Intn(3), Producers: 2, MaxPrice: 1000, DirectTrustProb: 0.3})
	}, func(pl *core.Plan) bool { return pl.Feasible && len(pl.Problem.Exchanges) == 4 })
	if err != nil {
		return nil, err
	}
	large, largePlans, err := genDistinct(nLarge, func() *model.Problem {
		return gen.Chain(5, model.Money(20+rng.Intn(1000)))
	}, nil)
	if err != nil {
		return nil, err
	}
	srcs := make([]string, 0, nMiss)
	plans := make([]*core.Plan, 0, nMiss)
	for i := 0; len(srcs) < nMiss; i++ {
		if i%3 == 2 && len(large) > 0 {
			srcs, plans, large, largePlans = append(srcs, large[0]), append(plans, largePlans[0]), large[1:], largePlans[1:]
		} else {
			srcs, plans, small, smallPlans = append(srcs, small[0]), append(plans, smallPlans[0]), small[1:], smallPlans[1:]
		}
	}
	missArrival := func(i int) *arrival {
		opts := missOptions
		opts.SimSeed = int64(i)
		return &arrival{
			kind: kindMiss, src: srcs[i], opts: opts, want: verdictOf(plans[i]),
			req: request{query: "?verify=1&crosscheck=1&simulate=1&seed=" + strconv.Itoa(i), body: []byte(srcs[i])},
		}
	}

	type chainDoc struct {
		p    *model.Problem
		last *editLink
	}
	chains := make([]chainDoc, churnChains)
	var v0 []*arrival
	for c := range chains {
		// Chain lengths are spread evenly over 64–256 brokers whatever
		// the seed, so seeds vary the edits, not the document sizes.
		k := 64 + c*(256-64)/(churnChains-1)
		p := gen.Chain(k, model.Money(k+10))
		src, err := dsl.Print(p)
		if err != nil {
			return nil, err
		}
		link := &editLink{done: make(chan struct{}), src: src}
		chains[c] = chainDoc{p: p, last: link}
		v0 = append(v0, &arrival{kind: kindEdit, src: src, opts: editOptions, link: link,
			req: request{query: "?seq=1&format=text", body: []byte(src)}})
	}

	st := &churnState{so: trustdOptions()}
	for i := 0; i < churnWarmMisses; i++ {
		st.warm = append(st.warm, missArrival(i))
	}
	nextMiss, edits := churnWarmMisses, 0
	var missIdx []int // arrival indices of misses, ascending
	lo := int(o.churnRPS / 4)
	if lo < 3 {
		lo = 3
	}
	for i, k := range kinds {
		var a *arrival
		switch k {
		case kindMiss:
			a = missArrival(nextMiss)
			nextMiss++
			missIdx = append(missIdx, i)
		case kindEdit:
			c := &chains[edits%churnChains]
			edits++
			p := c.p.Clone()
			retune(p, rng.Intn(len(p.Exchanges)/2), model.Money(1+rng.Intn(3)))
			src, err := dsl.Print(p)
			if err != nil {
				return nil, err
			}
			link := &editLink{done: make(chan struct{}), src: src}
			a = &arrival{kind: kindEdit, src: src, opts: editOptions, prev: c.last, link: link,
				req: request{query: "?seq=1&format=text", body: []byte(src)}}
			c.p, c.last = p, link
		case kindRepeat:
			// A miss due between lo and lo+repeatSpan arrivals earlier:
			// answered by then, and still resident.
			first := sort.SearchInts(missIdx, i-lo-repeatSpan)
			last := sort.SearchInts(missIdx, i-lo+1)
			var of *arrival
			if last > first {
				of = st.arrivals[missIdx[first+rng.Intn(last-first)]]
			} else {
				of = st.warm[rng.Intn(len(st.warm))]
			}
			a = &arrival{kind: kindRepeat, src: of.src, opts: of.opts, req: of.req, of: of}
		}
		st.arrivals = append(st.arrivals, a)
	}
	st.due = evenSchedule(n, o.churnRPS)

	srv, err := startServer(o.conns)
	if err != nil {
		return nil, err
	}
	st.srv = srv
	for _, a := range append(v0, st.warm...) {
		a.rep, a.err = srv.analyze(&a.req)
		if a.err == nil && a.rep.status != 200 {
			a.err = fmt.Errorf("status %d", a.rep.status)
		}
		if a.err == nil && a.kind == kindMiss {
			_, a.err = checkMiss(a.rep, a.want)
		}
		if a.err != nil {
			srv.close()
			return nil, fmt.Errorf("warm-up: %w", a.err)
		}
		if a.link != nil {
			a.link.digest = a.rep.digest
			close(a.link.done)
		}
	}
	return st, nil
}

func runChurn(o options) (*result, error) {
	st, setupS, setups, err := setupMedian(o.setups, func() (*churnState, error) { return setupChurn(o) },
		func(st *churnState) { st.srv.close() })
	if err != nil {
		return nil, err
	}
	defer st.srv.close()
	res := &result{
		shape:  fmt.Sprintf("open loop, %.0f req/s evenly spaced, %d connections, thirds miss/edit/repeat", o.churnRPS, o.conns),
		setupS: setupS, setups: setups,
	}
	n := len(st.arrivals)
	split := n
	if o.trace {
		split = n / 2
	}
	res.main = st.measure(o, 0, split, false)
	if o.trace {
		res.traced = st.measure(o, split, n, true)
	}
	return res, nil
}

// measure plays arrivals [lo, hi) on their schedule, then checks every
// answer and derives the phase's counters.
func (st *churnState) measure(o options, lo, hi int, traced bool) *phase {
	ph := &phase{samples: map[string]int{}}
	arr := st.arrivals[lo:hi]
	due := make([]time.Duration, len(arr))
	for i := range due {
		due[i] = st.due[lo+i] - st.due[lo]
	}
	workers := make([]*phase, o.conns)
	recs := make([]*recorder, o.conns)
	appends0, errA := st.srv.vlogAppends()
	start := time.Now()
	for w := range workers {
		workers[w] = &phase{}
		if traced {
			recs[w] = newRecorder(start, w)
		}
	}
	ph.rt0, ph.cpu = readRuntime(), cpuTime()
	marker := startCPUMarker(start, churnWindow)
	// Edits come from one editing client on a connection of their own;
	// misses and repeats share the other (one lane on a 1-processor
	// host).
	lanes := min(2, o.conns)
	lane := make([]int, len(arr))
	for i, a := range arr {
		if a.kind != kindEdit {
			lane[i] = lanes - 1
		}
	}
	lat, late := openLoop(start, due, lane, lanes, func(w, i int) {
		st.one(workers[w], recs[w], int64(lo+i), arr[i])
	})
	marks := marker.stop()
	ph.cpu = cpuTime() - ph.cpu
	ph.rt1 = readRuntime()
	appends1, errB := st.srv.vlogAppends()
	for w, wp := range workers {
		if recs[w] != nil {
			wp.spans = recs[w].spans
		}
		ph.merge(wp)
	}
	var done []completion
	for i, a := range arr {
		if a.err == nil {
			done = append(done, completion{at: due[i] + lat[i], lat: lat[i]})
		}
	}
	ph.items = float64(len(done))
	ph.slices, ph.latWindows = windowed(done, marks)
	st.verify(o, ph, arr)

	var hits, edits, patched, misses, skipped, capped int
	for _, a := range arr {
		if a.err != nil {
			continue
		}
		if a.rep.cache == "hit" {
			hits++
		}
		switch a.kind {
		case kindEdit:
			edits++
			if a.rep.incremental == string(service.IncrementalPatched) {
				patched++
			}
		case kindMiss:
			misses++
			if res, err := checkVerdict(a.rep.body, a.want); err == nil && res.CrossCheck != nil {
				if res.CrossCheck.SearchSkipped {
					skipped++
				}
				if res.CrossCheck.PetriCapped {
					capped++
				}
			}
		}
	}
	lateMS := durationsMS(late)
	ph.layers = map[string]float64{
		"service.cache.hit_ratio":  ratio(float64(hits), ph.items),
		"core.patch.patched_ratio": ratio(float64(patched), float64(edits)),
		"search.skipped_ratio":     ratio(float64(skipped), float64(misses)),
		"petri.capped_ratio":       ratio(float64(capped), float64(misses)),
		"loadgen.late_p99_ms":      percentile(lateMS, 99),
	}
	ph.samples["service.cache.hit_ratio"] = int(ph.items)
	ph.samples["core.patch.patched_ratio"] = edits
	ph.samples["search.skipped_ratio"], ph.samples["petri.capped_ratio"] = misses, misses
	ph.samples["loadgen.late_p99_ms"] = len(late)
	if errA == nil && errB == nil {
		ph.layers["service.vlog.appends_per_req"] = ratio(float64(appends1-appends0), ph.items)
		ph.samples["service.vlog.appends_per_req"] = int(ph.items)
	}
	return ph
}

// one sends arrival a (an edit first waits for the version it edits and
// names that version's digest as its base) and, when traced, replays
// the layers the server ran for it.
func (st *churnState) one(wp *phase, rec *recorder, n int64, a *arrival) {
	root := rec.begin("request", -1, n)
	defer rec.end(root)
	wp.attempted++
	if a.kind == kindEdit {
		<-a.prev.done
		a.req.base = a.prev.digest
	}
	rt := rec.begin("http.roundtrip", root, n)
	a.rep, a.err = st.srv.analyze(&a.req)
	rec.end(rt)
	if a.link != nil {
		if a.err == nil {
			a.link.digest = a.rep.digest
		}
		close(a.link.done)
	}
	if a.err != nil || rec == nil {
		return
	}
	rec.at(root).Server = parseServerTiming(a.rep.timing)
	p, err := replayFrontEnd(rec, root, n, a.src, a.kind == kindRepeat)
	if err == nil {
		switch a.kind {
		case kindMiss:
			err = replayMiss(rec, root, n, p, a.opts, st.so)
		case kindEdit:
			var plan *core.Plan
			if plan, err = st.replayEdit(rec, root, n, a, p); err == nil {
				st.mu.Lock()
				a.link.plan = plan
				st.mu.Unlock()
			}
		case kindRepeat:
			err = replayHit(rec, root, n, st.srv.svc, p, a.opts)
		}
	}
	if err != nil {
		wp.fail("arrival %d replay: %v", n, err)
	}
}

// replayEdit patches against the previous version's plan, analyzing
// that version from scratch (outside any span) when no replay has
// produced its plan yet.
func (st *churnState) replayEdit(rec *recorder, root int, n int64, a *arrival, p *model.Problem) (*core.Plan, error) {
	st.mu.Lock()
	base := a.prev.plan
	st.mu.Unlock()
	if base == nil {
		prev, err := dsl.Load(a.prev.src)
		if err != nil {
			return nil, err
		}
		if base, err = core.Synthesize(prev); err != nil {
			return nil, err
		}
	}
	return replayEdit(rec, root, n, base, p, a.opts)
}

// verify checks every answer of a phase after its clock has stopped:
// misses against the in-process verdict, edits against a from-scratch
// analysis of the edited document, repeats against the answer they
// repeat.
func (st *churnState) verify(o options, ph *phase, arr []*arrival) {
	errs := make([]error, len(arr))
	var wg sync.WaitGroup
	next := make(chan int, len(arr)) // holds every index, so the producer never blocks
	for i := range arr {
		next <- i
	}
	close(next)
	for w := 0; w < o.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = checkArrival(arr[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			ph.fail("arrival %d (%s): %v", i, [...]string{"miss", "edit", "repeat"}[arr[i].kind], err)
		}
	}
}

func checkArrival(a *arrival) error {
	if a.err != nil {
		return a.err
	}
	switch a.kind {
	case kindMiss:
		_, err := checkMiss(a.rep, a.want)
		return err
	case kindEdit:
		p, err := dsl.Load(a.src)
		if err != nil {
			return err
		}
		plan, err := core.Synthesize(p)
		if err != nil {
			return err
		}
		want, err := service.RenderText(plan, service.RenderOptions{Trace: a.opts.Trace})
		if err != nil {
			return err
		}
		return checkEdit(a.rep, []byte(want))
	default:
		if a.of.rep == nil {
			return fmt.Errorf("the repeated request failed: %v", a.of.err)
		}
		return checkRepeat(a.rep, a.of.rep.body)
	}
}
