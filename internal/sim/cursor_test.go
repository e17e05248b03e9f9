package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"trustseq/internal/core"
	"trustseq/internal/gen"
	"trustseq/internal/model"
)

// rescanOracle is PrincipalNode's firing rule written the naive way:
// every call re-checks the current step's whole wait list. The
// resumable cursor in tryFire must be indistinguishable from it.
type rescanOracle struct {
	script      []scriptStep
	stopAfter   int
	next, fired int
	seen        map[model.Action]bool
	tags        map[string]bool
	sent        []model.Action
	faults      int
}

func (o *rescanOracle) fire(send func(model.Action) error) {
	for o.next < len(o.script) {
		if o.stopAfter >= 0 && o.fired >= o.stopAfter {
			return
		}
		st := o.script[o.next]
		for _, w := range st.waitFor {
			if !o.seen[w] {
				return
			}
		}
		for _, tag := range st.waitTags {
			if !o.tags[tag] {
				return
			}
		}
		for _, alts := range st.waitAny {
			sawOne := false
			for _, a := range alts {
				sawOne = sawOne || o.seen[a]
			}
			if !sawOne {
				return
			}
		}
		for _, a := range st.actions {
			if err := send(a); err != nil {
				o.faults++
				return
			}
			o.sent = append(o.sent, a)
		}
		o.next++
		o.fired++
	}
}

// flakySender fails the first send attempt of each action in fail and
// lets every other attempt through, recording the successful sends in
// order. The node and the oracle each get their own, so both see the
// same failures at the same points of their scripts.
type flakySender struct {
	fail     map[model.Action]bool
	attempts map[model.Action]int
	sent     []model.Action
}

func (f *flakySender) send(a model.Action) error {
	f.attempts[a]++
	if f.fail[a] && f.attempts[a] == 1 {
		return fmt.Errorf("flaky send of %v", a)
	}
	f.sent = append(f.sent, a)
	return nil
}

// observation is one delivery to a principal: an action or a control tag.
type observation struct {
	action model.Action
	tag    string
}

// observationsFor lists everything a principal's script waits on, plus
// a few actions nothing waits on, with duplicates, in random order — so
// later waits routinely arrive before earlier ones.
func observationsFor(rng *rand.Rand, script []scriptStep) []observation {
	var obs []observation
	seen := map[model.Action]bool{}
	add := func(a model.Action) {
		if !seen[a] {
			seen[a] = true
			obs = append(obs, observation{action: a})
		}
	}
	tags := map[string]bool{}
	for _, st := range script {
		for _, a := range st.waitFor {
			add(a)
		}
		for _, alts := range st.waitAny {
			add(alts[rng.Intn(len(alts))])
		}
		for _, tag := range st.waitTags {
			if !tags[tag] {
				tags[tag] = true
				obs = append(obs, observation{tag: tag})
			}
		}
	}
	for i := 0; i < 3; i++ {
		obs = append(obs, observation{action: model.Pay("nobody", "somebody", model.Money(i+1))})
	}
	for i, n := 0, len(obs); i < n; i++ {
		if rng.Intn(3) == 0 {
			obs = append(obs, obs[i])
		}
	}
	rng.Shuffle(len(obs), func(i, j int) { obs[i], obs[j] = obs[j], obs[i] })
	return obs
}

// TestWaitCursorMatchesRescanOracle drives single principals of every
// chaos-corpus plan and a population plan through random delivery
// orders, comparing the real node against the full-rescan oracle after
// every delivery. Trials cover honest nodes, StopAfter defectors, flaky
// sends that leave a step half-attempted, and a mid-script restore that
// rebuilds the node from a checkpoint record (cursor back at 0).
func TestWaitCursorMatchesRescanOracle(t *testing.T) {
	t.Parallel()
	plans := chaosCorpus(t)
	popPlan, err := core.Synthesize(gen.Population(12, 2, 10))
	if err != nil {
		t.Fatalf("synthesize population: %v", err)
	}
	plans = append(plans, popPlan)
	rng := rand.New(rand.NewSource(20261017))
	steps, liveRestores := 0, 0
	for _, pl := range plans {
		for _, proto := range BuildPrincipalNodes(pl, nil) {
			script := proto.script
			for trial := 0; trial < 8; trial++ {
				stopAfter := -1
				if trial%4 == 1 {
					stopAfter = rng.Intn(len(script) + 1)
				}
				fail := map[model.Action]bool{}
				if trial%2 == 1 {
					for _, st := range script {
						for _, a := range st.actions {
							fail[a] = fail[a] || rng.Intn(3) == 0
						}
					}
				}
				restoreAt := -1
				if trial >= 4 {
					restoreAt = rng.Intn(len(script) + 1)
				}
				name := fmt.Sprintf("%s/%s/trial=%d", pl.Problem.Name, proto.Self, trial)
				steps += len(script)
				if runCursorTrial(t, name, pl, proto.Self, stopAfter, fail, restoreAt, observationsFor(rng, script)) {
					liveRestores++
				}
			}
		}
	}
	if steps == 0 || liveRestores == 0 {
		t.Fatalf("coverage: %d script steps, %d restores that dropped a nonzero cursor", steps, liveRestores)
	}
}

// newTestPrincipal builds a fresh node for self whose transfers go
// through sender instead of a ledger.
func newTestPrincipal(t *testing.T, pl *core.Plan, self model.PartyID, stopAfter int, sender *flakySender) (*PrincipalNode, *Context) {
	t.Helper()
	n := NewPrincipalNode(pl, self, stopAfter)
	if n == nil {
		t.Fatalf("no principal %s", self)
	}
	net := NewNetwork(Config{Seed: 1})
	net.setHooks(func(m Message) error { return sender.send(m.Action) }, nil)
	return n, &Context{net: net, self: self}
}

// runCursorTrial reports whether the trial restored a node whose wait
// cursor was nonzero at the time, i.e. whether the restore really threw
// away scan progress.
func runCursorTrial(t *testing.T, name string, pl *core.Plan, self model.PartyID, stopAfter int,
	fail map[model.Action]bool, restoreAt int, obs []observation) (liveRestore bool) {
	t.Helper()
	sender := &flakySender{fail: fail, attempts: map[model.Action]int{}}
	node, ctx := newTestPrincipal(t, pl, self, stopAfter, sender)
	oracleSender := &flakySender{fail: fail, attempts: map[model.Action]int{}}
	oracle := &rescanOracle{
		script: node.script, stopAfter: stopAfter,
		seen: map[model.Action]bool{}, tags: map[string]bool{},
	}
	check := func(when string) {
		t.Helper()
		if node.next != oracle.next || node.fired != oracle.fired || len(node.faults) != oracle.faults {
			t.Fatalf("%s %s: node next=%d fired=%d faults=%d, oracle next=%d fired=%d faults=%d",
				name, when, node.next, node.fired, len(node.faults), oracle.next, oracle.fired, oracle.faults)
		}
		if !reflect.DeepEqual(sender.sent, oracleSender.sent) {
			t.Fatalf("%s %s: fired sequence %v, oracle %v", name, when, sender.sent, oracleSender.sent)
		}
		if !reflect.DeepEqual(node.sent.keys, dedupActions(oracle.sent)) {
			t.Fatalf("%s %s: sent set %v, oracle %v", name, when, node.sent.keys, oracle.sent)
		}
	}

	node.Init(ctx)
	oracle.fire(oracleSender.send)
	check("after Init")
	restored := false
	for i, o := range obs {
		if !restored && restoreAt >= 0 && node.next >= restoreAt {
			liveRestore = node.waited > 0
			node, ctx = restoreFromRecord(t, pl, node, sender)
			restored = true
		}
		m := Message{Kind: MsgTransfer, Action: o.action}
		if o.tag != "" {
			m = Message{Kind: MsgNotify, Tag: o.tag}
			oracle.tags[o.tag] = true
		} else {
			oracle.seen[o.action] = true
		}
		node.OnMessage(ctx, m)
		oracle.fire(oracleSender.send)
		check(fmt.Sprintf("after delivery %d (%+v)", i, o))
	}
	return liveRestore
}

// restoreFromRecord rebuilds a principal the way RestoreRun does: a
// fresh node from the plan, loaded with the recorded script position,
// observations, tags, sends and faults. The wait cursor is not part of
// the record.
func restoreFromRecord(t *testing.T, pl *core.Plan, old *PrincipalNode, sender *flakySender) (*PrincipalNode, *Context) {
	t.Helper()
	n, ctx := newTestPrincipal(t, pl, old.Self, old.StopAfter, sender)
	n.next, n.fired = old.next, old.fired
	for _, a := range old.seen.keys {
		n.seen.add(a)
	}
	for tag := range old.seenTags {
		n.markTag(tag)
	}
	for _, a := range old.sent.keys {
		n.sent.add(a)
	}
	n.faults = append(n.faults, old.faults...)
	return n, ctx
}

// dedupActions keeps the first occurrence of each action, the order an
// actionSet's keys record.
func dedupActions(as []model.Action) []model.Action {
	var out []model.Action
	seen := map[model.Action]bool{}
	for _, a := range as {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}
