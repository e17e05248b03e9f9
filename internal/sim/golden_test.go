package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"trustseq/internal/core"
	"trustseq/internal/gen"
	"trustseq/internal/model"
)

// goldenDigests pins the observable output of a fixed run set: the
// SHA-256 of each run's rendered trace, realized fault counts, chaos
// audit and summary. Performance work on the simulator must leave every
// digest unchanged; a digest that moves means a schedule, a verdict or
// a balance changed.
var goldenDigests = map[string]string{
	"corpus/0/example1/seed=0":                             "d1154281202216fa5269c87edfe552cab92ad67e402a664d7f0f8eb83576a452",
	"corpus/0/example1/seed=1":                             "80c611eb23670b73387db8b630b0a62495b1d132cee961fcf58bce0f5683e16d",
	"corpus/0/example1/seed=2":                             "d3571e7e1f7e0464598ea4beb74f93c19bb1f4f574d9e284fac5359f2953da8c",
	"corpus/1/example2-source1-trusts-broker1/seed=104729": "cfb3f43d2dee88967e8af14f62bffaed9dd8fb562c2e09a5e3684d88188bcfd1",
	"corpus/1/example2-source1-trusts-broker1/seed=104730": "9146032533502cc8681960283309ca9c06dbea5ef436fb841e742000764e88bc",
	"corpus/1/example2-source1-trusts-broker1/seed=104731": "83650295474d42dde28869687944c079062070f8f3e18e8889ffa6bba0de8b82",
	"corpus/2/example2-indemnified/seed=209458":            "0c25b5f139e36b399885a475d495dbf74ec9b7ffd4cd4e65ac204a4aba484700",
	"corpus/2/example2-indemnified/seed=209459":            "b2a67a35a5e1407387f439645040417f0b571a7c2d1b45c91a85f500aff54022",
	"corpus/2/example2-indemnified/seed=209460":            "1ed0af1b95da8a51c25d854f70acaaf85bd4cb849ce1d55340ed0088fe71e039",
	"corpus/3/chain-1/seed=314187":                         "a9456f05d1c531447cb561230eb48803e2b3d326e565b0661ab8c3cd293faec2",
	"corpus/3/chain-1/seed=314188":                         "aa241e80367301d382e142063c9d72360159bf568daac11fb19049506b4bc38c",
	"corpus/3/chain-1/seed=314189":                         "b0a76ca0c560223e710a69a08d2d5c195f2d780d3a8e50ced9616f41e2745813",
	"corpus/4/chain-2/seed=418916":                         "b09f00b22895f0e717bf587b1b7e6adf69eece624ba1586de49fe6f3e0712b11",
	"corpus/4/chain-2/seed=418917":                         "96e2f88817305445443e192dbd426c3771e393658ead903ee5d874ddac0a2fa9",
	"corpus/4/chain-2/seed=418918":                         "9eaf9335b2460f4e264dff9d2b86556ed314b35782220c0ed027542d0c8a767c",
	"corpus/5/chain-3/seed=523645":                         "753e1b164fb02dc8a077fb97ab0e0ea034f0aadff4c20411a8482252bbbb28f2",
	"corpus/5/chain-3/seed=523646":                         "e31a7fdccd18bd8353e48782a06ed598b8c53eb82d634c8315ecce5b176e1ffb",
	"corpus/5/chain-3/seed=523647":                         "fbcc13f971ce2db17cae8c3af75a159ef139d77df72058313efea41caffca55d",
	"corpus/6/parallel-2/seed=628374":                      "fa90de2a6559d56ba0546475def2c91d3c0e17ff42939e3736362a3840f4fe86",
	"corpus/6/parallel-2/seed=628375":                      "f3f7e58da6ac928f508138821957cc19080fbbbbdf83f5d9dd0c851660d6e279",
	"corpus/6/parallel-2/seed=628376":                      "738ea20e34573b84472220ce12e9203da25c1522682a734d3c6ac15f1b422d17",
	"corpus/7/random/seed=733103":                          "ac4e6bb59c8f857c96ea4adde1c585267c057ac4f25ab00ef3edae76599d4b1d",
	"corpus/7/random/seed=733104":                          "0e7a5e3067f7437bc8bf517f5d08aa6f25f422e61ff1ae4c63647a1a349f1ad5",
	"corpus/7/random/seed=733105":                          "dcc4b48445b0da91501216a9a7953b2d70c3123b57e7933b1128d81cc594debd",
	"corpus/8/random/seed=837832":                          "69432224f292bca81191a66779d1103ab6662029e2d52020215711ed24d2ed6b",
	"corpus/8/random/seed=837833":                          "ea55896777e396019355372c90312c174dbae22dbcbea41891f48e4ea267c17f",
	"corpus/8/random/seed=837834":                          "fa053f7d2efaa865303ebd055b72e8d68ca993a9a8695d02b0cee128178ae790",
	"corpus/9/random/seed=942561":                          "38f68496838a2d61040d9e0718009de04945ea8298e0ca911db4911093510b6a",
	"corpus/9/random/seed=942562":                          "562e888724524c6f9e76c0e79228c8b69e8d06d52d7d651d53f4c95cbf28930a",
	"corpus/9/random/seed=942563":                          "5e25cdc38848d766f14c5a561050539466f0e3024ce14af523aafa261440b42d",
	"population-1000/defectors":                            "c232210ae3bef2fb2fed1c09f470c737b9c52d44116a889abc47ec308d1f5317",
	"population-1000/honest":                               "ec950885334ef7a26e971b441e6c05b178b273240fae456186ba33fb403e623e",
	"population-12/defectors":                              "d2d7e3ab4a36813d45ed3c1f3ccefa2630e603b6f82d68e2212d312620100630",
	"population-12/honest":                                 "689821e4ee45c30bb6271c89c44533a617a8f5e2b248cf723fdd7d129afc55eb",
}

// runDigest hashes everything a run exposes to its callers.
func runDigest(res *Result, defectors map[model.PartyID]int) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%+v\x00%s\x00%s",
		RenderTrace(res.Trace), res.FaultStats,
		strings.Join(ChaosViolations(res, defectors), "\n"), res.Summary())
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenRunDigests(t *testing.T) {
	t.Parallel()
	got := map[string]string{}
	record := func(name string, pl *core.Plan, opts Options) {
		res, err := Run(pl, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = runDigest(res, opts.Defectors)
	}

	// Every chaos-corpus plan under the full fault menu, seeded exactly
	// as TestWheelMatchesHeapAcrossCorpus seeds it.
	for pi, pl := range chaosCorpus(t) {
		for s := 0; s < 3; s++ {
			seed := int64(pi)*104729 + int64(s)
			rng := rand.New(rand.NewSource(seed))
			opts := ChaosOptions(rng, pl.Problem, AllFaults(), seed, 0)
			record(fmt.Sprintf("corpus/%d/%s/seed=%d", pi, pl.Problem.Name, seed), pl, opts)
		}
	}

	// Population plans, honest and with defectors: a silent broker, a
	// consumer that stops after its deposit, and a producer that stops
	// part-way through its fan-out.
	for _, pop := range []struct{ n, producers int }{{12, 2}, {1000, 0}} {
		pl, err := core.Synthesize(gen.Population(pop.n, pop.producers, 10))
		if err != nil {
			t.Fatalf("synthesize population-%d: %v", pop.n, err)
		}
		name := pl.Problem.Name
		record(name+"/honest", pl, Options{Seed: 1, Deadline: 20000})
		record(name+"/defectors", pl, Options{Seed: 1, Deadline: 20000,
			Defectors: map[model.PartyID]int{"b1": 0, "c2": 1, "s1": 3}})
	}

	for name, d := range got {
		want, ok := goldenDigests[name]
		if !ok {
			t.Errorf("%s: no golden digest (got %s)", name, d)
			continue
		}
		if d != want {
			t.Errorf("%s: digest %s, golden %s", name, d, want)
		}
	}
	for name := range goldenDigests {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden run no longer produced", name)
		}
	}
}
