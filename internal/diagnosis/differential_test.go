package diagnosis

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/consistentapi"
	"poddiagnosis/internal/diagplan"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/obs/flight"
	"poddiagnosis/internal/resilience"
	"poddiagnosis/internal/simaws"
)

// differentialCatalog is the default catalog — the tree-compiled rolling-
// upgrade plans plus the native blue/green and spot DAGs — extended with a
// plan whose two parents reach one cause (and a second cause behind it, so
// the claim order shows in the result) and a plan whose check parameters
// carry placeholders.
func differentialCatalog(t *testing.T) *diagplan.Catalog {
	t.Helper()
	cat := diagplan.FullCatalog()
	cat.MustRegister(&diagplan.Plan{
		ID: "plan-fanin", AssertionID: "fanin-assert", Entry: "entry",
		Nodes: []*diagplan.Node{
			{ID: "entry", Kind: diagplan.KindEntry, Description: "{asgid} violated", Edges: []diagplan.Edge{
				{To: "branch-a", Prob: 0.5}, {To: "branch-b", Prob: 0.5}, {To: "late", Prob: 0.1},
			}},
			{ID: "branch-a", Kind: diagplan.KindCollector, Description: "branch a of {asgid}", CheckID: "fanin-a",
				TestClass: diagplan.TestClassRetryable, Steps: []string{"fstep1", "fstep2"},
				Edges: []diagplan.Edge{{To: "shared-cause", Prob: 0.9}, {To: "a-cause", Prob: 0.2}}},
			{ID: "branch-b", Kind: diagplan.KindCollector, Description: "branch b.", CheckID: "fanin-b",
				TestClass: diagplan.TestClassNoRetry,
				Edges:     []diagplan.Edge{{To: "own-cause", Prob: 0.3}, {To: "shared-cause", Prob: 0.6}}},
			{ID: "late", Kind: diagplan.KindTest, Description: "uncheckable interior", Steps: []string{"fstep2"},
				Edges: []diagplan.Edge{{To: "shared-cause", Prob: 1}, {To: "untestable", Prob: 0.5}}},
			{ID: "shared-cause", Kind: diagplan.KindCause, Description: "the shared fault of {asgid}", CheckID: "fanin-shared", TestClass: diagplan.TestClassRetryable},
			{ID: "a-cause", Kind: diagplan.KindCause, Description: "the a-only fault", CheckID: "fanin-own", TestClass: diagplan.TestClassRetryable,
				CheckParams: assertion.Params{"which": "a"}},
			{ID: "own-cause", Kind: diagplan.KindCause, Description: "the b-only fault", CheckID: "fanin-own", TestClass: diagplan.TestClassRetryable,
				CheckParams: assertion.Params{"which": "b"}, Steps: []string{"fstep1"}},
			{ID: "untestable", Kind: diagplan.KindCause, Description: "nobody can check {nosuch}"},
		},
	})
	cat.MustRegister(&diagplan.Plan{
		ID: "plan-placeholder", AssertionID: "placeholder-assert", Entry: "top",
		Nodes: []*diagplan.Node{
			{ID: "top", Kind: diagplan.KindEntry, Description: "top", Edges: []diagplan.Edge{{To: "p1", Prob: 0.7}, {To: "p2", Prob: 0.3}}},
			{ID: "p1", Kind: diagplan.KindCause, Description: "{lcname} of {asgid} is {unknown}", CheckID: "ph-check", TestClass: diagplan.TestClassRetryable,
				CheckParams: assertion.Params{"lcname": "{lcname}-green", "fixed": "x", "asgid": "{nosuch}/{asgid}"}},
			{ID: "p2", Kind: diagplan.KindCause, Description: "second", CheckID: "ph-check", TestClass: diagplan.TestClassRetryable,
				CheckParams: assertion.Params{"lcname": "{lcname}-green", "fixed": "x", "asgid": "{nosuch}/{asgid}"}},
		},
	})
	return cat
}

// behaviour is how a scripted check answers.
type behaviour int

const (
	answerFail behaviour = iota
	answerPass
	answerFatal     // an error retrying cannot fix
	answerRetryable // a throttle-class error: retried, trips the breaker
	breakerOpen     // the check's breaker is open before the walk starts
)

// script assigns every check id a behaviour from the seed.
func script(seed int64, checkIDs []string) map[string]behaviour {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[string]behaviour, len(checkIDs))
	for _, id := range checkIDs {
		switch p := rng.Intn(100); {
		case p < 40:
			out[id] = answerFail
		case p < 65:
			out[id] = answerPass
		case p < 77:
			out[id] = answerFatal
		case p < 89:
			out[id] = answerRetryable
		default:
			out[id] = breakerOpen
		}
	}
	return out
}

func scriptedRegistry(sc map[string]behaviour) *assertion.Registry {
	reg := assertion.NewRegistry()
	for id, b := range sc {
		id, b := id, b
		reg.Register(assertion.Check{ID: id, Description: id, Eval: func(_ context.Context, _ *consistentapi.Client, p assertion.Params) assertion.Result {
			res := assertion.Result{CheckID: id, Params: p, Message: "scripted answer of " + id + "."}
			switch b {
			case answerPass:
				res.Status = assertion.StatusPass
			case answerFail:
				res.Status = assertion.StatusFail
			case answerFatal:
				res.Status, res.Err = assertion.StatusError, "assertion: missing parameter"
			default:
				res.Status, res.Err = assertion.StatusError, "RequestLimitExceeded: scripted throttle"
			}
			return res
		}})
	}
	return reg
}

// side is one engine with collaborators of its own: two sides built from
// the same arguments start in the same state and, driven alike, must stay
// in it.
type side struct {
	engine *Engine
	sub    *logging.Subscription
	rec    *flight.Recorder
	op     *flight.Op
}

func newSide(t *testing.T, cat *diagplan.Catalog, reg *assertion.Registry, sc map[string]behaviour, opts Options) *side {
	t.Helper()
	// Only back-off sleeps move the clock, identically on both sides of a
	// comparison.
	clk := newManualClock()
	profile := simaws.FastProfile()
	profile.StaleProb = 0.05 // a consistency window, so the shared cache reuses across runs
	profile.StaleLag = clock.Fixed(10 * time.Second)
	client := consistentapi.New(simaws.New(clk, profile, simaws.WithSeed(7)), consistentapi.Config{MaxAttempts: 1})
	bus := logging.NewBus()
	t.Cleanup(bus.Close)
	s := &side{
		engine: NewEngine(cat, assertion.NewEvaluator(client, reg, bus), bus, opts),
		sub:    bus.Subscribe(256, nil),
		rec:    flight.NewRecorder(clk, 256),
	}
	s.op = s.rec.Op("op-1")
	ids := make([]string, 0, len(sc))
	for id := range sc {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		for sc[id] == breakerOpen && !s.engine.Resilience().Open(id) {
			s.engine.Resilience().Do(context.Background(), id, func(context.Context) resilience.Verdict {
				return resilience.VerdictRetryable
			})
		}
	}
	s.events() // discard nothing yet, but start every run from an empty queue
	return s
}

// events drains what the bus delivered since the last call. Publish hands
// events to subscribers synchronously, so after Diagnose returns the
// queue holds the whole run.
func (s *side) events() []logging.Event {
	var out []logging.Event
	for {
		select {
		case ev := <-s.sub.C:
			out = append(out, ev)
		default:
			return out
		}
	}
}

// observed is everything one run leaves behind, rendered for comparison.
type observed struct {
	doc      string // the Diagnosis document
	logs     string // every bus event of the run, assertion and diagnosis lines interleaved
	evidence string // the operation's flight entries (span ids aside: they come from the process-wide tracer)
	series   string // pod_diagnosis_* counter deltas
}

func observe(t *testing.T, s *side, diagnose func(context.Context, Request) *Diagnosis, req Request) observed {
	t.Helper()
	counters := func() []float64 {
		return []float64{
			mTests.Value(), mCacheHits.Value(), mCausesFound.Value(), mBudgetExhausted.Value(),
			mWalks.With(string(ConclusionIdentified)).Value(), mWalks.With(string(ConclusionSuspected)).Value(), mWalks.With(string(ConclusionNone)).Value(),
		}
	}
	before := counters()
	anchor := s.op.Record(flight.Entry{Kind: flight.KindLogEvent, Message: "trigger"})
	ctx := flight.WithParent(flight.NewContext(context.Background(), s.op), anchor)
	d := diagnose(ctx, req)

	var o observed
	doc, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	o.doc = string(doc)
	if s.sub.Dropped() > 0 {
		t.Fatal("the test's bus subscription overflowed")
	}
	logs, err := json.Marshal(s.events())
	if err != nil {
		t.Fatal(err)
	}
	o.logs = string(logs)
	var entries []flight.Entry
	for _, e := range s.rec.Timeline("op-1").Entries {
		if e.ID >= anchor { // this run's
			e.SpanID = 0
			entries = append(entries, e)
		}
	}
	ev, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	o.evidence = string(ev)
	after := counters()
	for i := range after {
		after[i] -= before[i]
	}
	o.series = fmt.Sprint(after)
	return o
}

// TestCompiledWalkMatchesReference drives the engine and the reference
// walker (reference_test.go: clone, substitute, prune, sort per visit)
// over every plan selection of the catalog, in every step context the
// plans distinguish plus an unknown one, under seeded scripted answers.
//
// Every case must agree byte for byte: the Diagnosis document, every log
// event, every flight entry with its parents and attributes, the metric
// series — on the first run and on the re-run the shared cache and the
// breakers colour.
func TestCompiledWalkMatchesReference(t *testing.T) {
	cat := differentialCatalog(t)
	checks := map[string]bool{}
	steps := map[string]map[string]bool{"": {}} // assertion id -> step ids its plans name
	fanIn := map[string]bool{}                  // assertion id -> some selected plan has a fan-in node
	for _, p := range cat.All() {
		if steps[p.AssertionID] == nil {
			steps[p.AssertionID] = map[string]bool{}
		}
		for _, n := range p.Nodes {
			if n.CheckID != "" {
				checks[n.CheckID] = true
			}
			for _, s := range n.Steps {
				steps[p.AssertionID][s] = true
				steps[""][s] = true
			}
			if len(refParents(p, n.ID)) > 1 {
				fanIn[p.AssertionID], fanIn[""] = true, true
			}
		}
	}
	if !fanIn["fanin-assert"] || len(fanIn) == len(steps) {
		t.Fatalf("want plan selections with and without fan-in, have fan-in in %v of %d", fanIn, len(steps))
	}
	checkIDs := make([]string, 0, len(checks))
	for id := range checks {
		checkIDs = append(checkIDs, id)
	}
	sort.Strings(checkIDs)
	assertionIDs := make([]string, 0, len(steps))
	for id := range steps {
		assertionIDs = append(assertionIDs, id)
	}
	sort.Strings(assertionIDs)

	params := assertion.Params{
		assertion.ParamASG: "pm--asg", assertion.ParamELB: "pm-elb", assertion.ParamAMI: "ami-1",
		assertion.ParamVersion: "v2", assertion.ParamLC: "pm-lc-2", assertion.ParamKeyPair: "key",
		assertion.ParamSG: "sg", assertion.ParamInstanceType: "m1.small", assertion.ParamWant: "2",
		assertion.ParamInstance: "i-1",
	}
	cases := 0
	for seed := int64(1); seed <= 2; seed++ {
		sc := script(seed, checkIDs)
		reg := scriptedRegistry(sc)
		for _, continueAfter := range []bool{false, true} {
			for _, noPrune := range []bool{false, true} {
				for _, maxTests := range []int{0, 1, 2} {
					opts := Options{ContinueAfterConfirm: continueAfter, DisablePruning: noPrune, MaxTests: maxTests}
					for _, aid := range assertionIDs {
						stepIDs := []string{"", "no-such-step"}
						for s := range steps[aid] {
							stepIDs = append(stepIDs, s)
						}
						sort.Strings(stepIDs)
						for _, step := range stepIDs {
							req := Request{
								AssertionID: aid, Source: SourceAssertion, ProcessInstanceID: "pushing pm--asg",
								StepID: step, Params: params, Detail: "The ASG pm--asg is using a correct version",
								Degraded: seed == 2,
							}
							name := fmt.Sprintf("seed=%d %+v assertion=%q step=%q", seed, opts, aid, step)
							eng := newSide(t, cat, reg, sc, opts)
							ref := newSide(t, cat, reg, sc, opts)
							for run := 1; run <= 2; run++ {
								got := observe(t, eng, eng.engine.Diagnose, req)
								want := observe(t, ref, refEngine{Engine: ref.engine}.Diagnose, req)
								cases++
								for _, c := range []struct{ what, got, want string }{
									{"diagnosis", got.doc, want.doc},
									{"log events", got.logs, want.logs},
									{"flight entries", got.evidence, want.evidence},
									{"metric deltas", got.series, want.series},
								} {
									if c.got != c.want {
										t.Fatalf("%s run %d: %s differ\n got %s\nwant %s", name, run, c.what, c.got, c.want)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d runs compared over %d checks, %d plan selections", cases, len(checkIDs), len(assertionIDs))
}

// The cache key is part of the engine's observable behaviour — it is what
// two walks must agree on to share a test — so the allocation-lean encoder
// is held to the reference one.
func TestCacheKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	word := func() string {
		b := make([]byte, rng.Intn(130))
		for i := range b {
			b[i] = "ab:|=0159{}"[rng.Intn(11)]
		}
		return string(b)
	}
	for i := 0; i < 2000; i++ {
		p := assertion.Params{}
		for n := rng.Intn(24); n > 0; n-- {
			p[word()] = word()
		}
		id := word()
		if got, want := cacheKey(id, p), refCacheKey(id, p); got != want {
			t.Fatalf("cacheKey(%q, %v) = %q, want %q", id, p, got, want)
		}
	}
	if got, want := cacheKey("c", nil), refCacheKey("c", nil); got != want {
		t.Fatalf("cacheKey with no params = %q, want %q", got, want)
	}
}
