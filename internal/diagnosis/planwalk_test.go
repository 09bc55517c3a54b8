package diagnosis

import (
	"context"
	"strings"
	"testing"
	"time"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/consistentapi"
	"poddiagnosis/internal/diagplan"
	"poddiagnosis/internal/obs/flight"
	"poddiagnosis/internal/simaws"
)

// newPlanEngine builds an engine directly over a plan catalog with
// synthetic checks. The cloud profile carries a non-zero consistency
// window so the shared cache performs cross-run reuse.
func newPlanEngine(t *testing.T, opts Options, cat *diagplan.Catalog, checks ...assertion.Check) *Engine {
	t.Helper()
	clk := clock.NewScaled(1000, time.Date(2013, 11, 19, 11, 48, 0, 0, time.UTC))
	profile := simaws.FastProfile()
	profile.StaleProb = 0.05
	profile.StaleLag = clock.Fixed(10 * time.Second)
	cloud := simaws.New(clk, profile, simaws.WithSeed(7))
	client := consistentapi.New(cloud, consistentapi.Config{MaxAttempts: 1, CallTimeout: time.Second})
	reg := assertion.NewRegistry()
	for _, c := range checks {
		reg.Register(c)
	}
	if err := cat.Validate(reg); err != nil {
		t.Fatal(err)
	}
	return NewEngine(cat, assertion.NewEvaluator(client, reg, nil), nil, opts)
}

// statusCheck returns a check answering with a fixed status.
func statusCheck(id string, status assertion.Status) assertion.Check {
	return assertion.Check{ID: id, Description: id, Eval: func(ctx context.Context, _ *consistentapi.Client, p assertion.Params) assertion.Result {
		return assertion.Result{CheckID: id, Status: status, Params: p, Message: "synthetic " + id}
	}}
}

// fanInCatalog builds a native DAG plan: entry -> branch-a (0.6), branch-b
// (0.4); shared-cause fans in under both; own-cause only under branch-b.
func fanInCatalog(t *testing.T, aCheck, bCheck string) *diagplan.Catalog {
	t.Helper()
	p := &diagplan.Plan{
		ID: "plan-fanin", AssertionID: "fanin-assert", Entry: "entry",
		Nodes: []*diagplan.Node{
			{ID: "entry", Kind: diagplan.KindEntry, Description: "violated", Edges: []diagplan.Edge{
				{To: "branch-a", Prob: 0.6}, {To: "branch-b", Prob: 0.4},
			}},
			{ID: "branch-a", Kind: diagplan.KindCollector, Description: "branch a", CheckID: aCheck,
				Edges: []diagplan.Edge{{To: "shared-cause", Prob: 0.9}}},
			{ID: "branch-b", Kind: diagplan.KindCollector, Description: "branch b", CheckID: bCheck,
				Edges: []diagplan.Edge{{To: "shared-cause", Prob: 0.6}, {To: "own-cause", Prob: 0.3}}},
			{ID: "shared-cause", Kind: diagplan.KindCause, Description: "the shared fault", CheckID: "cause-check"},
			{ID: "own-cause", Kind: diagplan.KindCause, Description: "the b-only fault", CheckID: "own-check"},
		},
	}
	cat := diagplan.NewCatalog()
	cat.MustRegister(p)
	return cat
}

// A shared fan-in cause excluded through one passing parent must stay
// reachable — and confirmable — through its other parent.
func TestFanInCauseReachableAfterParentExclusion(t *testing.T) {
	cat := fanInCatalog(t, "a-check", "b-check")
	e := newPlanEngine(t, Options{}, cat,
		statusCheck("a-check", assertion.StatusPass), // branch-a excluded
		statusCheck("b-check", assertion.StatusFail), // branch-b descends
		statusCheck("cause-check", assertion.StatusFail),
		statusCheck("own-check", assertion.StatusPass),
	)
	d := e.Diagnose(context.Background(), Request{AssertionID: "fanin-assert", Source: SourceAssertion})
	if d.Conclusion != ConclusionIdentified {
		t.Fatalf("conclusion = %s (suspected %+v)", d.Conclusion, d.Suspected)
	}
	if !d.HasCause("shared-cause") {
		t.Fatalf("causes = %+v, want shared-cause via branch-b", d.RootCauses)
	}
	// branch-a's pass excluded shared-cause; confirming it anyway through
	// branch-b is the noisy-test case the DAG tolerates.
	if d.PotentialFaults != 2 {
		t.Fatalf("potential = %d, want 2 (shared cause counted once)", d.PotentialFaults)
	}
}

// Fan-in exclusions are deduplicated: two passing parents excluding the
// same shared cause count it once, so Excluded never exceeds
// PotentialFaults.
func TestFanInExclusionCountedOnce(t *testing.T) {
	cat := fanInCatalog(t, "a-check", "b-check")
	e := newPlanEngine(t, Options{ContinueAfterConfirm: true}, cat,
		statusCheck("a-check", assertion.StatusPass),
		statusCheck("b-check", assertion.StatusPass),
		statusCheck("cause-check", assertion.StatusFail),
		statusCheck("own-check", assertion.StatusFail),
	)
	d := e.Diagnose(context.Background(), Request{AssertionID: "fanin-assert", Source: SourceAssertion})
	if d.Conclusion != ConclusionNone {
		t.Fatalf("conclusion = %s", d.Conclusion)
	}
	if d.PotentialFaults != 2 || d.Excluded != 2 {
		t.Fatalf("potential/excluded = %d/%d, want 2/2 (shared cause deduped)", d.PotentialFaults, d.Excluded)
	}
}

// A shared node is visited (and its test charged) at most once per run
// even when both parents descend into it.
func TestFanInSharedNodeVisitedOnce(t *testing.T) {
	cat := fanInCatalog(t, "a-check", "b-check")
	e := newPlanEngine(t, Options{ContinueAfterConfirm: true}, cat,
		statusCheck("a-check", assertion.StatusFail), // both branches descend
		statusCheck("b-check", assertion.StatusFail),
		statusCheck("cause-check", assertion.StatusPass),
		statusCheck("own-check", assertion.StatusPass),
	)
	d := e.Diagnose(context.Background(), Request{AssertionID: "fanin-assert", Source: SourceAssertion})
	seen := 0
	for _, res := range d.TestsRun {
		if res.CheckID == "cause-check" {
			seen++
		}
	}
	if seen != 1 {
		t.Fatalf("cause-check ran %d times, want 1 (claimed on first visit)", seen)
	}
}

// Satellite: a confirmed fan-in cause's flight-recorder entry cites the
// full DAG confirmation context — the entry-to-node path and every
// fan-in parent.
func TestCauseEvidenceCarriesFanInParents(t *testing.T) {
	cat := fanInCatalog(t, "a-check", "b-check")
	e := newPlanEngine(t, Options{}, cat,
		statusCheck("a-check", assertion.StatusPass),
		statusCheck("b-check", assertion.StatusFail),
		statusCheck("cause-check", assertion.StatusFail),
		statusCheck("own-check", assertion.StatusPass),
	)
	rec := flight.NewRecorder(e.clk, 256)
	op := rec.Op("test-op")
	ctx := flight.NewContext(context.Background(), op)
	d := e.Diagnose(ctx, Request{AssertionID: "fanin-assert", Source: SourceAssertion})
	if !d.HasCause("shared-cause") {
		t.Fatalf("causes = %+v", d.RootCauses)
	}
	var causeEntry *flight.Entry
	tl := rec.Timeline("test-op", flight.KindCause)
	for i := range tl.Entries {
		if tl.Entries[i].Attrs["node"] == "shared-cause" {
			causeEntry = &tl.Entries[i]
		}
	}
	if causeEntry == nil {
		t.Fatal("no diagnosis.cause entry for shared-cause")
	}
	if got := causeEntry.Attrs["path"]; got != "plan-fanin:entry/branch-a/shared-cause" {
		t.Fatalf("path attr = %q", got)
	}
	if got := causeEntry.Attrs["parents"]; got != "branch-a,branch-b" {
		t.Fatalf("parents attr = %q, want both fan-in parents", got)
	}
	if len(causeEntry.Parents) == 0 {
		t.Fatal("cause entry not chained to diagnosis/test evidence")
	}
}

// Diagnosis-test cache keys derive from the canonicalized check id and
// params only — two plans with different ids and node ids that test the
// same check share SharedCache entries, so a second run through the other
// plan answers every test from cache.
func TestCompiledAndNativePlansShareCacheEntries(t *testing.T) {
	params := assertion.Params{"which": "x"}
	tree := &diagplan.Plan{
		ID: "tree-shape", AssertionID: "tree-assert", Description: "top", Entry: "tree-top",
		Nodes: []*diagplan.Node{
			{ID: "tree-top", Kind: diagplan.KindEntry, Description: "top",
				Edges: []diagplan.Edge{{To: "tree-fault", Prob: 0.5}}},
			{ID: "tree-fault", Kind: diagplan.KindCause, Description: "the fault",
				CheckID: "shared-check", CheckParams: params.Clone()},
		},
	}
	native := &diagplan.Plan{
		ID: "native-shape", AssertionID: "native-assert", Entry: "native-top",
		Nodes: []*diagplan.Node{
			{ID: "native-top", Kind: diagplan.KindEntry, Description: "top",
				Edges: []diagplan.Edge{{To: "native-fault", Prob: 0.5}}},
			{ID: "native-fault", Kind: diagplan.KindCause, Description: "the fault",
				CheckID: "shared-check", CheckParams: params.Clone()},
		},
	}
	cat := diagplan.NewCatalog()
	cat.MustRegister(tree)
	cat.MustRegister(native)
	e := newPlanEngine(t, Options{ContinueAfterConfirm: true}, cat,
		statusCheck("shared-check", assertion.StatusPass))
	if e.Cache() == nil || e.Cache().TTL() <= 0 {
		t.Fatal("test requires a shared cache with cross-run reuse")
	}

	ctx := context.Background()
	d1 := e.Diagnose(ctx, Request{AssertionID: "tree-assert", Source: SourceAssertion})
	if len(d1.TestsRun) != 1 || d1.TestsRun[0].Cached {
		t.Fatalf("first run: %+v", d1.TestsRun)
	}
	d2 := e.Diagnose(ctx, Request{AssertionID: "native-assert", Source: SourceAssertion})
	if len(d2.TestsRun) != 1 || !d2.TestsRun[0].Cached {
		t.Fatalf("second run should answer from the shared cache: %+v", d2.TestsRun)
	}
	stats := e.Cache().Stats()
	if stats.Evaluations != 1 || stats.Hits != 1 {
		t.Fatalf("cache stats = %+v, want 1 evaluation + 1 hit", stats)
	}
}

// Compiled plans keep the old tree ids on the evidence path attribute.
func TestCompiledPlanEvidencePath(t *testing.T) {
	e := newDiagEnv(t, 1, Options{})
	e.cloud.SetELBServiceDisruption(true)
	rec := flight.NewRecorder(e.engine.clk, 256)
	op := rec.Op("upgrade-op")
	ctx := flight.NewContext(e.ctx, op)
	d := e.engine.Diagnose(ctx, e.request("step5"))
	if !d.HasCause("elb-unreachable") {
		t.Skipf("elb-unreachable not confirmed (conclusion %s)", d.Conclusion)
	}
	tl := rec.Timeline("upgrade-op", flight.KindCause)
	found := false
	for _, en := range tl.Entries {
		if en.Attrs["node"] != "elb-unreachable" {
			continue
		}
		found = true
		path := en.Attrs["path"]
		if !strings.HasPrefix(path, "ft-") || !strings.Contains(path, ":") ||
			!strings.HasSuffix(path, "/elb-unreachable") {
			t.Fatalf("path attr = %q, want planID:entry/.../elb-unreachable", path)
		}
	}
	if !found {
		t.Fatal("no cause entry recorded")
	}
}
