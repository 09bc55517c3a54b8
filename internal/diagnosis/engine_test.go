package diagnosis

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/consistentapi"
	"poddiagnosis/internal/diagplan"
	"poddiagnosis/internal/process"
	"poddiagnosis/internal/simaws"
)

// newSyntheticEngine builds an engine over hand-made plans and checks
// (the cloud exists only to satisfy the evaluator plumbing; synthetic
// checks never call it).
func newSyntheticEngine(t *testing.T, opts Options, plans []*diagplan.Plan, checks ...assertion.Check) *Engine {
	t.Helper()
	clk := clock.NewScaled(1000, time.Date(2013, 11, 19, 11, 48, 0, 0, time.UTC))
	cloud := simaws.New(clk, simaws.FastProfile(), simaws.WithSeed(7))
	client := consistentapi.New(cloud, consistentapi.Config{MaxAttempts: 1, CallTimeout: time.Second})
	reg := assertion.NewRegistry()
	for _, c := range checks {
		reg.Register(c)
	}
	cat := diagplan.NewCatalog()
	for _, p := range plans {
		if err := p.Validate(reg); err != nil {
			t.Fatal(err)
		}
		cat.MustRegister(p)
	}
	eval := assertion.NewEvaluator(client, reg, nil)
	return NewEngine(cat, eval, nil, opts)
}

func failCheck(id string) assertion.Check {
	return assertion.Check{ID: id, Description: id, Eval: func(ctx context.Context, _ *consistentapi.Client, p assertion.Params) assertion.Result {
		return assertion.Result{CheckID: id, Status: assertion.StatusFail, Params: p, Message: "fault present"}
	}}
}

func passCheck(id string) assertion.Check {
	return assertion.Check{ID: id, Description: id, Eval: func(ctx context.Context, _ *consistentapi.Client, p assertion.Params) assertion.Result {
		return assertion.Result{CheckID: id, Status: assertion.StatusPass, Params: p, Message: "no fault"}
	}}
}

// Regression for the double-instantiation bug: Diagnose used to build and
// prune every selected tree twice (once to count potential faults, once
// to walk). Plans are no longer copied at all; what happens once per run is
// the bind step that picks each plan's compiled view.
func TestTreesInstantiatedOncePerRun(t *testing.T) {
	e := newDiagEnv(t, 1, Options{})
	counts := make(map[string]int)
	e.engine.testHookBind = func(planID string) { counts[planID]++ }
	e.engine.Diagnose(e.ctx, e.request(process.StepNewReady))
	if len(counts) == 0 {
		t.Fatal("no plans bound")
	}
	for id, n := range counts {
		if n != 1 {
			t.Errorf("plan %s bound %d times, want 1", id, n)
		}
	}
}

// Regression for the confirm-dedup bug: catalog sub-trees shared across
// fault trees (same instantiated description, suffixed node ids) used to
// yield the same confirmed root cause once per tree.
func TestConfirmDedupAcrossSharedSubtrees(t *testing.T) {
	mkPlan := func(planID, nodeSuffix string) *diagplan.Plan {
		return &diagplan.Plan{
			ID: planID, AssertionID: "shared-assert", Description: "top event", Entry: planID + "-top",
			Nodes: []*diagplan.Node{
				{ID: planID + "-top", Kind: diagplan.KindEntry, Description: "top event",
					Edges: []diagplan.Edge{{To: "shared-fault-" + nodeSuffix}}},
				{ID: "shared-fault-" + nodeSuffix, Kind: diagplan.KindCause,
					Description: "shared catalog fault on {asg}", CheckID: "always-fail"},
			},
		}
	}
	e := newSyntheticEngine(t, Options{ContinueAfterConfirm: true},
		[]*diagplan.Plan{mkPlan("t1", "a"), mkPlan("t2", "b")},
		failCheck("always-fail"))
	d := e.Diagnose(context.Background(), Request{
		AssertionID: "shared-assert", Source: SourceAssertion,
		Params: assertion.Params{"asg": "demo-asg"},
	})
	if len(d.RootCauses) != 1 {
		t.Fatalf("root causes = %+v, want the shared fault exactly once", d.RootCauses)
	}
	if d.RootCauses[0].Description != "shared catalog fault on demo-asg" {
		t.Fatalf("cause = %+v", d.RootCauses[0])
	}
}

// Regression for indistinguishable budget exhaustion: synthetic
// StatusError results now carry the ErrBudgetExhausted sentinel and bump
// a dedicated counter; genuine test errors do not match.
func TestBudgetExhaustedSentinel(t *testing.T) {
	top := &diagplan.Node{ID: "top", Kind: diagplan.KindEntry, Description: "top"}
	plan := &diagplan.Plan{ID: "budget", AssertionID: "budget-assert", Description: "top", Entry: "top", Nodes: []*diagplan.Node{top}}
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("leaf-%d", i)
		top.Edges = append(top.Edges, diagplan.Edge{To: id, Prob: float64(3 - i)})
		plan.Nodes = append(plan.Nodes, &diagplan.Node{
			ID:          id,
			Kind:        diagplan.KindCause,
			Description: fmt.Sprintf("fault %d", i),
			CheckID:     "always-pass",
			CheckParams: assertion.Params{"which": fmt.Sprintf("%d", i)},
		})
	}
	e := newSyntheticEngine(t, Options{MaxTests: 1, ContinueAfterConfirm: true},
		[]*diagplan.Plan{plan}, passCheck("always-pass"))

	before := mBudgetExhausted.Value()
	d := e.Diagnose(context.Background(), Request{AssertionID: "budget-assert", Source: SourceAssertion})
	if len(d.TestsRun) != 1 {
		t.Fatalf("TestsRun = %d, want 1 (budget)", len(d.TestsRun))
	}
	if got := mBudgetExhausted.Value() - before; got != 2 {
		t.Errorf("budget-exhausted counter advanced by %v, want 2", got)
	}
	if d.Excluded != 1 {
		t.Errorf("excluded = %d, want only the funded test's leaf", d.Excluded)
	}

	res := budgetExhaustedResult("always-pass", nil)
	if !IsBudgetExhausted(res) {
		t.Error("synthetic budget result not recognized")
	}
	genuine := assertion.Result{Status: assertion.StatusError, Err: "assertion: unknown check id"}
	if IsBudgetExhausted(genuine) {
		t.Error("genuine error misclassified as budget exhaustion")
	}
}

// Many Diagnose calls on one engine run concurrently, sharing its test
// cache, breakers and attrs table: they must be race-clean (run with
// -race) and agree on the conclusion for a fixed fault.
func TestConcurrentDiagnosesOnOneEngine(t *testing.T) {
	e := newDiagEnv(t, 1, Options{})
	e.cloud.SetELBServiceDisruption(true)

	const n = 6
	var wg sync.WaitGroup
	results := make([]*Diagnosis, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = e.engine.Diagnose(e.ctx, e.request(process.StepDeregister))
		}(i)
	}
	wg.Wait()
	for i, d := range results {
		if d == nil {
			t.Fatalf("diagnosis %d missing", i)
		}
		if !d.HasCause("elb-unreachable") {
			t.Errorf("diagnosis %d: causes %+v, want elb-unreachable", i, d.RootCauses)
		}
	}
}

// The shipped plans are parsed once and shared by every catalog: building
// and validating catalogs and diagnosing on them concurrently, as
// concurrent Manager constructions do, must only read the plans (run with
// -race).
func TestConcurrentCatalogsSharePlans(t *testing.T) {
	e := newDiagEnv(t, 1, Options{})
	e.cloud.SetELBServiceDisruption(true)
	reg := assertion.DefaultRegistry()

	const n = 8
	var wg sync.WaitGroup
	results := make([]*Diagnosis, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cat := diagplan.DefaultCatalog()
			if errs[i] = cat.Validate(reg); errs[i] != nil {
				return
			}
			results[i] = NewEngine(cat, e.eval, nil, Options{}).Diagnose(e.ctx, e.request(process.StepDeregister))
		}(i)
	}
	wg.Wait()
	for i, d := range results {
		if errs[i] != nil {
			t.Fatalf("catalog %d: %v", i, errs[i])
		}
		if !d.HasCause("elb-unreachable") {
			t.Errorf("diagnosis %d: causes %+v, want elb-unreachable", i, d.RootCauses)
		}
	}
}
