package diagnosis

import (
	"context"
	"fmt"
	"slices"
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

// The parallel walk must commit exactly the sequential walk's result —
// probability order stays a preference and the first-confirmation latch
// holds across goroutines.
func TestParallelWalkMatchesSequential(t *testing.T) {
	e := newDiagEnv(t, 1, Options{})
	wrongAMI, _ := e.cloud.RegisterImage(e.ctx, "rogue", "v9", nil)
	_ = e.cloud.CreateLaunchConfiguration(e.ctx, simaws.LaunchConfig{
		Name: "rogue-lc", ImageID: wrongAMI, KeyName: e.cluster.KeyName,
		SecurityGroups: []string{e.cluster.SGName}, InstanceType: "m1.small",
	})
	_ = e.cloud.UpdateAutoScalingGroup(e.ctx, e.cluster.ASGName, "rogue-lc", -1, -1, -1)

	seq := e.engine.Diagnose(e.ctx, e.request(process.StepNewReady))
	par := NewEngine(diagplan.DefaultCatalog(), e.eval, e.bus, Options{Workers: 8}).
		Diagnose(e.ctx, e.request(process.StepNewReady))

	if par.Conclusion != seq.Conclusion {
		t.Fatalf("conclusion: parallel %s vs sequential %s", par.Conclusion, seq.Conclusion)
	}
	if len(par.RootCauses) != len(seq.RootCauses) {
		t.Fatalf("causes: parallel %+v vs sequential %+v", par.RootCauses, seq.RootCauses)
	}
	for i := range seq.RootCauses {
		if par.RootCauses[i] != seq.RootCauses[i] {
			t.Errorf("cause %d: parallel %+v vs sequential %+v", i, par.RootCauses[i], seq.RootCauses[i])
		}
	}
	if par.Excluded != seq.Excluded {
		t.Errorf("excluded: parallel %d vs sequential %d", par.Excluded, seq.Excluded)
	}
	if par.PotentialFaults != seq.PotentialFaults {
		t.Errorf("potential: parallel %d vs sequential %d", par.PotentialFaults, seq.PotentialFaults)
	}
	// Speculation may run extra tests, never fewer than the budget allows.
	if len(par.TestsRun) < len(seq.TestsRun) {
		t.Errorf("parallel ran fewer tests (%d) than sequential (%d)", len(par.TestsRun), len(seq.TestsRun))
	}
}

// Concurrent parallel walks on one engine must be race-clean (run with
// -race) and agree on the conclusion for a fixed fault.
func TestConcurrentParallelDiagnoses(t *testing.T) {
	e := newDiagEnv(t, 1, Options{Workers: 4})
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

// The fan-out pins which siblings a parallel walk runs on the storm's
// request (asg-version-count failed at step7, wrong-ami): Workers 1 and 2
// run exactly the sequential walk's three tests in its order — at
// Workers=2 the lone top-level entry takes the only extra slot and every
// deeper level runs inline — and Workers=8 speculates across the
// remaining siblings but commits the sequential walk's result.
func TestParallelWalkFanOutUnchanged(t *testing.T) {
	clk := clock.NewScaled(1000, time.Date(2013, 11, 19, 11, 48, 0, 0, time.UTC))
	profile := simaws.FastProfile()
	profile.TickInterval = time.Second
	cloud := simaws.New(clk, profile, simaws.WithSeed(1))
	cloud.Start()
	req := wrongAMIRequest(t, cloud)
	cloud.Stop()

	walk := func(workers int) *Diagnosis {
		client := consistentapi.New(cloud, consistentapi.Config{MaxAttempts: 1})
		eval := assertion.NewEvaluator(client, assertion.DefaultRegistry(), nil)
		return NewEngine(diagplan.DefaultCatalog(), eval, nil, Options{Workers: workers}).
			Diagnose(context.Background(), req)
	}
	checks := func(d *Diagnosis) []string {
		ids := make([]string, len(d.TestsRun))
		for i, r := range d.TestsRun {
			ids[i] = r.CheckID
		}
		return ids
	}
	sequential := []string{assertion.CheckASGUsesSG, assertion.CheckASGUsesKeyPair, assertion.CheckASGUsesAMI}
	// Speculation at Workers=8 may add the remaining tests of the plan's
	// first two levels.
	speculative := map[string]bool{
		assertion.CheckASGUsesType: true, assertion.CheckNoFailedLaunches: true,
		assertion.CheckASGInstanceCount: true, assertion.CheckELBInstanceCount: true,
	}
	seq := walk(1)
	for _, workers := range []int{1, 2, 8} {
		d := walk(workers)
		got := checks(d)
		if workers <= 2 && !slices.Equal(got, sequential) {
			t.Errorf("workers=%d: tests %v, want %v", workers, got, sequential)
		}
		if workers > 2 {
			// Siblings run concurrently, so only the set is fixed: every
			// sequential test once, plus speculative ones.
			seen := make(map[string]bool, len(got))
			for _, id := range got {
				if seen[id] || !speculative[id] && !slices.Contains(sequential, id) {
					t.Errorf("workers=%d: tests %v: unexpected or repeated %s", workers, got, id)
				}
				seen[id] = true
			}
			for _, id := range sequential {
				if !seen[id] {
					t.Errorf("workers=%d: tests %v lack %s", workers, got, id)
				}
			}
		}
		if !slices.Equal(d.RootCauses, seq.RootCauses) || d.Excluded != seq.Excluded || d.Conclusion != seq.Conclusion {
			t.Errorf("workers=%d: causes %+v, excluded %d, %s; sequential %+v, %d, %s", workers,
				d.RootCauses, d.Excluded, d.Conclusion, seq.RootCauses, seq.Excluded, seq.Conclusion)
		}
	}
	if !seq.HasCause("wrong-ami") {
		t.Fatalf("sequential walk: %s, want wrong-ami confirmed", seq.Conclusion)
	}
}
