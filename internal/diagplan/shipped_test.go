package diagplan

import (
	"strings"
	"testing"
	"testing/quick"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/process"
)

func versionCountPlan(t *testing.T) *Plan {
	t.Helper()
	ps := DefaultCatalog().Select(assertion.CheckASGVersionCount)
	if len(ps) != 1 {
		t.Fatalf("Select(%s) = %d plans", assertion.CheckASGVersionCount, len(ps))
	}
	return ps[0]
}

func TestDefaultCatalogValidates(t *testing.T) {
	cat := DefaultCatalog()
	if err := cat.Validate(assertion.DefaultRegistry()); err != nil {
		t.Fatal(err)
	}
	plans := cat.All()
	if len(plans) != 10 {
		t.Errorf("plan count = %d", len(plans))
	}
	for _, p := range plans {
		if !strings.HasPrefix(p.ID, upgradePrefix) {
			t.Errorf("rolling-upgrade plan %s lacks the %q prefix", p.ID, upgradePrefix)
		}
		if got := cat.Select(p.AssertionID); len(got) != 1 || got[0] != p {
			t.Errorf("Select(%s) does not return exactly %s", p.AssertionID, p.ID)
		}
	}
}

func TestSelectByAssertion(t *testing.T) {
	if p := versionCountPlan(t); p.ID != "ft-version-count" {
		t.Errorf("plan = %s", p.ID)
	}
	if len(DefaultCatalog().Select("unknown-assertion")) != 0 {
		t.Error("unknown assertion returned plans")
	}
}

func TestInstantiateSubstitutesParams(t *testing.T) {
	p := versionCountPlan(t)
	inst := p.Instantiate(assertion.Params{
		assertion.ParamASG: "ASG-dsn", assertion.ParamWant: "4",
		assertion.ParamVersion: "v2", assertion.ParamAMI: "ami-750c9e4f",
	})
	if got := RefEntryNode(inst).Description; !strings.Contains(got, "4 instances with version v2") {
		t.Errorf("entry description = %q", got)
	}
	var found bool
	for _, n := range inst.Nodes {
		if strings.Contains(n.Description, "ASG-dsn") {
			found = true
		}
		if strings.Contains(n.Description, "{asgid}") {
			t.Errorf("unsubstituted placeholder in %q", n.Description)
		}
	}
	if !found {
		t.Error("asg name not substituted anywhere")
	}
	if !strings.Contains(RefEntryNode(p).Description, "{want}") {
		t.Error("Instantiate mutated the shipped plan")
	}
}

func entryChildIDs(p *Plan) []string {
	var out []string
	for _, c := range RefChildren(p, RefEntryNode(p)) {
		out = append(out, c.ID)
	}
	return out
}

func TestPruneByStepContext(t *testing.T) {
	p := versionCountPlan(t)
	// In step2 context only the LC-creation and wrong-config sub-trees
	// survive.
	ids := entryChildIDs(p.Prune(process.StepUpdateLC))
	if len(ids) != 2 {
		t.Fatalf("step2 children = %v", ids)
	}
	for _, id := range ids {
		if id != "lc-create-failed" && id != "asg-wrong-config" {
			t.Errorf("unexpected child %s in step2 context", id)
		}
	}
	// In step7 context the launch/count/elb/config sub-trees survive but
	// not LC creation.
	for _, id := range entryChildIDs(p.Prune(process.StepNewReady)) {
		if id == "lc-create-failed" {
			t.Error("lc-create-failed survived step7 pruning")
		}
	}
	// Unknown context keeps everything.
	if got := len(entryChildIDs(p.Prune(""))); got != 5 {
		t.Errorf("empty-step prune kept %d children, want 5", got)
	}
	if got := len(RefEntryNode(p).Edges); got != 5 {
		t.Errorf("shipped plan mutated: %d entry edges", got)
	}
}

func TestPotentialRootCausesOrdering(t *testing.T) {
	causes := RefPotentialRootCauses(versionCountPlan(t))
	if len(causes) < 10 {
		t.Fatalf("only %d potential root causes", len(causes))
	}
	idxOf := func(id string) int {
		for i, c := range causes {
			if c.ID == id {
				return i
			}
		}
		return -1
	}
	// Within the wrong-config sub-tree, wrong-ami (p=0.25) must be visited
	// before wrong-instance-type (p=0.10).
	if idxOf("wrong-ami") == -1 || idxOf("wrong-instance-type") == -1 {
		t.Fatal("expected causes missing")
	}
	if idxOf("wrong-ami") > idxOf("wrong-instance-type") {
		t.Error("probability ordering not respected")
	}
}

func TestRelevantToProperty(t *testing.T) {
	// Property: a node is always relevant to the empty step; an unscoped
	// node is relevant to any step; a scoped node is relevant exactly to
	// its steps.
	f := func(steps []string, probe string) bool {
		n := &Node{ID: "x", Steps: steps}
		if !n.RelevantTo("") {
			return false
		}
		if probe == "" || len(steps) == 0 {
			return n.RelevantTo(probe)
		}
		want := false
		for _, s := range steps {
			if s == probe {
				want = true
			}
		}
		return n.RelevantTo(probe) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTerminationLeafUsesAuditTrailCheck(t *testing.T) {
	p := DefaultCatalog().Select(assertion.CheckASGInstanceCount)[0]
	var found *Node
	for _, n := range p.Nodes {
		if strings.HasPrefix(n.ID, "unexpected-termination") {
			found = n
		}
	}
	if found == nil {
		t.Fatal("unexpected-termination cause missing")
	}
	// The fault is diagnosable only through the CloudTrail-like audit
	// trail; with the trail disabled (the default) the check is
	// inconclusive and the cause can only be suspected, as in the paper.
	if found.CheckID != assertion.CheckNoExternalTermination {
		t.Errorf("check = %q", found.CheckID)
	}
	if found.TestClass != TestClassNoRetry {
		t.Errorf("test class = %q", found.TestClass)
	}
	if !found.IsCause() {
		t.Error("unexpected-termination should be a root cause")
	}
}

func TestAccountLimitCauseExists(t *testing.T) {
	// The §VI.A amendment: account-limit-reached must be diagnosable.
	for _, c := range RefPotentialRootCauses(versionCountPlan(t)) {
		if c.ID == "account-limit-reached" {
			if c.CheckID != assertion.CheckNoLimitExceeded {
				t.Error("account-limit cause has wrong check")
			}
			return
		}
	}
	t.Fatal("account-limit-reached cause missing")
}

func TestFullCatalogAddsScenarios(t *testing.T) {
	cat := FullCatalog()
	if err := cat.Validate(assertion.DefaultRegistry()); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"plan-bluegreen", "plan-bluegreen-elb", "plan-bluegreen-lc", "plan-spot-rebalance", "ft-version-count"} {
		if cat.Get(id) == nil {
			t.Fatalf("FullCatalog missing %s", id)
		}
	}
	// Scenario plans and rolling-upgrade plans select on the same
	// assertion ids but are disjoint under step pruning: in a rolling
	// upgrade context the scenario plan reduces to its bare entry, and
	// vice versa under a blue/green step.
	for _, tc := range []struct {
		step, live, dead string
	}{
		{"step3", "ft-version-count", "plan-bluegreen"},
		{"bgstep4", "plan-bluegreen", "ft-version-count"},
	} {
		for _, p := range cat.Select(assertion.CheckASGVersionCount) {
			causes := len(RefPotentialRootCauses(p.Prune(tc.step)))
			if p.ID == tc.live && causes == 0 {
				t.Errorf("%s lost its causes under %s", p.ID, tc.step)
			}
			if p.ID == tc.dead && causes != 0 {
				t.Errorf("%s should prune to no causes under %s, got %d", p.ID, tc.step, causes)
			}
		}
	}
}

// Plans register in a fixed order — rolling-upgrade plans then scenario
// plans, each by plan id — so every catalog numbers the nodes alike.
func TestCatalogIndexesDeterministic(t *testing.T) {
	a, b := FullCatalog(), FullCatalog()
	if a.NodeCount() != b.NodeCount() {
		t.Fatalf("node counts %d and %d", a.NodeCount(), b.NodeCount())
	}
	for _, ca := range a.Compiled("") {
		var cb *Compiled
		for _, c := range b.Compiled("") {
			if c.Plan == ca.Plan {
				cb = c
			}
		}
		if cb == nil {
			t.Fatalf("plan %s missing from the second catalog", ca.Plan.ID)
		}
		va, vb := ca.View("", false), cb.View("", false)
		for _, n := range ca.Plan.Nodes {
			if ia, ib := va.Node(n.ID).Index, vb.Node(n.ID).Index; ia != ib {
				t.Errorf("%s/%s: index %d and %d", ca.Plan.ID, n.ID, ia, ib)
			}
		}
	}
}
