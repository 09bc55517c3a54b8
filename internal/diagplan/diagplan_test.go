package diagplan

import (
	"bytes"
	"strings"
	"testing"

	"poddiagnosis/internal/assertion"
)

// small hand-built plan with a fan-in: entry -> a, b; a -> cause-x; b -> cause-x, cause-y.
func fanInPlan(t testing.TB) *Plan {
	t.Helper()
	p := &Plan{
		ID:          "plan-test",
		AssertionID: "asg-instance-count",
		Description: "test plan",
		Entry:       "entry",
		Nodes: []*Node{
			{ID: "entry", Kind: KindEntry, Description: "violated", Edges: []Edge{
				{To: "a", Prob: 0.6}, {To: "b", Prob: 0.4},
			}},
			{ID: "a", Kind: KindCollector, Description: "branch a", CheckID: "asg-instance-count",
				Steps: []string{"step1"}, Edges: []Edge{{To: "cause-x", Prob: 0.9}}},
			{ID: "b", Kind: KindCollector, Description: "branch b", CheckID: "no-failed-launches",
				Steps: []string{"step1", "step2"}, Edges: []Edge{
					{To: "cause-x", Prob: 0.5}, {To: "cause-y", Prob: 0.3},
				}},
			{ID: "cause-x", Kind: KindCause, Description: "cause x on {asgid}", CheckID: "ami-available"},
			{ID: "cause-y", Kind: KindCause, Description: "cause y", CheckID: "sg-exists"},
		},
	}
	if err := p.Validate(nil); err != nil {
		t.Fatalf("fan-in plan invalid: %v", err)
	}
	return p
}

func TestValidateRejectsCycles(t *testing.T) {
	p := fanInPlan(t)
	// Introduce a back-edge cause-x -> a, turning the DAG into a cycle.
	n := p.Node("cause-x")
	n.Kind = KindCollector
	n.Edges = []Edge{{To: "a", Prob: 0.5}}
	err := p.Validate(nil)
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("expected cycle error, got %v", err)
	}
}

func TestValidateRejectsBadShapes(t *testing.T) {
	cases := []struct {
		name string
		mut  func(p *Plan)
		want string
	}{
		{"missing entry", func(p *Plan) { p.Entry = "nope" }, "entry"},
		{"entry with check", func(p *Plan) { p.Node("entry").CheckID = "asg-instance-count" }, "entry"},
		{"edge into entry", func(p *Plan) {
			p.Node("a").Edges = append(p.Node("a").Edges, Edge{To: "entry", Prob: 0.1})
		}, "entry"},
		{"unknown kind", func(p *Plan) { p.Node("a").Kind = "widget" }, "kind"},
		{"cause with edges", func(p *Plan) {
			p.Node("cause-y").Edges = []Edge{{To: "cause-x", Prob: 0.2}}
		}, "cause"},
		{"dangling edge", func(p *Plan) { p.Node("b").Edges[0].To = "ghost" }, "ghost"},
		{"duplicate edge", func(p *Plan) {
			p.Node("a").Edges = append(p.Node("a").Edges, Edge{To: "cause-x", Prob: 0.1})
		}, "duplicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := fanInPlan(t)
			tc.mut(p)
			err := p.Validate(nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error mentioning %q, got %v", tc.want, err)
			}
		})
	}
}

func TestValidateUnknownCheck(t *testing.T) {
	p := fanInPlan(t)
	p.Node("a").CheckID = "no-such-check"
	if err := p.Validate(assertion.DefaultRegistry()); err == nil {
		t.Fatal("expected unknown check error")
	}
}

func TestParentsAndCausesUnder(t *testing.T) {
	p := fanInPlan(t)
	got := RefParents(p, "cause-x")
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Parents(cause-x) = %v, want [a b]", got)
	}
	causes := RefCausesUnder(p, "b")
	if len(causes) != 2 || causes[0] != "cause-x" || causes[1] != "cause-y" {
		t.Fatalf("CausesUnder(b) = %v", causes)
	}
	all := RefPotentialRootCauses(p)
	if len(all) != 2 {
		t.Fatalf("PotentialRootCauses = %v, want 2 unique causes", all)
	}
}

func TestPathToPrefersProbability(t *testing.T) {
	p := fanInPlan(t)
	// cause-x is reachable via a (0.6*0.9) and b (0.4*0.5); the preferred
	// path walks highest-probability edges first.
	if got := RefPathTo(p, "cause-x"); got != "entry/a/cause-x" {
		t.Fatalf("PathTo(cause-x) = %q", got)
	}
	if got := RefPathTo(p, "cause-y"); got != "entry/b/cause-y" {
		t.Fatalf("PathTo(cause-y) = %q", got)
	}
}

func TestPruneKeepsSharedReachable(t *testing.T) {
	p := fanInPlan(t)
	pruned := p.Prune("step2")
	// Only branch b is relevant to step2; a is dropped, but cause-x stays
	// reachable through b.
	if RefHas(pruned, "a") {
		t.Fatal("a should be pruned for step2")
	}
	for _, id := range []string{"entry", "b", "cause-x", "cause-y"} {
		if !RefHas(pruned, id) {
			t.Fatalf("%s should survive prune", id)
		}
	}
	if err := pruned.Validate(nil); err != nil {
		t.Fatalf("pruned plan invalid: %v", err)
	}
	// Original untouched.
	if !RefHas(p, "a") {
		t.Fatal("prune mutated the original plan")
	}
}

func TestPruneEmptyStepKeepsAll(t *testing.T) {
	p := fanInPlan(t)
	pruned := p.Prune("")
	if len(pruned.Nodes) != len(p.Nodes) {
		t.Fatalf("empty step prune dropped nodes: %d != %d", len(pruned.Nodes), len(p.Nodes))
	}
}

func TestInstantiate(t *testing.T) {
	p := fanInPlan(t)
	inst := p.Instantiate(assertion.Params{"asgid": "asg-1"})
	if got := inst.Node("cause-x").Description; got != "cause x on asg-1" {
		t.Fatalf("Instantiate description = %q", got)
	}
	if p.Node("cause-x").Description != "cause x on {asgid}" {
		t.Fatal("Instantiate mutated the original")
	}
}

func TestChildrenOrderedByProbability(t *testing.T) {
	p := fanInPlan(t)
	kids := RefChildren(p, p.Node("entry"))
	if len(kids) != 2 || kids[0].ID != "a" || kids[1].ID != "b" {
		t.Fatalf("Children(entry) order wrong: %+v", kids)
	}
}

// Equal priors keep document order, and ordering leaves the edges alone.
func TestChildrenStableOnTies(t *testing.T) {
	ties := &Plan{ID: "ties", Entry: "e", Nodes: []*Node{
		{ID: "e", Kind: KindEntry, Edges: []Edge{{To: "a", Prob: 0.2}, {To: "b", Prob: 0.5}, {To: "c", Prob: 0.2}, {To: "d", Prob: 0.9}}},
		{ID: "a", Kind: KindCause}, {ID: "b", Kind: KindCause}, {ID: "c", Kind: KindCause}, {ID: "d", Kind: KindCause},
	}}
	var order []string
	for _, n := range RefChildren(ties, RefEntryNode(ties)) {
		order = append(order, n.ID)
	}
	if got := strings.Join(order, ","); got != "d,b,a,c" {
		t.Fatalf("Children with tied priors = %s, want d,b,a,c", got)
	}
	if RefEntryNode(ties).Edges[0].To != "a" {
		t.Fatal("Children reordered the plan's edges")
	}
}

// Shipped plan documents round-trip byte-stable through
// load -> validate -> render -> reload.
func TestGoldenRoundTrip(t *testing.T) {
	reg := assertion.DefaultRegistry()
	sources := Sources()
	if len(sources) != 14 {
		t.Errorf("%d shipped plan documents, want 14", len(sources))
	}
	for name, data := range sources {
		t.Run(name, func(t *testing.T) {
			p, err := Parse(data)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if err := p.Validate(reg); err != nil {
				t.Fatalf("validate: %v", err)
			}
			out, err := p.Render()
			if err != nil {
				t.Fatalf("render: %v", err)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("shipped %s is not canonical; run it through Render", name)
			}
			p2, err := Parse(out)
			if err != nil {
				t.Fatalf("reparse: %v", err)
			}
			out2, err := p2.Render()
			if err != nil {
				t.Fatalf("re-render: %v", err)
			}
			if !bytes.Equal(out, out2) {
				t.Fatal("render is not a fixed point")
			}
		})
	}
}

func TestScenarioPlansLoad(t *testing.T) {
	plans := shipped().scenarios
	if len(plans) != 4 {
		t.Fatalf("expected 4 scenario plans, got %d", len(plans))
	}
	want := []string{"plan-bluegreen", "plan-bluegreen-elb", "plan-bluegreen-lc", "plan-spot-rebalance"}
	for i, p := range plans {
		if p.ID != want[i] {
			t.Fatalf("plan %d = %s, want %s", i, p.ID, want[i])
		}
	}
	// The blue/green and spot plans share collector sub-graphs: the same
	// launch-failure causes appear under multiple plans and, inside
	// plan-bluegreen, under multiple parents (fan-in).
	bg := plans[0]
	if got := RefParents(bg, "launch-ami-unavailable"); len(got) < 2 {
		t.Fatalf("launch-ami-unavailable should have fan-in parents, got %v", got)
	}
	spot := plans[3]
	if got := RefParents(spot, "account-limit-reached"); len(got) != 2 {
		t.Fatalf("spot account-limit-reached parents = %v", got)
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	for _, p := range shipped().scenarios {
		c.MustRegister(p)
	}
	if err := c.Register(shipped().scenarios[0]); err == nil {
		t.Fatal("duplicate plan id should be rejected")
	}
	if got := len(c.Select("asg-version-count")); got != 1 {
		t.Fatalf("Select(asg-version-count) = %d plans", got)
	}
	if got := len(c.All()); got != 4 {
		t.Fatalf("All() = %d", got)
	}
	if err := c.Validate(assertion.DefaultRegistry()); err != nil {
		t.Fatalf("catalog validate: %v", err)
	}
}

func TestDOTRender(t *testing.T) {
	dot := fanInPlan(t).DOT()
	for _, want := range []string{"digraph", "doubleoctagon", "cause-x", "0.90"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestInstantiateLeavesUnknownPlaceholders(t *testing.T) {
	p := &Plan{ID: "p", Entry: "r", Nodes: []*Node{
		{ID: "r", Kind: KindEntry, Description: "fault in {mystery}", CheckParams: assertion.Params{"k": "{mystery}"}},
	}}
	n := p.Instantiate(assertion.Params{"other": "x"}).Node("r")
	if n.Description != "fault in {mystery}" || n.CheckParams["k"] != "{mystery}" {
		t.Errorf("description %q, check param %q", n.Description, n.CheckParams["k"])
	}
}

// Substitution is one left-to-right pass: a parameter value that itself
// looks like a placeholder is never substituted again, so the answer does
// not depend on map iteration order (ranging over the parameters and
// replacing key by key, it did).
func TestInstantiateSubstitutesInOnePass(t *testing.T) {
	params := assertion.Params{"a": "{b}", "b": "x"}
	p := &Plan{ID: "p", Entry: "e", Nodes: []*Node{
		{ID: "e", Kind: KindEntry, Description: "{a} then {b}", CheckParams: assertion.Params{"k": "{a}/{b}/{c}"}},
	}}
	for i := 0; i < 100; i++ {
		n := p.Instantiate(params).Node("e")
		if n.Description != "{b} then x" || n.CheckParams["k"] != "{b}/x/{c}" {
			t.Fatalf("run %d: description %q, check param %q", i, n.Description, n.CheckParams["k"])
		}
	}
}

func TestSubstituteEdgeCases(t *testing.T) {
	params := assertion.Params{"a": "A", "b": "", "": "empty"}
	for in, want := range map[string]string{
		"":              "",
		"plain":         "plain",
		"{a}":           "A",
		"x{a}y{a}z":     "xAyAz",
		"{a}{b}{a}":     "AA",
		"{unknown} {a}": "{unknown} A",
		"{":             "{",
		"}{a":           "}{a",
		"{a":            "{a",
		"a}":            "a}",
		"{}":            "empty",
		"{{a}}":         "{A}",
		"{x{a}y}":       "{xAy}",
		"{a}}{":         "A}{",
		"{ a }":         "{ a }",
	} {
		if got := parseTemplate(in).render(params); got != want {
			t.Errorf("render(%q) = %q, want %q", in, got, want)
		}
	}
	if got := parseTemplate("{a}").render(nil); got != "{a}" {
		t.Errorf("render with no params = %q", got)
	}
}
