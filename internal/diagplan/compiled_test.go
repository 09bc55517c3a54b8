package diagplan_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/diagplan"
)

// oddPlans are documents Validate would reject but Register accepts: the
// compiled views must treat them exactly as the reference reads do.
func oddPlans() []*diagplan.Plan {
	return []*diagplan.Plan{
		{ID: "odd-dangling", AssertionID: "odd", Entry: "e", Nodes: []*diagplan.Node{
			{ID: "e", Kind: diagplan.KindEntry, Edges: []diagplan.Edge{{To: "ghost", Prob: 0.9}, {To: "c", Prob: 0.5}, {To: "c", Prob: 0.4}}},
			{ID: "c", Kind: diagplan.KindCause, Description: "c of {asgid}", Steps: []string{"s1"}},
			{ID: "orphan", Kind: diagplan.KindCollector, Edges: []diagplan.Edge{{To: "c", Prob: 1}}},
		}},
		{ID: "odd-cycle", AssertionID: "odd", Entry: "e", Nodes: []*diagplan.Node{
			{ID: "e", Kind: diagplan.KindEntry, Edges: []diagplan.Edge{{To: "a", Prob: 1}}},
			{ID: "a", Kind: diagplan.KindCollector, Edges: []diagplan.Edge{{To: "b", Prob: 1}}},
			{ID: "b", Kind: diagplan.KindCollector, Steps: []string{"s2"}, Edges: []diagplan.Edge{{To: "a", Prob: 1}, {To: "k", Prob: 0.5}}},
			{ID: "k", Kind: diagplan.KindCause},
		}},
		{ID: "odd-no-entry", AssertionID: "odd", Entry: "missing", Nodes: []*diagplan.Node{
			{ID: "x", Kind: diagplan.KindCollector, Edges: []diagplan.Edge{{To: "y", Prob: 1}}},
			{ID: "y", Kind: diagplan.KindCause},
		}},
	}
}

// Every compiled view answers as the reference reads (reference_test.go)
// answer on the plan pruned for that step: the registration-time tables are
// those reads' results, no more.
func TestCompiledViewsMatchPlanMethods(t *testing.T) {
	cat := diagplan.FullCatalog()
	for _, p := range oddPlans() {
		cat.MustRegister(p)
	}
	params := assertion.Params{
		assertion.ParamASG: "pm--asg", assertion.ParamELB: "pm-elb", assertion.ParamAMI: "ami-1",
		assertion.ParamLC: "lc-2", assertion.ParamWant: "2", assertion.ParamVersion: "v2",
	}
	ids := func(ns []*diagplan.Node) []string {
		var out []string
		for _, n := range ns {
			out = append(out, n.ID)
		}
		return out
	}
	vids := func(ns []*diagplan.VNode) []string {
		var out []string
		for _, n := range ns {
			out = append(out, n.ID)
		}
		return out
	}
	indexOwner := map[int]string{}
	views := 0
	for _, c := range cat.Compiled("") {
		p := c.Plan
		steps := []string{"", "a-step-nobody-names"}
		for _, n := range p.Nodes {
			steps = append(steps, n.Steps...)
		}
		for _, step := range steps {
			for _, prune := range []bool{true, false} {
				want := p
				if prune {
					want = diagplan.RefPrune(p, step)
				}
				inst := want.Instantiate(params)
				v := c.View(step, prune)
				views++
				if got := len(diagplan.RefPotentialRootCauses(want)); v.PotentialFaults != got {
					t.Errorf("%s step %q prune=%t: PotentialFaults = %d, want %d", p.ID, step, prune, v.PotentialFaults, got)
				}
				if (v.Entry == nil) != (diagplan.RefEntryNode(want) == nil) || (v.Entry != nil && v.Entry.ID != p.Entry) {
					t.Errorf("%s step %q prune=%t: entry %v", p.ID, step, prune, v.Entry)
				}
				for _, n := range p.Nodes {
					at := p.ID + "/" + n.ID + " step " + step
					vn := v.Node(n.ID)
					if (vn != nil) != diagplan.RefHas(want, n.ID) {
						t.Errorf("%s prune=%t: in view %t, in pruned plan %t", at, prune, vn != nil, diagplan.RefHas(want, n.ID))
					}
					if vn == nil {
						continue
					}
					wn := want.Node(n.ID)
					if vn.ID != n.ID || vn.CheckID != n.CheckID || vn.TestClass != n.TestClass || vn.Cause != n.IsCause() {
						t.Errorf("%s: node fields %+v", at, vn)
					}
					if got, w := vids(vn.Children), ids(diagplan.RefChildren(want, wn)); !reflect.DeepEqual(got, w) {
						t.Errorf("%s prune=%t: children %v, want %v", at, prune, got, w)
					}
					if got, w := vids(vn.CausesUnder), diagplan.RefCausesUnder(want, n.ID); !reflect.DeepEqual(got, w) {
						t.Errorf("%s prune=%t: causes under %v, want %v", at, prune, got, w)
					}
					wantPath := ""
					if pt := diagplan.RefPathTo(want, n.ID); pt != "" {
						wantPath = p.ID + ":" + pt
					}
					if vn.Path != wantPath {
						t.Errorf("%s prune=%t: path %q, want %q", at, prune, vn.Path, wantPath)
					}
					if w := strings.Join(diagplan.RefParents(want, n.ID), ","); vn.Parents != w {
						t.Errorf("%s prune=%t: parents %q, want %q", at, prune, vn.Parents, w)
					}
					in := inst.Node(n.ID)
					if got := vn.Description(params); got != in.Description {
						t.Errorf("%s: description %q, want %q", at, got, in.Description)
					}
					if got, w := vn.TestParams(params), params.Merge(in.CheckParams); !reflect.DeepEqual(got, w) {
						t.Errorf("%s: test params %v, want %v", at, got, w)
					}
					if owner, taken := indexOwner[vn.Index]; taken && owner != p.ID+"/"+n.ID {
						t.Errorf("%s: index %d also names %s", at, vn.Index, owner)
					}
					indexOwner[vn.Index] = p.ID + "/" + n.ID
					if vn.Index < 0 || vn.Index >= cat.NodeCount() {
						t.Errorf("%s: index %d outside [0,%d)", at, vn.Index, cat.NodeCount())
					}
				}
			}
		}
	}
	if len(indexOwner) != cat.NodeCount() {
		t.Errorf("%d distinct node indexes for %d nodes", len(indexOwner), cat.NodeCount())
	}
	t.Logf("%d views over %d plans, %d nodes", views, len(cat.All()), cat.NodeCount())
}

// Prune keeps what the step's compiled view keeps, which is what the
// breadth-first prune it replaced kept: the same nodes and edges, in
// document order.
func TestPruneMatchesReference(t *testing.T) {
	cat := diagplan.FullCatalog()
	for _, p := range oddPlans() {
		cat.MustRegister(p)
	}
	for _, c := range cat.Compiled("") {
		p := c.Plan
		steps := []string{"", "a-step-nobody-names"}
		for _, n := range p.Nodes {
			steps = append(steps, n.Steps...)
		}
		for _, step := range steps {
			if got, want := p.Prune(step), diagplan.RefPrune(p, step); !reflect.DeepEqual(got, want) {
				t.Errorf("%s step %q: Prune kept %+v, want %+v", p.ID, step, got.Nodes, want.Nodes)
			}
		}
	}
}

// Compiled follows Select for a named assertion and All for none.
func TestCatalogCompiledSelection(t *testing.T) {
	cat := diagplan.FullCatalog()
	planIDs := func(cs []*diagplan.Compiled) []string {
		var out []string
		for _, c := range cs {
			out = append(out, c.Plan.ID)
		}
		return out
	}
	want := func(ps []*diagplan.Plan) []string {
		var out []string
		for _, p := range ps {
			out = append(out, p.ID)
		}
		return out
	}
	if got, w := planIDs(cat.Compiled("")), want(cat.All()); !reflect.DeepEqual(got, w) {
		t.Errorf("Compiled(\"\") = %v, want All() = %v", got, w)
	}
	for _, p := range cat.All() {
		if got, w := planIDs(cat.Compiled(p.AssertionID)), want(cat.Select(p.AssertionID)); !reflect.DeepEqual(got, w) {
			t.Errorf("Compiled(%q) = %v, want Select = %v", p.AssertionID, got, w)
		}
	}
	if got := cat.Compiled("no-such-assertion"); len(got) != 0 {
		t.Errorf("Compiled of an unknown assertion = %v", planIDs(got))
	}
}

// A plan whose node ids do not index cannot be compiled, so Register
// refuses it.
func TestRegisterRejectsUnindexablePlans(t *testing.T) {
	for name, p := range map[string]*diagplan.Plan{
		"duplicate id": {ID: "p", Entry: "a", Nodes: []*diagplan.Node{{ID: "a", Kind: diagplan.KindEntry}, {ID: "a", Kind: diagplan.KindCause}}},
		"empty id":     {ID: "p", Entry: "a", Nodes: []*diagplan.Node{{ID: "a", Kind: diagplan.KindEntry}, {Kind: diagplan.KindCause}}},
		"nil node":     {ID: "p", Entry: "a", Nodes: []*diagplan.Node{{ID: "a", Kind: diagplan.KindEntry}, nil}},
	} {
		cat := diagplan.NewCatalog()
		if err := cat.Register(p); err == nil {
			t.Errorf("%s: registered", name)
		}
		if cat.Get("p") != nil || cat.NodeCount() != 0 {
			t.Errorf("%s: a refused plan left a trace in the catalog", name)
		}
	}
}

// Views are tabulated on first use; concurrent first uses must agree on one
// View per step context (run with -race).
func TestViewsBuiltOnceUnderConcurrency(t *testing.T) {
	cat := diagplan.FullCatalog()
	const workers = 8
	got := make([][]*diagplan.View, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, c := range cat.Compiled("") {
				for _, step := range []string{"", "step7", "bgstep4", "nobody"} {
					got[w] = append(got[w], c.View(step, true), c.View(step, false))
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range got[0] {
			if got[w][i] != got[0][i] {
				t.Fatalf("worker %d saw a different view %d than worker 0", w, i)
			}
		}
	}
}
