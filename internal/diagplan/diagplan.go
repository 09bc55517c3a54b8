// Package diagplan implements declarative diagnosis plans: directed
// acyclic graphs of diagnosis nodes that generalize the paper's fault
// trees (§III.B.4, Figure 5) into the adjacency-list style of kubediag's
// OperationSet. A plan is a JSON document of nodes and probability-
// weighted edges; collector nodes can feed several tester sub-graphs,
// shared sub-graphs are expressed once and referenced by many parents
// (fan-in), and cycles are rejected at load time.
//
// A Plan is the document: parsed, validated, rendered. Registering it in a
// Catalog compiles it, and the Compiled form is the only way to read the
// graph: per process context (step id) a View keeps the entry and the
// step-relevant nodes reachable from it. At diagnosis time the failing
// assertion's id selects the plans, the step picks each plan's view, and
// the diagnosis engine visits it entry-down in per-edge probability order,
// rendering {var} placeholders from the request's parameters.
package diagplan

import (
	"fmt"
	"slices"
	"strings"

	"poddiagnosis/internal/assertion"
)

// Kind classifies a plan node for validation and rendering. The walk
// semantics derive from structure (check present, outgoing edges, cause
// or not); the kind states the author's intent so lint can flag
// mismatches.
type Kind string

// Node kinds.
const (
	// KindEntry is the plan's top event (the failing assertion's
	// negation). It carries no check and is always descended into.
	KindEntry Kind = "entry"
	// KindCollector gathers shared context: a passing check excludes
	// everything downstream of it, a failing or inconclusive one descends.
	// Collectors are the shareable interior nodes several testers fan out
	// of (and several parents fan into).
	KindCollector Kind = "collector"
	// KindTest is an intermediate diagnosis test with the same walk
	// semantics as a collector; the separate kind documents nodes that
	// verify one specific condition rather than collect context.
	KindTest Kind = "test"
	// KindCause is a diagnosable root cause: a sink node whose failing
	// check confirms the fault.
	KindCause Kind = "cause"
)

// Test classifications for Node.TestClass.
const (
	// TestClassRetryable marks a test safe to retry under backoff when it
	// fails with a throttle/timeout-class error (read-only cloud queries).
	TestClassRetryable = "retryable"
	// TestClassNoRetry marks a test that must not be retried (its answer
	// is time-sensitive or the call is not idempotent).
	TestClassNoRetry = "no-retry"
)

// Edge is one directed edge of a plan.
type Edge struct {
	// To is the target node id.
	To string `json:"to"`
	// Prob is the prior fault probability of the target relative to its
	// siblings under this parent (§III.B.4: visit order is determined by
	// the fault probability). Fan-in targets may carry a different prior
	// per incoming edge.
	Prob float64 `json:"prob,omitempty"`
}

// Node is one vertex of a diagnosis plan.
type Node struct {
	// ID identifies the node within its plan, e.g. "wrong-ami".
	ID string `json:"id"`
	// Kind classifies the node (entry, collector, test, cause).
	Kind Kind `json:"kind"`
	// Description explains the fault or intermediate event; it may
	// contain {param} placeholders instantiated at diagnosis time.
	Description string `json:"description,omitempty"`
	// CheckID names the diagnosis test (an assertion check id) that
	// confirms or excludes this node: the fault is present when the check
	// FAILS. Empty means no test exists — uncheckable interior nodes are
	// always descended into; uncheckable causes can never be confirmed
	// (the paper's "diagnosis cannot determine why" case).
	CheckID string `json:"checkId,omitempty"`
	// CheckParams override or extend the request parameters for the
	// diagnosis test; values may contain {param} placeholders.
	CheckParams assertion.Params `json:"checkParams,omitempty"`
	// TestClass classifies the diagnosis test's failure handling for the
	// resilience layer: TestClassRetryable tests are retried with backoff
	// on throttle/timeout-class errors, TestClassNoRetry tests are not.
	// Required (by podlint DG009) on every node carrying a CheckID.
	TestClass string `json:"testClass,omitempty"`
	// Steps is the process context association: the step ids for which
	// this node is relevant. Empty means relevant in any context.
	Steps []string `json:"steps,omitempty"`
	// Edges are the sub-events that can cause this event.
	Edges []Edge `json:"edges,omitempty"`
}

// Clone deep-copies the node.
func (n *Node) Clone() *Node {
	out := *n
	out.CheckParams = n.CheckParams.Clone()
	out.Steps = append([]string(nil), n.Steps...)
	out.Edges = append([]Edge(nil), n.Edges...)
	return &out
}

// IsCause reports whether the node is a diagnosable root cause.
func (n *Node) IsCause() bool { return n.Kind == KindCause }

// RelevantTo reports whether the node applies in the given step context.
// An empty stepID (context unknown, e.g. purely timer-triggered
// diagnosis) keeps every node; an unscoped node is always relevant.
func (n *Node) RelevantTo(stepID string) bool {
	if stepID == "" || len(n.Steps) == 0 {
		return true
	}
	for _, s := range n.Steps {
		if s == stepID {
			return true
		}
	}
	return false
}

// Plan is a diagnosis DAG for one assertion.
type Plan struct {
	// ID identifies the plan.
	ID string `json:"id"`
	// AssertionID is the check whose failure selects this plan.
	AssertionID string `json:"assertionId,omitempty"`
	// Description summarizes the plan for catalogs and renderings.
	Description string `json:"description,omitempty"`
	// Entry is the id of the entry node the walk starts from.
	Entry string `json:"entry"`
	// Nodes is the adjacency-list document body.
	Nodes []*Node `json:"nodes"`
}

// Node returns the first node with the given id, or nil. It scans: plans
// are small, and walks read the compiled views instead (Catalog.Get).
func (p *Plan) Node(id string) *Node {
	for _, n := range p.Nodes {
		if n != nil && n.ID == id {
			return n
		}
	}
	return nil
}

// indexNodes maps each node id to its position in p.Nodes. It refuses a nil
// node and an empty or duplicate id.
func indexNodes(p *Plan) (map[string]int, error) {
	idx := make(map[string]int, len(p.Nodes))
	for i, n := range p.Nodes {
		if n == nil {
			return nil, fmt.Errorf("diagplan %s: nil node", p.ID)
		}
		if n.ID == "" {
			return nil, fmt.Errorf("diagplan %s: node with empty id", p.ID)
		}
		if _, dup := idx[n.ID]; dup {
			return nil, fmt.Errorf("diagplan %s: duplicate node id %q", p.ID, n.ID)
		}
		idx[n.ID] = i
	}
	return idx, nil
}

// Validate checks structural invariants: a resolvable entry without a
// check or incoming edges, unique node ids, edges resolving to known
// nodes (no duplicate targets per parent), causes as sinks, known kinds,
// acyclicity, and (when reg is non-nil) every CheckID known to the
// registry.
func (p *Plan) Validate(reg *assertion.Registry) error {
	if p.ID == "" {
		return fmt.Errorf("diagplan: plan with empty id")
	}
	idx, err := indexNodes(p)
	if err != nil {
		return err
	}
	return p.validate(idx, reg)
}

// validate is Validate on the plan's id index (indexNodes).
func (p *Plan) validate(idx map[string]int, reg *assertion.Registry) error {
	ei, ok := idx[p.Entry]
	if !ok {
		return fmt.Errorf("diagplan %s: entry %q is not a node", p.ID, p.Entry)
	}
	if entry := p.Nodes[ei]; entry.CheckID != "" {
		return fmt.Errorf("diagplan %s: entry %q carries a check (%s) — the failing assertion already fired", p.ID, p.Entry, entry.CheckID)
	}
	for _, n := range p.Nodes {
		switch n.Kind {
		case KindEntry, KindCollector, KindTest, KindCause:
		default:
			return fmt.Errorf("diagplan %s: node %q has unknown kind %q", p.ID, n.ID, n.Kind)
		}
		if n.IsCause() && len(n.Edges) > 0 {
			return fmt.Errorf("diagplan %s: cause %q has outgoing edges", p.ID, n.ID)
		}
		for i, e := range n.Edges {
			if _, ok := idx[e.To]; !ok {
				return fmt.Errorf("diagplan %s: node %q has an edge to unknown node %q", p.ID, n.ID, e.To)
			}
			if slices.ContainsFunc(n.Edges[:i], func(d Edge) bool { return d.To == e.To }) {
				return fmt.Errorf("diagplan %s: node %q has duplicate edges to %q", p.ID, n.ID, e.To)
			}
			if e.To == p.Entry {
				return fmt.Errorf("diagplan %s: node %q has an edge into the entry %q", p.ID, n.ID, e.To)
			}
		}
		if n.CheckID != "" && reg != nil {
			if _, ok := reg.Lookup(n.CheckID); !ok {
				return fmt.Errorf("diagplan %s: node %q references unknown check %q", p.ID, n.ID, n.CheckID)
			}
		}
	}
	if cyc := p.findCycle(idx); len(cyc) > 0 {
		return fmt.Errorf("diagplan %s: cycle %s", p.ID, strings.Join(cyc, " -> "))
	}
	return nil
}

// findCycle returns one cycle as a node-id path (closing node repeated),
// or nil when the plan is acyclic. It scans every node, not just those
// reachable from the entry, so orphan sub-graphs cannot smuggle cycles.
// Every edge must resolve in idx.
func (p *Plan) findCycle(idx map[string]int) []string {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]byte, len(p.Nodes))
	var path []string
	var dfs func(i int) []string
	dfs = func(i int) []string {
		color[i] = grey
		path = append(path, p.Nodes[i].ID)
		for _, e := range p.Nodes[i].Edges {
			switch t := idx[e.To]; color[t] {
			case grey:
				// Close the cycle at its first occurrence on the path.
				for j, id := range path {
					if id == e.To {
						return append(append([]string(nil), path[j:]...), e.To)
					}
				}
			case white:
				if cyc := dfs(t); cyc != nil {
					return cyc
				}
			}
		}
		color[i] = black
		path = path[:len(path)-1]
		return nil
	}
	for i := range p.Nodes {
		if color[i] == white {
			path = path[:0]
			if cyc := dfs(i); cyc != nil {
				return cyc
			}
		}
	}
	return nil
}

// Clone deep-copies the plan.
func (p *Plan) Clone() *Plan {
	out := &Plan{ID: p.ID, AssertionID: p.AssertionID, Description: p.Description, Entry: p.Entry}
	out.Nodes = make([]*Node, len(p.Nodes))
	for i, n := range p.Nodes {
		out.Nodes[i] = n.Clone()
	}
	return out
}

// sortedEdges orders edges by descending probability; insertion sort keeps
// ties stable and edge lists are tiny.
func sortedEdges(edges []Edge) []Edge {
	out := append([]Edge(nil), edges...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Prob > out[j-1].Prob; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Instantiate returns a deep copy with every {param} placeholder in
// descriptions and check parameters substituted from params. Unknown
// placeholders are left intact so partially-instantiated plans remain
// inspectable.
func (p *Plan) Instantiate(params assertion.Params) *Plan {
	out := p.Clone()
	for _, n := range out.Nodes {
		n.Description = parseTemplate(n.Description).render(params)
		for k, v := range n.CheckParams {
			n.CheckParams[k] = parseTemplate(v).render(params)
		}
	}
	return out
}

// Prune returns a deep copy keeping the nodes and edges the plan's compiled
// view for stepID keeps (Compiled.View): the entry and every node reachable
// from it through step-relevant targets. A plan whose node ids do not index
// keeps nothing.
func (p *Plan) Prune(stepID string) *Plan {
	out := &Plan{ID: p.ID, AssertionID: p.AssertionID, Description: p.Description, Entry: p.Entry}
	c, err := compile(p, 0)
	if err != nil {
		return out
	}
	v := c.View(stepID, true)
	for _, n := range p.Nodes {
		if v.Node(n.ID) != nil {
			n = n.Clone()
			n.Edges = slices.DeleteFunc(n.Edges, func(e Edge) bool { return v.Node(e.To) == nil })
			out.Nodes = append(out.Nodes, n)
		}
	}
	return out
}
