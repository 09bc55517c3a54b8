// Package diagplan implements declarative diagnosis plans: directed
// acyclic graphs of diagnosis nodes that generalize the paper's fault
// trees (§III.B.4, Figure 5) into the adjacency-list style of kubediag's
// OperationSet. A plan is a JSON document of nodes and probability-
// weighted edges; collector nodes can feed several tester sub-graphs,
// shared sub-graphs are expressed once and referenced by many parents
// (fan-in), and cycles are rejected at load time.
//
// At diagnosis time a plan is selected by the failing assertion's id,
// instantiated with the runtime request's parameters ({var}
// placeholders), pruned by the process context (step id), and visited
// entry-down by the diagnosis engine in per-edge probability order.
package diagplan

import (
	"fmt"
	"sort"
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

// knownKind reports whether k is a registered node kind.
func knownKind(k Kind) bool {
	switch k {
	case KindEntry, KindCollector, KindTest, KindCause:
		return true
	}
	return false
}

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

// Leaf reports whether the node has no outgoing edges.
func (n *Node) Leaf() bool { return len(n.Edges) == 0 }

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

	index map[string]*Node // built by reindex; nil until then
}

// reindex (re)builds the id index. It reports duplicate or empty ids.
func (p *Plan) reindex() error {
	idx := make(map[string]*Node, len(p.Nodes))
	for _, n := range p.Nodes {
		if n == nil {
			return fmt.Errorf("diagplan %s: nil node", p.ID)
		}
		if n.ID == "" {
			return fmt.Errorf("diagplan %s: node with empty id", p.ID)
		}
		if _, dup := idx[n.ID]; dup {
			return fmt.Errorf("diagplan %s: duplicate node id %q", p.ID, n.ID)
		}
		idx[n.ID] = n
	}
	p.index = idx
	return nil
}

// Node returns the node with the given id, or nil.
func (p *Plan) Node(id string) *Node {
	if p.index == nil {
		if p.reindex() != nil {
			return nil
		}
	}
	return p.index[id]
}

// Has reports whether the plan contains a node with the given id.
func (p *Plan) Has(id string) bool { return p.Node(id) != nil }

// EntryNode returns the entry node, or nil for an invalid plan.
func (p *Plan) EntryNode() *Node { return p.Node(p.Entry) }

// Validate checks structural invariants: a resolvable entry without a
// check or incoming edges, unique node ids, edges resolving to known
// nodes (no duplicate targets per parent), causes as sinks, known kinds,
// acyclicity, and (when reg is non-nil) every CheckID known to the
// registry.
func (p *Plan) Validate(reg *assertion.Registry) error {
	if p.ID == "" {
		return fmt.Errorf("diagplan: plan with empty id")
	}
	if err := p.reindex(); err != nil {
		return err
	}
	entry := p.index[p.Entry]
	if p.Entry == "" || entry == nil {
		return fmt.Errorf("diagplan %s: entry %q is not a node", p.ID, p.Entry)
	}
	if entry.CheckID != "" {
		return fmt.Errorf("diagplan %s: entry %q carries a check (%s) — the failing assertion already fired", p.ID, p.Entry, entry.CheckID)
	}
	for _, n := range p.Nodes {
		if !knownKind(n.Kind) {
			return fmt.Errorf("diagplan %s: node %q has unknown kind %q", p.ID, n.ID, n.Kind)
		}
		if n.IsCause() && !n.Leaf() {
			return fmt.Errorf("diagplan %s: cause %q has outgoing edges", p.ID, n.ID)
		}
		seen := make(map[string]bool, len(n.Edges))
		for _, e := range n.Edges {
			t := p.index[e.To]
			if t == nil {
				return fmt.Errorf("diagplan %s: node %q has an edge to unknown node %q", p.ID, n.ID, e.To)
			}
			if seen[e.To] {
				return fmt.Errorf("diagplan %s: node %q has duplicate edges to %q", p.ID, n.ID, e.To)
			}
			seen[e.To] = true
			if t.ID == p.Entry {
				return fmt.Errorf("diagplan %s: node %q has an edge into the entry %q", p.ID, n.ID, e.To)
			}
		}
		if n.CheckID != "" && reg != nil {
			if _, ok := reg.Lookup(n.CheckID); !ok {
				return fmt.Errorf("diagplan %s: node %q references unknown check %q", p.ID, n.ID, n.CheckID)
			}
		}
	}
	if cyc := p.findCycle(); len(cyc) > 0 {
		return fmt.Errorf("diagplan %s: cycle %s", p.ID, strings.Join(cyc, " -> "))
	}
	return nil
}

// findCycle returns one cycle as a node-id path (closing node repeated),
// or nil when the plan is acyclic. It scans every node, not just those
// reachable from the entry, so orphan sub-graphs cannot smuggle cycles.
func (p *Plan) findCycle() []string {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[string]int, len(p.Nodes))
	var path []string
	var dfs func(n *Node) []string
	dfs = func(n *Node) []string {
		color[n.ID] = grey
		path = append(path, n.ID)
		for _, e := range n.Edges {
			t := p.index[e.To]
			switch color[t.ID] {
			case grey:
				// Close the cycle at its first occurrence on the path.
				for i, id := range path {
					if id == t.ID {
						return append(append([]string(nil), path[i:]...), t.ID)
					}
				}
			case white:
				if cyc := dfs(t); cyc != nil {
					return cyc
				}
			}
		}
		color[n.ID] = black
		path = path[:len(path)-1]
		return nil
	}
	for _, n := range p.Nodes {
		if color[n.ID] == white {
			path = path[:0]
			if cyc := dfs(n); cyc != nil {
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

// Children returns the node's edge targets ordered by descending edge
// probability (stable for ties, preserving document order).
func (p *Plan) Children(n *Node) []*Node {
	edges := sortedEdges(n.Edges)
	out := make([]*Node, 0, len(edges))
	for _, e := range edges {
		if t := p.Node(e.To); t != nil {
			out = append(out, t)
		}
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

// Parents returns the ids of every node with an edge into nodeID, sorted.
// Fan-in causes cite all of them on the evidence timeline.
func (p *Plan) Parents(nodeID string) []string {
	var out []string
	for _, n := range p.Nodes {
		for _, e := range n.Edges {
			if e.To == nodeID {
				out = append(out, n.ID)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// PathTo returns one canonical entry-to-node path as "/"-joined ids — the
// probability-preferred route a sequential walk would take — or "" when
// the node is unreachable from the entry. Fan-in nodes have several
// routes; Parents lists the others.
func (p *Plan) PathTo(nodeID string) string {
	entry := p.EntryNode()
	if entry == nil {
		return ""
	}
	visited := make(map[string]bool)
	var find func(n *Node, trail []string) string
	find = func(n *Node, trail []string) string {
		if visited[n.ID] {
			return ""
		}
		visited[n.ID] = true
		trail = append(trail, n.ID)
		if n.ID == nodeID {
			return strings.Join(trail, "/")
		}
		for _, c := range p.Children(n) {
			if path := find(c, trail); path != "" {
				return path
			}
		}
		return ""
	}
	return find(entry, nil)
}

// Instantiate returns a deep copy with every {param} placeholder in
// descriptions and check parameters substituted from params. Unknown
// placeholders are left intact so partially-instantiated plans remain
// inspectable.
func (p *Plan) Instantiate(params assertion.Params) *Plan {
	out := p.Clone()
	for _, n := range out.Nodes {
		n.Description = substitute(n.Description, params)
		for k, v := range n.CheckParams {
			n.CheckParams[k] = substitute(v, params)
		}
	}
	return out
}

// Prune returns a deep copy retaining only the nodes reachable from the
// entry through step-relevant targets. The entry is always kept. Unlike
// the old tree pruning, a shared node stays alive as long as ANY relevant
// parent still reaches it.
func (p *Plan) Prune(stepID string) *Plan {
	src := p.Clone()
	keep := map[string]bool{src.Entry: true}
	queue := []string{src.Entry}
	for len(queue) > 0 {
		n := src.Node(queue[0])
		queue = queue[1:]
		if n == nil {
			continue
		}
		for _, e := range n.Edges {
			t := src.Node(e.To)
			if t == nil || !t.RelevantTo(stepID) || keep[t.ID] {
				continue
			}
			keep[t.ID] = true
			queue = append(queue, t.ID)
		}
	}
	out := &Plan{ID: src.ID, AssertionID: src.AssertionID, Description: src.Description, Entry: src.Entry}
	for _, n := range src.Nodes {
		if !keep[n.ID] {
			continue
		}
		kept := n.Edges[:0]
		for _, e := range n.Edges {
			if keep[e.To] {
				kept = append(kept, e)
			}
		}
		n.Edges = kept
		out.Nodes = append(out.Nodes, n)
	}
	return out
}

// PotentialRootCauses returns the distinct cause nodes reachable from the
// entry, in visit order (probability-ordered depth-first, each shared
// node counted once).
func (p *Plan) PotentialRootCauses() []*Node {
	entry := p.EntryNode()
	if entry == nil {
		return nil
	}
	var out []*Node
	visited := make(map[string]bool)
	var walk func(n *Node)
	walk = func(n *Node) {
		if visited[n.ID] {
			return
		}
		visited[n.ID] = true
		if n.IsCause() {
			out = append(out, n)
		}
		for _, c := range p.Children(n) {
			walk(c)
		}
	}
	walk(entry)
	return out
}

// CausesUnder returns the ids of the distinct cause nodes reachable from
// (and including) nodeID, in visit order. A passing diagnosis test on the
// node excludes exactly these faults.
func (p *Plan) CausesUnder(nodeID string) []string {
	start := p.Node(nodeID)
	if start == nil {
		return nil
	}
	var out []string
	visited := make(map[string]bool)
	var walk func(n *Node)
	walk = func(n *Node) {
		if visited[n.ID] {
			return
		}
		visited[n.ID] = true
		if n.IsCause() {
			out = append(out, n.ID)
		}
		for _, c := range p.Children(n) {
			walk(c)
		}
	}
	walk(start)
	return out
}

// substitute replaces {key} placeholders with values from params, in one
// left-to-right pass (see template).
func substitute(s string, params assertion.Params) string {
	if !strings.Contains(s, "{") {
		return s
	}
	return parseTemplate(s).render(params)
}
