package diagplan

import (
	"sort"
	"strings"
	"sync"

	"poddiagnosis/internal/assertion"
)

// Compiled is the walk form of one registered plan, built by
// Catalog.Register and immutable afterwards (as the plan itself must be).
// Everything a diagnosis needs that depends only on the plan and the step
// context — which nodes survive pruning, sibling order, the causes under a
// node, the preferred path to it, its fan-in parents — is fixed here; what
// depends on the request (the parameters substituted into descriptions and
// check parameters, which nodes a run has claimed) is bound per run by the
// diagnosis engine. Many runs share one Compiled concurrently.
//
// Register fixes the step-independent shape and the set of step contexts
// that can prune differently; each context's View is tabulated the first
// time a diagnosis asks for it and kept. Views are not tabulated inside
// Register because that makes building a catalog six times dearer, and a
// Manager that never diagnoses — most of a federation — would pay it for
// nothing.
type Compiled struct {
	// Plan is the registered source document.
	Plan *Plan

	shape *shape
	raw   lazyView             // no pruning: every node, every edge
	steps map[string]*lazyView // "" and each step id some node is scoped to
	other lazyView             // any step id no node names
}

// lazyView is one step context's View, built on first use.
type lazyView struct {
	relevant func(*Node) bool // see shape.view
	once     sync.Once
	view     *View
}

// View returns the plan as pruned for the step context — the entry and every
// node reachable from it through step-relevant targets — or unpruned when
// prune is false. Step ids no node of the plan is scoped to all prune alike
// and share one view. It is safe for concurrent use.
func (c *Compiled) View(stepID string, prune bool) *View {
	l := &c.other
	if !prune {
		l = &c.raw
	} else if named, ok := c.steps[stepID]; ok {
		l = named
	}
	l.once.Do(func() { l.view = c.shape.view(l.relevant) })
	return l.view
}

// View is a compiled plan in one step context. It is shared and read-only.
type View struct {
	// Entry is the node the walk starts from; nil when the plan's entry
	// does not resolve.
	Entry *VNode
	// PotentialFaults is the number of distinct causes reachable from the
	// entry (len(Entry.CausesUnder)); 0 when Entry is nil.
	PotentialFaults int

	index map[string]int // node id -> position in nodes; shared by the plan's views
	nodes []*VNode       // in document order; nil where pruning removed the node
}

// Node returns the view's node with the given plan node id, or nil when
// pruning removed it (or the plan never had it).
func (v *View) Node(id string) *VNode {
	if i, ok := v.index[id]; ok {
		return v.nodes[i]
	}
	return nil
}

// VNode is one plan node as seen in one View. It is shared and read-only;
// in particular the slices must not be modified.
type VNode struct {
	// ID, CheckID and TestClass are the plan node's.
	ID, CheckID, TestClass string
	// Cause reports a diagnosable root cause (Node.IsCause).
	Cause bool
	// Index identifies the node among every node of every plan in the
	// catalog: a dense small integer, the same in all views, so a run can
	// keep per-node state in a bitset.
	Index int
	// Children are the surviving edge targets by descending edge
	// probability, ties in document order.
	Children []*VNode
	// CausesUnder are the distinct causes reachable from (and including)
	// this node, in visit order: what a passing test here excludes.
	CausesUnder []*VNode
	// Path is the plan-qualified preferred route from the entry,
	// "planID:entry/…/id": the first route a depth-first walk over
	// preference-ordered children finds; empty when the entry does not
	// reach the node.
	Path string
	// Parents are the sorted, comma-joined ids of the surviving nodes with
	// an edge into this one; empty for none.
	Parents string

	description template
	checkParams assertion.Params // the plan node's, placeholders unrendered
	templated   []paramTemplate  // the checkParams entries that carry placeholders
}

// paramTemplate is one CheckParams entry with its value pre-split.
type paramTemplate struct {
	key   string
	value template
}

// Description renders the node's description for the request parameters.
func (n *VNode) Description(params assertion.Params) string {
	return n.description.render(params)
}

// TestParams returns the parameters of the node's diagnosis test: the
// request parameters overridden by the node's rendered CheckParams. The
// result is read-only: a node without CheckParams returns request itself,
// so every test of a run shares the request's map; otherwise the merged
// copy is the call's only allocation beyond the rendering of overrides
// that carry placeholders.
func (n *VNode) TestParams(request assertion.Params) assertion.Params {
	if len(n.checkParams) == 0 {
		return request
	}
	out := request.Merge(n.checkParams)
	for _, p := range n.templated {
		out[p.key] = p.value.render(request)
	}
	return out
}

// template is a string pre-split at its {placeholder}s. Rendering is one
// left-to-right pass: substituted text is never rescanned, so a parameter
// value that itself looks like a placeholder stays as it is, and a
// placeholder no parameter names is left intact.
type template struct {
	raw   string
	parts []part // nil when raw has no placeholder
}

// part is a literal run or a placeholder (text is then the key, braces
// stripped).
type part struct {
	text        string
	placeholder bool
}

// parseTemplate splits s. A placeholder is an opening brace, a key without
// braces, and a closing brace; any other brace is literal text.
func parseTemplate(s string) template {
	t := template{raw: s}
	lit := 0 // start of the pending literal run
	for i := 0; i < len(s); i++ {
		if s[i] != '{' {
			continue
		}
		end := strings.IndexAny(s[i+1:], "{}")
		if end < 0 {
			break
		}
		end += i + 1
		if s[end] == '{' {
			i = end - 1 // the inner brace may open a placeholder
			continue
		}
		if lit < i {
			t.parts = append(t.parts, part{text: s[lit:i]})
		}
		t.parts = append(t.parts, part{text: s[i+1 : end], placeholder: true})
		lit, i = end+1, end
	}
	if t.parts != nil && lit < len(s) {
		t.parts = append(t.parts, part{text: s[lit:]})
	}
	return t
}

// render substitutes the placeholders params names.
func (t template) render(params assertion.Params) string {
	if t.parts == nil {
		return t.raw
	}
	size := 0
	for _, p := range t.parts {
		size += len(p.text)
		if p.placeholder {
			if v, ok := params[p.text]; ok {
				size += len(v) - len(p.text)
			} else {
				size += 2 // the braces stay
			}
		}
	}
	var b strings.Builder
	b.Grow(size)
	for _, p := range t.parts {
		if !p.placeholder {
			b.WriteString(p.text)
		} else if v, ok := params[p.text]; ok {
			b.WriteString(v)
		} else {
			b.WriteByte('{')
			b.WriteString(p.text)
			b.WriteByte('}')
		}
	}
	return b.String()
}

// compile builds the walk form of p. base is the catalog-wide index of
// p's first node. The plan need not have passed Validate — edges to unknown
// nodes are ignored and an unresolvable entry yields views with nothing to
// walk — but its node ids must index (indexNodes).
func compile(p *Plan, base int) (*Compiled, error) {
	s, err := newShape(p, base)
	if err != nil {
		return nil, err
	}
	c := &Compiled{Plan: p, shape: s, steps: make(map[string]*lazyView)}
	c.steps[""] = &lazyView{relevant: func(*Node) bool { return true }}
	for _, n := range p.Nodes {
		for _, step := range n.Steps {
			if _, done := c.steps[step]; !done {
				step := step
				c.steps[step] = &lazyView{relevant: func(n *Node) bool { return n.RelevantTo(step) }}
			}
		}
	}
	c.other.relevant = func(n *Node) bool { return len(n.Steps) == 0 }
	return c, nil
}

// shape is the step-independent part of a compilation: integer node ids in
// document order, each node's edge targets in visit order, and the
// pre-split templates every view's nodes share.
type shape struct {
	p       *Plan
	base    int
	index   map[string]int // node id -> position in p.Nodes (indexNodes)
	entry   int            // -1 when the entry does not resolve
	targets [][]int        // per node: edge targets by descending probability, stable
	protos  []VNode        // per node: the fields that do not depend on the view
}

func newShape(p *Plan, base int) (*shape, error) {
	index, err := indexNodes(p)
	if err != nil {
		return nil, err
	}
	s := &shape{
		p: p, base: base, index: index, entry: -1,
		targets: make([][]int, len(p.Nodes)), protos: make([]VNode, len(p.Nodes)),
	}
	if i, ok := s.index[p.Entry]; ok {
		s.entry = i
	}
	for i, n := range p.Nodes {
		for _, e := range sortedEdges(n.Edges) {
			if t, ok := s.index[e.To]; ok {
				s.targets[i] = append(s.targets[i], t)
			}
		}
		proto := VNode{
			ID: n.ID, CheckID: n.CheckID, TestClass: n.TestClass, Cause: n.IsCause(),
			Index: base + i, description: parseTemplate(n.Description), checkParams: n.CheckParams,
		}
		for k, v := range n.CheckParams {
			if t := parseTemplate(v); t.parts != nil {
				proto.templated = append(proto.templated, paramTemplate{key: k, value: t})
			}
		}
		s.protos[i] = proto
	}
	return s, nil
}

// view builds the plan as pruned by relevant: the entry plus every node
// reachable from it through relevant targets, with the edges among them. A
// nil relevant keeps every node and edge, reachable or not (the unpruned
// plan).
func (s *shape) view(relevant func(*Node) bool) *View {
	n := len(s.p.Nodes)
	kept := make([]bool, n)
	if relevant == nil {
		for i := range kept {
			kept[i] = true
		}
	} else if s.entry >= 0 {
		kept[s.entry] = true
		queue := []int{s.entry}
		for len(queue) > 0 {
			i := queue[0]
			queue = queue[1:]
			for _, t := range s.targets[i] {
				if !kept[t] && relevant(s.p.Nodes[t]) {
					kept[t] = true
					queue = append(queue, t)
				}
			}
		}
	}

	nodes := make([]*VNode, n)
	for i := range nodes {
		if kept[i] {
			vn := s.protos[i]
			nodes[i] = &vn
		}
	}
	v := &View{index: s.index, nodes: nodes}
	parents := make([][]string, n)
	for i, vn := range nodes {
		if vn == nil {
			continue
		}
		for _, t := range s.targets[i] {
			if !kept[t] {
				continue
			}
			vn.Children = append(vn.Children, nodes[t])
			if ps := parents[t]; len(ps) == 0 || ps[len(ps)-1] != vn.ID { // duplicate edges cite the parent once
				parents[t] = append(ps, vn.ID)
			}
		}
	}
	seen := make([]bool, n)
	for i, vn := range nodes {
		if vn == nil {
			continue
		}
		sort.Strings(parents[i])
		vn.Parents = strings.Join(parents[i], ",")
		clear(seen)
		vn.CausesUnder = causesUnder(vn, s.base, seen, nil)
	}
	if s.entry >= 0 && kept[s.entry] {
		v.Entry = nodes[s.entry]
		v.PotentialFaults = len(v.Entry.CausesUnder)
		clear(seen)
		setPaths(v.Entry, s.p.ID+":"+v.Entry.ID, s.base, seen)
	}
	return v
}

// causesUnder appends the causes under n in visit order: depth-first,
// children by preference, each shared node once.
func causesUnder(n *VNode, base int, seen []bool, out []*VNode) []*VNode {
	if seen[n.Index-base] {
		return out
	}
	seen[n.Index-base] = true
	if n.Cause {
		out = append(out, n)
	}
	for _, c := range n.Children {
		out = causesUnder(c, base, seen, out)
	}
	return out
}

// setPaths records the route a sequential walk prefers to every node the
// entry reaches: the depth-first tree over preference-ordered children.
func setPaths(n *VNode, path string, base int, seen []bool) {
	if seen[n.Index-base] {
		return
	}
	seen[n.Index-base] = true
	n.Path = path
	for _, c := range n.Children {
		setPaths(c, path+"/"+c.ID, base, seen)
	}
}
