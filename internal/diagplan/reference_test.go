package diagplan

// The graph reads Plan offered before Compiled became the only way to read
// a plan, kept as the definition the compiled views are tested against. They
// are exported so the external test package can call them too.

import (
	"sort"
	"strings"
)

// RefEntryNode returns the entry node, or nil for an invalid plan.
func RefEntryNode(p *Plan) *Node { return p.Node(p.Entry) }

// RefHas reports whether the plan contains a node with the given id.
func RefHas(p *Plan, id string) bool { return p.Node(id) != nil }

// RefChildren returns the node's edge targets ordered by descending edge
// probability (stable for ties, preserving document order).
func RefChildren(p *Plan, n *Node) []*Node {
	edges := sortedEdges(n.Edges)
	out := make([]*Node, 0, len(edges))
	for _, e := range edges {
		if t := p.Node(e.To); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// RefParents returns the ids of every node with an edge into nodeID, sorted.
// Fan-in causes cite all of them on the evidence timeline.
func RefParents(p *Plan, nodeID string) []string {
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

// RefPathTo returns one canonical entry-to-node path as "/"-joined ids — the
// probability-preferred route a sequential walk would take — or "" when
// the node is unreachable from the entry. Fan-in nodes have several
// routes; RefParents lists the others.
func RefPathTo(p *Plan, nodeID string) string {
	entry := RefEntryNode(p)
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
		for _, c := range RefChildren(p, n) {
			if path := find(c, trail); path != "" {
				return path
			}
		}
		return ""
	}
	return find(entry, nil)
}

// RefPrune returns a deep copy retaining only the nodes reachable from the
// entry through step-relevant targets. The entry is always kept. A shared
// node stays alive as long as ANY relevant parent still reaches it.
func RefPrune(p *Plan, stepID string) *Plan {
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

// RefPotentialRootCauses returns the distinct cause nodes reachable from the
// entry, in visit order (probability-ordered depth-first, each shared
// node counted once).
func RefPotentialRootCauses(p *Plan) []*Node {
	entry := RefEntryNode(p)
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
		for _, c := range RefChildren(p, n) {
			walk(c)
		}
	}
	walk(entry)
	return out
}

// RefCausesUnder returns the ids of the distinct cause nodes reachable from
// (and including) nodeID, in visit order. A passing diagnosis test on the
// node excludes exactly these faults.
func RefCausesUnder(p *Plan, nodeID string) []string {
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
		for _, c := range RefChildren(p, n) {
			walk(c)
		}
	}
	walk(start)
	return out
}
