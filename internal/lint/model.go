package lint

import (
	"encoding/json"
	"errors"
	"fmt"
	"regexp"

	"poddiagnosis/internal/process"
)

// modelPos renders the locus of a model finding.
func modelPos(modelID, nodeID string) string {
	if nodeID == "" {
		return "model:" + modelID
	}
	return fmt.Sprintf("model:%s/node:%s", modelID, nodeID)
}

// LintModel applies the graph rules to a built process model. Build-time
// validation already guarantees reachability from the start and compiling
// patterns, so only the rules a valid model can still violate run here:
// dead transitions (PM002), duplicate step ids (PM004), unobservable
// activities (PM005) and shadowed patterns (PM006).
func LintModel(m *process.Model) []Finding {
	g := modelGraphFromModel(m)
	return g.lint()
}

// modelDoc mirrors the serialized form of a process model, so documents
// can be linted without (and before) building them.
type modelDoc struct {
	ID            string          `json:"id"`
	Name          string          `json:"name"`
	Nodes         []*process.Node `json:"nodes"`
	Edges         []process.Edge  `json:"edges"`
	ErrorPatterns []string        `json:"errorPatterns,omitempty"`
}

// LintModelDoc lints a raw JSON process-model document. Unlike
// process.UnmarshalModel it does not stop at the first defect: every
// violated rule is reported, including structural defects (PM007),
// non-compiling patterns (PM003) and unreachable nodes (PM001) that the
// builder would reject outright. A document with none of those defects is
// also compiled, which is where a token-replay net whose silent closures
// outgrow the replay cap shows (PM008). The name labels findings when the
// document carries no id.
func LintModelDoc(name string, data []byte) []Finding {
	var doc modelDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return []Finding{finding(RuleModelStructure, modelPos(name, ""), "model document does not parse: %v", err)}
	}
	if doc.ID != "" {
		name = doc.ID
	}

	var fs []Finding
	g := &modelGraph{id: name, out: make(map[string][]string), in: make(map[string][]string)}
	seen := make(map[string]bool)
	for _, n := range doc.Nodes {
		if n == nil {
			fs = append(fs, finding(RuleModelStructure, modelPos(name, ""), "null node in document"))
			continue
		}
		if seen[n.ID] {
			fs = append(fs, finding(RuleModelStructure, modelPos(name, n.ID), "duplicate node id %q", n.ID))
			continue
		}
		seen[n.ID] = true
		g.nodes = append(g.nodes, n)
		switch n.Kind {
		case process.KindStart:
			if g.start != "" {
				fs = append(fs, finding(RuleModelStructure, modelPos(name, n.ID), "multiple start events (%q and %q)", g.start, n.ID))
			} else {
				g.start = n.ID
			}
		case process.KindEnd:
			g.ends = append(g.ends, n.ID)
		}
		for _, p := range n.Patterns {
			if _, err := regexp.Compile(p); err != nil {
				fs = append(fs, finding(RuleModelBadPattern, modelPos(name, n.ID), "pattern %q does not compile: %v", p, err))
			}
		}
	}
	if g.start == "" {
		fs = append(fs, finding(RuleModelStructure, modelPos(name, ""), "model has no start event"))
	}
	if len(g.ends) == 0 {
		fs = append(fs, finding(RuleModelStructure, modelPos(name, ""), "model has no end event"))
	}
	for _, p := range doc.ErrorPatterns {
		if _, err := regexp.Compile(p); err != nil {
			fs = append(fs, finding(RuleModelBadPattern, modelPos(name, ""), "error pattern %q does not compile: %v", p, err))
		}
	}
	for _, e := range doc.Edges {
		if !seen[e.From] {
			fs = append(fs, finding(RuleModelStructure, modelPos(name, ""), "edge from unknown node %q", e.From))
			continue
		}
		if !seen[e.To] {
			fs = append(fs, finding(RuleModelStructure, modelPos(name, ""), "edge to unknown node %q", e.To))
			continue
		}
		g.out[e.From] = append(g.out[e.From], e.To)
		g.in[e.To] = append(g.in[e.To], e.From)
	}
	fs = append(fs, g.lint()...)
	if CountErrors(fs) == 0 {
		if _, err := process.UnmarshalModel(data); errors.Is(err, process.ErrClosureTooLarge) {
			fs = append(fs, finding(RuleModelClosure, modelPos(name, ""), "%v", err))
		}
	}
	return fs
}

// modelGraph is the common shape the model rules run over, built from
// either a live Model or a raw document.
type modelGraph struct {
	id    string
	nodes []*process.Node
	out   map[string][]string
	in    map[string][]string
	start string
	ends  []string
}

func modelGraphFromModel(m *process.Model) *modelGraph {
	g := &modelGraph{
		id:    m.ID(),
		start: m.Start(),
		ends:  m.Ends(),
		out:   make(map[string][]string),
		in:    make(map[string][]string),
	}
	for _, n := range m.Nodes() {
		g.nodes = append(g.nodes, n)
		g.out[n.ID] = m.Outgoing(n.ID)
		g.in[n.ID] = m.Incoming(n.ID)
	}
	return g
}

// lint runs the graph rules: PM001 (unreachable), PM002 (dead end), PM004
// (duplicate step), PM005 (no patterns), PM006 (shadowed pattern).
// Recurring activities float free of the main flow and are exempt from the
// reachability rules, matching the builder's semantics.
func (g *modelGraph) lint() []Finding {
	var fs []Finding

	// PM001: forward reachability from the start event.
	if g.start != "" {
		reach := g.reachable(g.start, g.out)
		for _, n := range g.nodes {
			if !reach[n.ID] && !n.Recurring {
				fs = append(fs, finding(RuleModelUnreachable, modelPos(g.id, n.ID), "node %q is unreachable from the start event", n.ID))
			}
		}
	}

	// PM002: backward reachability from the end events. A node no token
	// can leave toward completion is a dead transition: conformance
	// replay entering it can never finish the operation.
	if len(g.ends) > 0 {
		coReach := make(map[string]bool)
		for _, end := range g.ends {
			for id := range g.reachable(end, g.in) {
				coReach[id] = true
			}
		}
		for _, n := range g.nodes {
			if !coReach[n.ID] && !n.Recurring && n.Kind != process.KindEnd {
				fs = append(fs, finding(RuleModelDeadEnd, modelPos(g.id, n.ID), "node %q cannot reach any end event", n.ID))
			}
		}
	}

	// PM004: step ids must identify one activity; ActivityByStep, the
	// assertion trigger chain and fault-tree pruning all assume it.
	byStep := make(map[string]string)
	for _, n := range g.nodes {
		if n.Kind != process.KindActivity || n.StepID == "" {
			continue
		}
		if prev, ok := byStep[n.StepID]; ok {
			fs = append(fs, finding(RuleModelDuplicateStep, modelPos(g.id, n.ID), "step id %q already used by activity %q", n.StepID, prev))
			continue
		}
		byStep[n.StepID] = n.ID
	}

	// PM005 / PM006: every activity needs at least one pattern, and the
	// same pattern on two activities makes classification ambiguous
	// (longest-pattern-wins cannot break an exact tie).
	byPattern := make(map[string]string)
	for _, n := range g.nodes {
		if n.Kind != process.KindActivity {
			continue
		}
		if len(n.Patterns) == 0 {
			fs = append(fs, finding(RuleModelNoPatterns, modelPos(g.id, n.ID), "activity %q has no log patterns and can never be observed", n.ID))
		}
		for _, p := range n.Patterns {
			if prev, ok := byPattern[p]; ok && prev != n.ID {
				fs = append(fs, finding(RuleModelShadowed, modelPos(g.id, n.ID), "pattern %q also classifies to activity %q", p, prev))
				continue
			}
			byPattern[p] = n.ID
		}
	}
	return fs
}

// reachable returns the set of node ids reachable from start following the
// given adjacency (forward with g.out, backward with g.in).
func (g *modelGraph) reachable(start string, adj map[string][]string) map[string]bool {
	seen := map[string]bool{start: true}
	queue := []string{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range adj[cur] {
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	return seen
}
