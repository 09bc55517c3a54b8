package process

import (
	"errors"
	"fmt"
	"regexp"
	"sort"
	"time"

	"poddiagnosis/internal/logging"
)

// Builder assembles a Model. Errors are accumulated and reported by Build,
// so call sites can chain declarations without per-call checks.
type Builder struct {
	id    string
	name  string
	nodes map[string]*Node
	order []string
	edges []Edge
	errs  []error
	errPs []string
}

// NewBuilder starts a model with the given id and display name.
func NewBuilder(id, name string) *Builder {
	return &Builder{id: id, name: name, nodes: make(map[string]*Node)}
}

// NodeOption customizes a node added via the Builder.
type NodeOption func(*Node)

// WithName sets the human-readable name (defaults to the id).
func WithName(name string) NodeOption {
	return func(n *Node) { n.Name = name }
}

// WithStep sets the process-context step id.
func WithStep(stepID string) NodeOption {
	return func(n *Node) { n.StepID = stepID }
}

// WithPatterns sets the log-line regular expressions of an activity.
func WithPatterns(patterns ...string) NodeOption {
	return func(n *Node) { n.Patterns = append([]string(nil), patterns...) }
}

// WithMeanDuration records the historical mean duration of the step.
func WithMeanDuration(d time.Duration) NodeOption {
	return func(n *Node) { n.MeanDuration = d }
}

// WithMultiLine marks an activity that logs start/progress/end lines, so
// consecutive lines of the same activity replay as fit.
func WithMultiLine() NodeOption {
	return func(n *Node) { n.MultiLine = true }
}

// WithFinal marks the activity whose occurrence ends the operation.
func WithFinal() NodeOption {
	return func(n *Node) { n.Final = true }
}

// WithRecurring marks an activity as legitimately occurring at any time
// while the process instance is active.
func WithRecurring() NodeOption {
	return func(n *Node) { n.Recurring = true }
}

// Start adds the start event node and returns its id.
func (b *Builder) Start(id string) string { return b.node(id, KindStart) }

// End adds an end event node and returns its id.
func (b *Builder) End(id string) string { return b.node(id, KindEnd) }

// Gateway adds an exclusive (XOR) gateway and returns its id.
func (b *Builder) Gateway(id string) string { return b.node(id, KindGateway) }

// ANDGateway adds a parallel (AND) gateway — a fork when it has several
// outgoing flows, a join when it has several incoming — and returns its id.
func (b *Builder) ANDGateway(id string) string { return b.node(id, KindANDGateway) }

// Activity adds an activity node and returns its id.
func (b *Builder) Activity(id string, opts ...NodeOption) string {
	nodeID := b.node(id, KindActivity)
	if n, ok := b.nodes[id]; ok {
		for _, opt := range opts {
			opt(n)
		}
	}
	return nodeID
}

// Flow adds a sequence flow between two previously added nodes.
func (b *Builder) Flow(from, to string) *Builder {
	b.edges = append(b.edges, Edge{From: from, To: to})
	return b
}

// Chain adds flows linking each consecutive pair of node ids.
func (b *Builder) Chain(ids ...string) *Builder {
	for i := 0; i+1 < len(ids); i++ {
		b.Flow(ids[i], ids[i+1])
	}
	return b
}

// Errors registers model-level known-error patterns.
func (b *Builder) Errors(patterns ...string) *Builder {
	b.errPs = append(b.errPs, patterns...)
	return b
}

func (b *Builder) node(id string, kind NodeKind) string {
	if id == "" {
		b.errs = append(b.errs, errors.New("node id must not be empty"))
		return id
	}
	if _, ok := b.nodes[id]; ok {
		b.errs = append(b.errs, fmt.Errorf("duplicate node id %q", id))
		return id
	}
	b.nodes[id] = &Node{ID: id, Name: id, Kind: kind}
	b.order = append(b.order, id)
	return id
}

// addNode inserts a fully specified node (used when deserializing).
func (b *Builder) addNode(n *Node) {
	if n == nil {
		b.errs = append(b.errs, errors.New("nil node"))
		return
	}
	if _, ok := b.nodes[n.ID]; ok {
		b.errs = append(b.errs, fmt.Errorf("duplicate node id %q", n.ID))
		return
	}
	cp := *n
	cp.Patterns = append([]string(nil), n.Patterns...)
	b.nodes[n.ID] = &cp
	b.order = append(b.order, n.ID)
}

// Build validates the model and compiles it. The model must have exactly
// one start node, at least one end node, edges referencing known nodes,
// every node reachable from the start, valid regular expressions, and a
// token-replay net whose silent closures stay under the replay cap
// (ErrClosureTooLarge otherwise). Compilation — the line
// matcher, the integer net and each node's Note — happens here, once per
// model, so the checkers and processors that share the model share it too.
func (b *Builder) Build() (*Model, error) {
	errs := append([]error(nil), b.errs...)
	m := &Model{
		id:    b.id,
		name:  b.name,
		nodes: make(map[string]*Node, len(b.nodes)),
		out:   make(map[string][]string),
		in:    make(map[string][]string),
	}
	if b.id == "" {
		errs = append(errs, errors.New("model id must not be empty"))
	}
	for _, id := range b.order {
		n := b.nodes[id]
		m.nodes[id] = n
		m.sorted = append(m.sorted, n)
		switch n.Kind {
		case KindStart:
			if m.start != "" {
				errs = append(errs, fmt.Errorf("multiple start nodes: %q and %q", m.start, id))
			}
			m.start = id
		case KindEnd:
			m.ends = append(m.ends, id)
		}
	}
	sort.Slice(m.sorted, func(i, j int) bool { return m.sorted[i].ID < m.sorted[j].ID })
	var activities, errorTemplates []template
	nActivities := 0
	for _, n := range m.sorted {
		n.index = -1
		n.note = logging.NewNote(n.ID, n.StepID, n.Name)
		if n.Kind == KindActivity {
			n.index = nActivities
			nActivities++
		}
		for _, p := range n.Patterns {
			re, err := regexp.Compile(p)
			if err != nil {
				errs = append(errs, fmt.Errorf("activity %q pattern %q: %w", n.ID, p, err))
				continue
			}
			// Only activities are observed in the log; a pattern on any
			// other node kind is validated and otherwise ignored.
			if n.Kind == KindActivity {
				activities = append(activities, newTemplate(re, n))
			}
		}
	}
	if m.start == "" {
		errs = append(errs, errors.New("model has no start node"))
	}
	if len(m.ends) == 0 {
		errs = append(errs, errors.New("model has no end node"))
	}
	for _, e := range b.edges {
		if _, ok := m.nodes[e.From]; !ok {
			errs = append(errs, fmt.Errorf("edge from unknown node %q", e.From))
			continue
		}
		if _, ok := m.nodes[e.To]; !ok {
			errs = append(errs, fmt.Errorf("edge to unknown node %q", e.To))
			continue
		}
		m.out[e.From] = append(m.out[e.From], e.To)
		m.in[e.To] = append(m.in[e.To], e.From)
	}
	for _, p := range b.errPs {
		re, err := regexp.Compile(p)
		if err != nil {
			errs = append(errs, fmt.Errorf("error pattern %q: %w", p, err))
			continue
		}
		errorTemplates = append(errorTemplates, newTemplate(re, nil))
		m.errorSources = append(m.errorSources, p)
	}
	if m.start != "" {
		if unreachable := m.unreachableFrom(m.start); len(unreachable) > 0 {
			errs = append(errs, fmt.Errorf("nodes unreachable from start: %v", unreachable))
		}
	}
	if len(errs) == 0 {
		m.matcher = newMatcher(activities, errorTemplates)
		net, err := compileNet(m)
		if err != nil {
			errs = append(errs, err)
		}
		m.net = net
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("process: invalid model %q: %w", b.id, errors.Join(errs...))
	}
	return m, nil
}

// unreachableFrom returns node ids not reachable from the given node,
// ignoring recurring activities (which float free of the main flow).
func (m *Model) unreachableFrom(start string) []string {
	seen := map[string]bool{start: true}
	queue := []string{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range m.out[cur] {
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	var missing []string
	for _, n := range m.sorted {
		if !seen[n.ID] && !n.Recurring {
			missing = append(missing, n.ID)
		}
	}
	return missing
}
