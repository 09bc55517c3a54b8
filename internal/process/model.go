// Package process defines the process models at the heart of
// POD-Diagnosis: directed graphs of activities, XOR gateways and start/end
// events (a pragmatic subset of BPMN, per the paper §III.B.2), each
// activity carrying the regular expressions that map raw log lines onto it
// plus its process-context metadata (step id, historical duration).
//
// Models are built offline — by hand with Builder, or discovered from logs
// by the mining package — and consumed online by conformance checking and
// the assertion trigger machinery.
package process

import (
	"encoding/json"
	"fmt"
	"time"
)

// NodeKind distinguishes the node types of a model.
type NodeKind int

// Node kinds.
const (
	KindStart NodeKind = iota + 1
	KindActivity
	KindGateway // exclusive (XOR) gateway
	KindEnd
	KindANDGateway // parallel (AND) gateway: fork/join
)

// String implements fmt.Stringer.
func (k NodeKind) String() string {
	switch k {
	case KindStart:
		return "start"
	case KindActivity:
		return "activity"
	case KindGateway:
		return "gateway"
	case KindEnd:
		return "end"
	case KindANDGateway:
		return "and-gateway"
	default:
		return "unknown"
	}
}

// Node is one vertex of a process model.
type Node struct {
	// ID uniquely identifies the node within its model.
	ID string `json:"id"`
	// Name is the human-readable activity name, e.g. "Update launch
	// configuration".
	Name string `json:"name"`
	// Kind is the node type.
	Kind NodeKind `json:"kind"`
	// StepID is the process-context step label, e.g. "step2". Empty for
	// non-activities.
	StepID string `json:"stepId,omitempty"`
	// Patterns are the regular expressions whose match assigns a log
	// line to this activity (the paper's transformation rules, §III.A).
	Patterns []string `json:"patterns,omitempty"`
	// MeanDuration is the historical mean time from this activity to the
	// next (Figure 2 "time data"); used to derive timer timeouts.
	MeanDuration time.Duration `json:"meanDuration,omitempty"`
	// MultiLine marks activities that log several lines (start, progress,
	// end); repeats while the token occupies the activity replay as fit.
	MultiLine bool `json:"multiLine,omitempty"`
	// Final marks the activity whose log line ends the operation (used by
	// the log pipeline to stop the process's timers).
	Final bool `json:"final,omitempty"`
	// Recurring marks activities that may legitimately occur at any time
	// while the instance is active (e.g. periodic "Status info" lines);
	// they replay as fit without consuming a token.
	Recurring bool `json:"recurring,omitempty"`

	// index is the node's position among its model's activities in id
	// order, set by Build; -1 for other kinds.
	index int
}

// Index returns the node's position among its model's activities in id
// order (the order of Model.Activities), or -1 for a node of another
// kind. Build sets it; consumers keep per-activity state in slices indexed
// by it.
func (n *Node) Index() int { return n.index }

// Edge is a directed sequence flow between two nodes.
type Edge struct {
	// From and To are node ids.
	From string `json:"from"`
	To   string `json:"to"`
}

// Model is a validated process model.
type Model struct {
	id     string
	name   string
	nodes  map[string]*Node
	sorted []*Node // every node, by id
	out    map[string][]string
	in     map[string][]string
	start  string
	ends   []string
	// errorSources are the known-error patterns ([conformance:error]).
	errorSources []string

	// Compiled once by Build: the line matcher and the token-replay net.
	matcher *matcher
	net     *Net
}

// ID returns the model id.
func (m *Model) ID() string { return m.id }

// Name returns the model name.
func (m *Model) Name() string { return m.name }

// Node returns the node with the given id, or nil.
func (m *Model) Node(id string) *Node { return m.nodes[id] }

// Start returns the id of the start node.
func (m *Model) Start() string { return m.start }

// Ends returns the ids of the end nodes. Like Outgoing and Incoming it
// returns a copy the caller may keep or change; code inside this package
// reads m.ends, m.out and m.in directly.
func (m *Model) Ends() []string { return append([]string(nil), m.ends...) }

// Outgoing returns the successor node ids of id.
func (m *Model) Outgoing(id string) []string {
	return append([]string(nil), m.out[id]...)
}

// Incoming returns the predecessor node ids of id.
func (m *Model) Incoming(id string) []string {
	return append([]string(nil), m.in[id]...)
}

// Nodes returns all nodes sorted by id.
func (m *Model) Nodes() []*Node { return append([]*Node(nil), m.sorted...) }

// Activities returns all activity nodes sorted by id.
func (m *Model) Activities() []*Node {
	var out []*Node
	for _, n := range m.sorted {
		if n.Kind == KindActivity {
			out = append(out, n)
		}
	}
	return out
}

// Net returns the model's compiled token-replay net.
func (m *Model) Net() *Net { return m.net }

// ActivityByStep returns the activity with the given step id, or nil.
func (m *Model) ActivityByStep(stepID string) *Node {
	for _, n := range m.nodes {
		if n.Kind == KindActivity && n.StepID == stepID {
			return n
		}
	}
	return nil
}

// Classify maps a raw log line to the activity whose pattern matches.
// It returns the activity node and true, or nil and false when no pattern
// matches. When several activities match, the one with the longest
// matching pattern wins (most specific rule). See Match.
func (m *Model) Classify(line string) (*Node, bool) {
	n, _ := m.Match(line)
	return n, n != nil
}

// IsErrorLine reports whether the line matches a known-error pattern.
func (m *Model) IsErrorLine(line string) bool {
	_, isError := m.Match(line)
	return isError
}

// ErrorPatterns returns the model's known-error pattern sources.
func (m *Model) ErrorPatterns() []string {
	return append([]string(nil), m.errorSources...)
}

// modelJSON is the serialized form of a Model.
type modelJSON struct {
	ID            string   `json:"id"`
	Name          string   `json:"name"`
	Nodes         []*Node  `json:"nodes"`
	Edges         []Edge   `json:"edges"`
	ErrorPatterns []string `json:"errorPatterns,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (m *Model) MarshalJSON() ([]byte, error) {
	doc := modelJSON{ID: m.id, Name: m.name, Nodes: m.Nodes(), ErrorPatterns: m.errorSources}
	for _, from := range m.sorted {
		for _, to := range m.out[from.ID] {
			doc.Edges = append(doc.Edges, Edge{From: from.ID, To: to})
		}
	}
	return json.Marshal(doc)
}

// UnmarshalModel parses a model from its JSON form, revalidating it.
func UnmarshalModel(data []byte) (*Model, error) {
	var doc modelJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("process: unmarshal model: %w", err)
	}
	b := NewBuilder(doc.ID, doc.Name)
	for _, n := range doc.Nodes {
		b.addNode(n)
	}
	for _, e := range doc.Edges {
		b.Flow(e.From, e.To)
	}
	b.Errors(doc.ErrorPatterns...)
	return b.Build()
}
