package process

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Token replay over an edge marking, adapted from Petri-net token replay
// to BPMN semantics ([3] ch. 7.2):
//
//   - places are the model's sequence flows plus one virtual output place
//     per activity and for the start event (so an activity with several
//     outgoing flows defers the branch choice until a later event
//     resolves it);
//   - an activity fires by consuming a token from one incoming flow and
//     producing a token on its output place;
//   - exclusive (XOR) gateways and output places move a single token
//     silently; parallel (AND) gateways consume a token from every
//     incoming flow and produce one on every outgoing flow;
//   - an event is *activated* when some marking reachable through silent
//     moves has a token on one of its activity's incoming flows; the
//     nearest such marking (breadth first, places in id order) is taken.
//
// Build compiles this into a Net: places become integers, a marking a
// count per place, and everything a log line can ask of a marking — which
// marking each activity leads to, whether an end event is reachable — is
// computed by one closure search when the marking is first seen and kept
// with it. Markings are interned, so replaying a line is a pointer load.

// Place names on the wire (InstanceSnapshot.Marking in conformance): a
// sequence flow is "from\x1fto", a virtual output place "\x1eA". They are
// what a snapshot exported by any version restores from; do not change.
const (
	edgeSep   = "\x1f"
	outPrefix = "\x1e"
)

const (
	// closureCap bounds the markings one silent closure may reach.
	closureCap = 512
	// exploreCap bounds how many markings Build walks to from the initial
	// one. A sound model has a few dozen; a model that mints tokens in a
	// loop has no bound, and its later markings are compiled as they are
	// first seen.
	exploreCap = 256
	// internCap bounds the markings a net keeps. Past it a marking still
	// replays, but is compiled again each time it is met.
	internCap = 4096
)

// ErrClosureTooLarge is wrapped by Build and UnmarshalModel when a
// marking's silent closure exceeds the replay cap: the net mints tokens
// through silent moves alone, and replay could not tell which activities
// such a marking activates.
var ErrClosureTooLarge = errors.New("silent closure exceeds the replay cap")

// andGate is a parallel gateway: it fires when every flow in ins holds a
// token (a flow listed twice needs two).
type andGate struct {
	ins, outs []int32
}

// Net is the compiled token-replay form of a Model. It is safe for
// concurrent use.
type Net struct {
	places  []string // wire name by place id; ids follow the names' order
	display []string // place as error contexts show it
	anchor  []string // node a marked place anchors path hypotheses at
	toEnd   []bool   // place is a flow into an end event
	index   map[string]int32

	moves  [][]int32 // per place: where one token may silently move
	gate   []int32   // per place: the AND gateway it feeds, or -1
	gates  []andGate
	actIn  [][]int32 // per activity index: incoming flows, in flow order
	actOut []int32   // per activity index: output place; -1 if it never fires

	mu       sync.Mutex
	interned map[string]*Marking
	initial  *Marking
}

// Marking is one token position of a Net, with the answers replay needs
// from it. Markings are immutable and shared between process instances.
type Marking struct {
	net         *Net
	counts      []uint32
	canComplete bool
	closure     int // markings in the silent closure; over closureCap, it was cut short
	// succ is, per activity, the counts of the marking firing it leads to
	// (nil when the activity is not activated); next caches the interned
	// marking, notActivated standing for nil.
	succ [][]uint32
	next []atomic.Pointer[Marking]
}

// notActivated is the cached answer for an activity a marking does not
// activate.
var notActivated = new(Marking)

func compileNet(m *Model) (*Net, error) {
	n := &Net{index: make(map[string]int32), interned: make(map[string]*Marking)}

	// Places, numbered in name order so "places in id order" is the order
	// the names sort in.
	type placeInfo struct{ display, anchor, to string }
	info := make(map[string]placeInfo)
	for _, node := range m.sorted {
		if node.Kind == KindStart || node.Kind == KindActivity {
			info[outPrefix+node.ID] = placeInfo{display: node.ID, anchor: node.ID}
		}
		for _, to := range m.out[node.ID] {
			info[node.ID+edgeSep+to] = placeInfo{display: node.ID + "->" + to, anchor: node.ID, to: to}
		}
	}
	for name := range info {
		n.places = append(n.places, name)
	}
	sort.Strings(n.places)
	for i, name := range n.places {
		pi := info[name]
		n.index[name] = int32(i)
		n.display = append(n.display, pi.display)
		n.anchor = append(n.anchor, pi.anchor)
		n.toEnd = append(n.toEnd, pi.to != "" && m.nodes[pi.to].Kind == KindEnd)
	}
	flow := func(from, to string) int32 { return n.index[from+edgeSep+to] }
	flowsOut := func(id string) []int32 {
		var out []int32
		for _, to := range m.out[id] {
			out = append(out, flow(id, to))
		}
		return out
	}
	flowsIn := func(id string) []int32 {
		var in []int32
		for _, from := range m.in[id] {
			in = append(in, flow(from, id))
		}
		return in
	}

	// Silent moves: an output place routes its token onto one outgoing
	// flow; a flow into an XOR gateway onto one of the gateway's.
	n.moves = make([][]int32, len(n.places))
	n.gate = make([]int32, len(n.places))
	for i := range n.gate {
		n.gate[i] = -1
	}
	gateOf := make(map[string]int32)
	for i, name := range n.places {
		pi := info[name]
		if pi.to == "" {
			n.moves[i] = flowsOut(pi.anchor)
			continue
		}
		switch m.nodes[pi.to].Kind {
		case KindGateway:
			n.moves[i] = flowsOut(pi.to)
		case KindANDGateway:
			g, ok := gateOf[pi.to]
			if !ok {
				g = int32(len(n.gates))
				gateOf[pi.to] = g
				n.gates = append(n.gates, andGate{ins: flowsIn(pi.to), outs: flowsOut(pi.to)})
			}
			n.gate[i] = g
		}
	}

	for _, node := range m.sorted {
		if node.Kind != KindActivity {
			continue
		}
		out := int32(-1)
		if !node.Recurring {
			out = n.index[outPrefix+node.ID]
		}
		n.actIn = append(n.actIn, flowsIn(node.ID))
		n.actOut = append(n.actOut, out)
	}

	start := make([]uint32, len(n.places))
	start[n.index[outPrefix+m.start]] = 1
	n.initial, _ = n.intern(start)

	// Walk the markings activity firings lead to: a closure over the cap
	// anywhere in reach is a defect of the model, reported now and not as
	// a mis-judged line later.
	seen := map[*Marking]bool{n.initial: true}
	queue := []*Marking{n.initial}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.closure > closureCap {
			return nil, fmt.Errorf("marking %v: %w (%d markings)", cur.Places(), ErrClosureTooLarge, closureCap)
		}
		for act := range n.actIn {
			next := n.resolve(cur, act)
			if next != notActivated && !seen[next] && len(seen) < exploreCap {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	return n, nil
}

// Activities returns how many activities the model has: Node.Index runs
// below it.
func (n *Net) Activities() int { return len(n.actIn) }

// Initial returns the marking with one token on the start event's output.
func (n *Net) Initial() *Marking { return n.initial }

// Import returns the marking with the given wire form (place name →
// tokens). Places the model does not have are dropped; an empty marking
// is the initial one.
func (n *Net) Import(wire map[string]int) *Marking {
	counts := make([]uint32, len(n.places))
	empty := true
	for name, tokens := range wire {
		if p, ok := n.index[name]; ok && tokens > 0 {
			counts[p] = uint32(min(int64(tokens), math.MaxUint32))
			empty = false
		}
	}
	if empty {
		return n.initial
	}
	m, _ := n.intern(counts)
	return m
}

// Fire replays the activity from the marking: the marking it leads to
// (through silent moves) and true, or nil and false when the marking does
// not activate it. node must be an activity of the net's model.
func (m *Marking) Fire(node *Node) (*Marking, bool) {
	next := m.next[node.index].Load()
	if next == nil {
		next = m.net.resolve(m, node.index)
	}
	if next == notActivated {
		return nil, false
	}
	return next, true
}

// InProgress reports whether the activity's output place is marked: the
// token is still "at" the activity (multi-line steps).
func (m *Marking) InProgress(node *Node) bool {
	out := m.net.actOut[node.index]
	return out >= 0 && m.counts[out] > 0
}

// CanComplete reports whether a token can reach an end event through
// silent moves.
func (m *Marking) CanComplete() bool { return m.canComplete }

// Export returns the marking's wire form.
func (m *Marking) Export() map[string]int {
	out := make(map[string]int)
	for p, c := range m.counts {
		if c > 0 {
			out[m.net.places[p]] = int(c)
		}
	}
	return out
}

// Places lists the marked places as error contexts show them
// ("from->to", or the activity a token rests at), sorted.
func (m *Marking) Places() []string {
	out := make([]string, 0, 2)
	for p, c := range m.counts {
		if c > 0 {
			out = append(out, m.net.display[p])
		}
	}
	sort.Strings(out)
	return out
}

// Anchors maps the marked places to node ids for path hypotheses — an
// output place anchors at its activity, a flow at its source — sorted
// and without repeats.
func (m *Marking) Anchors() []string {
	var out []string
	for p, c := range m.counts {
		if c > 0 {
			out = append(out, m.net.anchor[p])
		}
	}
	sort.Strings(out)
	uniq := out[:0]
	for i, id := range out {
		if i == 0 || id != out[i-1] {
			uniq = append(uniq, id)
		}
	}
	return uniq
}

// resolve fills m.next[act] on first use.
func (n *Net) resolve(m *Marking, act int) *Marking {
	next, kept := notActivated, true
	if counts := m.succ[act]; counts != nil {
		next, kept = n.intern(counts)
	}
	// Only a kept marking may be cached: an edge to one that is not would
	// keep it, and everything after it, alive.
	if kept {
		m.next[act].Store(next)
	}
	return next
}

// intern returns the marking with the given counts, compiling it when it
// is new, and whether the net keeps it (always, below internCap).
func (n *Net) intern(counts []uint32) (*Marking, bool) {
	key := encodeCounts(counts)
	n.mu.Lock()
	defer n.mu.Unlock()
	if m, ok := n.interned[key]; ok {
		return m, true
	}
	m := n.compile(counts)
	if len(n.interned) >= internCap {
		return m, false
	}
	n.interned[key] = m
	return m, true
}

// compile runs the marking's one closure search.
func (n *Net) compile(counts []uint32) *Marking {
	m := &Marking{
		net:    n,
		counts: counts,
		succ:   make([][]uint32, len(n.actIn)),
		next:   make([]atomic.Pointer[Marking], len(n.actIn)),
	}
	reached := n.closure(counts)
	m.closure = len(reached)
	for _, r := range reached {
		for p, c := range r {
			if c > 0 && n.toEnd[p] {
				m.canComplete = true
			}
		}
		for act, ins := range n.actIn {
			if m.succ[act] != nil || n.actOut[act] < 0 {
				continue
			}
			for _, in := range ins {
				if r[in] > 0 {
					fired := append([]uint32(nil), r...)
					fired[in]--
					fired[n.actOut[act]]++
					m.succ[act] = fired
					break
				}
			}
		}
	}
	return m
}

// closure lists the markings reachable from start by silent moves, start
// first, breadth first. It stops once it holds more than closureCap.
func (n *Net) closure(start []uint32) [][]uint32 {
	seen := map[string]bool{encodeCounts(start): true}
	out := [][]uint32{start}
	for i := 0; i < len(out) && len(out) <= closureCap; i++ {
		cur := out[i]
		visit := func(next []uint32) {
			if key := encodeCounts(next); !seen[key] {
				seen[key] = true
				out = append(out, next)
			}
		}
		for p, c := range cur {
			if c == 0 {
				continue
			}
			for _, to := range n.moves[p] {
				next := append([]uint32(nil), cur...)
				next[p]--
				next[to]++
				visit(next)
			}
			if g := n.gate[p]; g >= 0 {
				if next := n.fireGate(cur, n.gates[g], int32(p)); next != nil {
					visit(next)
				}
			}
		}
	}
	return out
}

// fireGate fires the AND gateway from cur, or returns nil when it is not
// enabled or p is not its lowest marked incoming flow (so each enabled
// gateway fires once per marking, not once per incoming flow).
func (n *Net) fireGate(cur []uint32, g andGate, p int32) []uint32 {
	for _, in := range g.ins {
		if cur[in] > 0 && in < p {
			return nil
		}
	}
	next := append([]uint32(nil), cur...)
	for _, in := range g.ins {
		if next[in] == 0 {
			return nil
		}
		next[in]--
	}
	for _, out := range g.outs {
		next[out]++
	}
	return next
}

// encodeCounts is a marking's identity: every place's exact count.
func encodeCounts(counts []uint32) string {
	b := make([]byte, 4*len(counts))
	for i, c := range counts {
		binary.LittleEndian.PutUint32(b[4*i:], c)
	}
	return string(b)
}

// PathActivities finds a shortest path src→dst (both exclusive) through
// any node kinds and returns the activities along it: the steps a process
// at src skipped (or undid) to be seen at dst.
func (m *Model) PathActivities(src, dst string) ([]string, bool) {
	type hop struct {
		id   string
		prev *hop
	}
	seen := map[string]bool{src: true}
	queue := []*hop{{id: src}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range m.out[cur.id] {
			if seen[next] {
				continue
			}
			if next == dst {
				var acts []string
				for p := cur; p != nil && p.id != src; p = p.prev {
					if n := m.nodes[p.id]; n != nil && n.Kind == KindActivity {
						acts = append([]string{p.id}, acts...)
					}
				}
				return acts, true
			}
			seen[next] = true
			queue = append(queue, &hop{id: next, prev: cur})
		}
	}
	return nil, false
}
