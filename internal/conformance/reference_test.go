package conformance

import (
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"poddiagnosis/internal/process"
)

// The reference: the map-based replayer and checker this package ran
// before the model was compiled (process.Net), kept verbatim for the
// differential tests to drive beside the compiled path. Three edits, none
// to the replay rules: marking.key writes exact counts (it wrote count%10,
// so 1 and 11 tokens collided), silentSuccessors walks places in sorted
// order (it ranged over the map, so which of several equally near enabling
// markings fired was random), and metrics are not touched.

// Token replay over an edge marking, adapted from Petri-net token replay
// to BPMN semantics ([3] ch. 7.2):
//
//   - places are the model's sequence flows plus one virtual output place
//     per activity (so an activity with several outgoing flows defers the
//     branch choice until a later event resolves it);
//   - an activity fires by consuming a token from one incoming flow and
//     producing a token on its output place;
//   - exclusive (XOR) gateways and activity output places move a single
//     token silently; parallel (AND) gateways consume a token from every
//     incoming flow and produce one on every outgoing flow;
//   - an event is *activated* when some marking reachable through silent
//     moves has a token on one of its activity's incoming flows.
//
// The silent-closure search is bounded; models within reason (dozens of
// nodes, a handful of concurrent branches) stay far below the cap.

// place identifiers: real sequence flows are "from\x1fto", virtual output
// places are "\x1eA".
const (
	edgeSep    = "\x1f"
	outPrefix  = "\x1e"
	closureCap = 512
)

func edgePlace(from, to string) string { return from + edgeSep + to }
func outPlace(activity string) string  { return outPrefix + activity }

// displayPlace renders a place for error contexts.
func displayPlace(p string) string {
	if strings.HasPrefix(p, outPrefix) {
		return strings.TrimPrefix(p, outPrefix)
	}
	return strings.ReplaceAll(p, edgeSep, "->")
}

// marking is a multiset of places.
type marking map[string]int

func (m marking) clone() marking {
	out := make(marking, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func (m marking) inc(p string) { m[p]++ }

func (m marking) dec(p string) {
	if m[p] <= 1 {
		delete(m, p)
	} else {
		m[p]--
	}
}

// key returns a canonical serialization for visited-set deduplication.
func (m marking) key() string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(m[k]))
		b.WriteByte(';')
	}
	return b.String()
}

func (m marking) sortedPlaces() []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// places lists the marked places for error contexts.
func (m marking) places() []string {
	out := make([]string, 0, len(m))
	for p := range m {
		out = append(out, displayPlace(p))
	}
	sort.Strings(out)
	return out
}

// replayer executes token replay over one model.
type replayer struct {
	model *process.Model
}

// initialMarking places one token on the start event's output.
func (r *replayer) initialMarking() marking {
	m := marking{}
	m.inc(outPlace(r.model.Start()))
	return m
}

// silentSuccessors returns every marking reachable from m by one silent
// move.
func (r *replayer) silentSuccessors(m marking) []marking {
	var out []marking
	for _, p := range m.sortedPlaces() {
		if m[p] <= 0 {
			continue
		}
		// Virtual output place of an activity or event: route the token
		// to one outgoing flow (deferred exclusive choice).
		if strings.HasPrefix(p, outPrefix) {
			from := strings.TrimPrefix(p, outPrefix)
			for _, to := range r.model.Outgoing(from) {
				next := m.clone()
				next.dec(p)
				next.inc(edgePlace(from, to))
				out = append(out, next)
			}
			continue
		}
		// Token sitting on a flow into a gateway.
		parts := strings.SplitN(p, edgeSep, 2)
		if len(parts) != 2 {
			continue
		}
		node := r.model.Node(parts[1])
		if node == nil {
			continue
		}
		switch node.Kind {
		case process.KindGateway:
			// XOR: consume this token, produce on one outgoing flow.
			for _, to := range r.model.Outgoing(node.ID) {
				next := m.clone()
				next.dec(p)
				next.inc(edgePlace(node.ID, to))
				out = append(out, next)
			}
		case process.KindANDGateway:
			// AND join/fork: fires only with a token on every incoming
			// flow; handled once per gateway (when p is its first
			// incoming flow in iteration order, to avoid duplicates).
			if !r.isFirstMarkedIncoming(m, node.ID, p) {
				continue
			}
			next := m.clone()
			ok := true
			for _, in := range r.model.Incoming(node.ID) {
				e := edgePlace(in, node.ID)
				if next[e] <= 0 {
					ok = false
					break
				}
				next.dec(e)
			}
			if !ok {
				continue
			}
			for _, to := range r.model.Outgoing(node.ID) {
				next.inc(edgePlace(node.ID, to))
			}
			out = append(out, next)
		}
	}
	return out
}

// isFirstMarkedIncoming reports whether p is the lexicographically first
// marked incoming flow of the gateway, so the AND firing is generated once.
func (r *replayer) isFirstMarkedIncoming(m marking, gateway, p string) bool {
	var marked []string
	for _, in := range r.model.Incoming(gateway) {
		e := edgePlace(in, gateway)
		if m[e] > 0 {
			marked = append(marked, e)
		}
	}
	sort.Strings(marked)
	return len(marked) > 0 && marked[0] == p
}

// closure enumerates markings reachable via silent moves, including m
// itself, bounded by closureCap.
func (r *replayer) closure(m marking) []marking {
	seen := map[string]bool{m.key(): true}
	queue := []marking{m}
	out := []marking{m}
	for len(queue) > 0 && len(out) < closureCap {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range r.silentSuccessors(cur) {
			k := next.key()
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, next)
			queue = append(queue, next)
		}
	}
	return out
}

// fireActivity attempts to fire the activity from m (through silent
// moves). It returns the successor marking and whether the activity was
// activated.
func (r *replayer) fireActivity(m marking, activityID string) (marking, bool) {
	for _, reached := range r.closure(m) {
		for _, in := range r.model.Incoming(activityID) {
			e := edgePlace(in, activityID)
			if reached[e] > 0 {
				next := reached.clone()
				next.dec(e)
				next.inc(outPlace(activityID))
				return next, true
			}
		}
	}
	return nil, false
}

// canComplete reports whether a token can reach an end event through
// silent moves.
func (r *replayer) canComplete(m marking) bool {
	ends := make(map[string]bool)
	for _, e := range r.model.Ends() {
		ends[e] = true
	}
	for _, reached := range r.closure(m) {
		for p, n := range reached {
			if n <= 0 || strings.HasPrefix(p, outPrefix) {
				continue
			}
			parts := strings.SplitN(p, edgeSep, 2)
			if len(parts) == 2 && ends[parts[1]] {
				return true
			}
		}
	}
	return false
}

// inProgress reports whether the activity's output place is marked (the
// token is still "at" the activity — used for multi-line steps).
func (r *replayer) inProgress(m marking, activityID string) bool {
	return m[outPlace(activityID)] > 0
}

// refChecker is the checker as it was: Classify and IsErrorLine as plain
// loops over every pattern, then the map replayer.
type refChecker struct {
	model     *process.Model
	patterns  map[string][]*regexp.Regexp // by node id
	errors    []*regexp.Regexp
	instances map[string]*refInstance
}

type refInstance struct {
	m         marking
	lastValid *process.Node
	completed bool
	fired     map[string]int
	lastAt    time.Time
	events    int
	fit       int
}

func newRefChecker(model *process.Model) *refChecker {
	c := &refChecker{model: model, patterns: map[string][]*regexp.Regexp{}, instances: map[string]*refInstance{}}
	for _, n := range model.Nodes() {
		for _, p := range n.Patterns {
			c.patterns[n.ID] = append(c.patterns[n.ID], regexp.MustCompile(p))
		}
	}
	for _, p := range model.ErrorPatterns() {
		c.errors = append(c.errors, regexp.MustCompile(p))
	}
	return c
}

func (c *refChecker) classify(line string) (*process.Node, bool) {
	var best *process.Node
	bestLen := -1
	for _, n := range c.model.Nodes() { // sorted by id
		for _, re := range c.patterns[n.ID] {
			if re.MatchString(line) && len(re.String()) > bestLen {
				best, bestLen = n, len(re.String())
			}
		}
	}
	return best, best != nil
}

func (c *refChecker) isErrorLine(line string) bool {
	for _, re := range c.errors {
		if re.MatchString(line) {
			return true
		}
	}
	return false
}

func (c *refChecker) check(instanceID, line string, at time.Time, resyncOK bool) Result {
	st, ok := c.instances[instanceID]
	if !ok {
		st = &refInstance{
			m:     (&replayer{model: c.model}).initialMarking(),
			fired: make(map[string]int),
		}
		c.instances[instanceID] = st
	}
	st.lastAt = at
	st.events++
	rp := &replayer{model: c.model}

	res := Result{InstanceID: instanceID}
	defer func() {
		if res.Verdict == VerdictFit {
			st.fit++
		}
	}()

	// Known-error lines trump classification.
	if c.isErrorLine(line) {
		res.Verdict = VerdictError
		res.Context = c.errorContext(st, nil)
		return res
	}

	node, ok := c.classify(line)
	if !ok {
		res.Verdict = VerdictUnclassified
		res.Context = c.errorContext(st, nil)
		return res
	}
	res.ActivityID = node.ID
	res.ActivityName = node.Name
	res.StepID = node.StepID

	if node.Recurring {
		// Periodic activities replay as fit while the instance is live.
		res.Verdict = VerdictFit
		res.Completed = st.completed
		return res
	}

	if node.MultiLine && rp.inProgress(st.m, node.ID) {
		// Another log line of the activity the token already occupies:
		// the step is in progress (steps may log start, progress and
		// end lines), so the event fits without moving the token.
		st.lastValid = node
		res.Verdict = VerdictFit
		res.Completed = st.completed
		return res
	}

	if next, ok := rp.fireActivity(st.m, node.ID); ok {
		st.m = next
		st.lastValid = node
		st.fired[node.ID]++
		st.completed = rp.canComplete(st.m)
		res.Verdict = VerdictFit
		res.Completed = st.completed
		return res
	}

	if resyncOK {
		if next, skipped, ok := c.fastForward(rp, st, node); ok {
			st.m = next
			st.lastValid = node
			for _, id := range skipped {
				st.fired[id]++
			}
			st.fired[node.ID]++
			st.completed = rp.canComplete(st.m)
			res.Verdict = VerdictFit
			res.Resynced = true
			res.Completed = st.completed
			return res
		}
	}

	res.Verdict = VerdictUnfit
	res.Context = c.errorContext(st, node)
	return res
}

// fastForward attempts to replay the activities on a path from the
// current marking to the unfit node — the ones whose log lines were
// presumably lost — and then the node itself. It returns the advanced
// marking and the skipped activity ids, or ok=false when no forward path
// explains the deviation (leaving the unfit verdict to stand).
func (c *refChecker) fastForward(rp *replayer, st *refInstance, node *process.Node) (marking, []string, bool) {
	for _, anchor := range c.markingAnchors(st) {
		skipped, ok := c.activitiesOnPath(anchor, node.ID)
		if !ok {
			continue
		}
		m := st.m
		replayable := true
		for _, act := range skipped {
			next, fired := rp.fireActivity(m, act)
			if !fired {
				replayable = false
				break
			}
			m = next
		}
		if !replayable {
			continue
		}
		next, fired := rp.fireActivity(m, node.ID)
		if !fired {
			continue
		}
		return next, skipped, true
	}
	return nil, nil, false
}

// errorContext snapshots the instance state and, when an unfit activity is
// given, hypothesizes the skipped or undone activities.
func (c *refChecker) errorContext(st *refInstance, unfit *process.Node) *ErrorContext {
	ctx := &ErrorContext{Direction: DirectionNone}
	if st.lastValid != nil {
		ctx.LastValidActivity = st.lastValid.ID
		ctx.LastValidStep = st.lastValid.StepID
	}
	ctx.Marking = st.m.places()
	if unfit == nil {
		return ctx
	}
	// The skipped/undone hypothesis works on the node graph: anchor the
	// search at the nodes the marked places touch.
	anchors := c.markingAnchors(st)
	// Forward deviation: activities on a path from the marking to the
	// unfit activity were skipped.
	for _, anchor := range anchors {
		if skipped, ok := c.activitiesOnPath(anchor, unfit.ID); ok {
			ctx.Direction = DirectionForward
			ctx.Skipped = skipped
			return ctx
		}
	}
	// Backward deviation: the unfit activity precedes the marking; the
	// activities between it and the marking would have been undone.
	for _, anchor := range anchors {
		if undone, ok := c.activitiesOnPath(unfit.ID, anchor); ok {
			ctx.Direction = DirectionBackward
			ctx.Skipped = undone
			return ctx
		}
	}
	return ctx
}

// markingAnchors maps the marked places to node ids for hypothesis
// search: an activity output place anchors at the activity, a flow place
// anchors at its source node.
func (c *refChecker) markingAnchors(st *refInstance) []string {
	seen := make(map[string]bool)
	var out []string
	for p := range st.m {
		var node string
		if strings.HasPrefix(p, outPrefix) {
			node = strings.TrimPrefix(p, outPrefix)
		} else if parts := strings.SplitN(p, edgeSep, 2); len(parts) == 2 {
			node = parts[0]
		}
		if node != "" && !seen[node] {
			seen[node] = true
			out = append(out, node)
		}
	}
	sort.Strings(out)
	return out
}

// activitiesOnPath finds a shortest path src→dst (both exclusive) through
// any node kinds and returns the activities along it.
func (c *refChecker) activitiesOnPath(src, dst string) ([]string, bool) {
	type hop struct {
		id   string
		prev *hop
	}
	seen := map[string]bool{src: true}
	queue := []*hop{{id: src}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range c.model.Outgoing(cur.id) {
			if seen[next] {
				continue
			}
			h := &hop{id: next, prev: cur}
			if next == dst {
				var acts []string
				for p := cur; p != nil && p.id != src; p = p.prev {
					if n := c.model.Node(p.id); n != nil && n.Kind == process.KindActivity {
						acts = append([]string{p.id}, acts...)
					}
				}
				return acts, true
			}
			seen[next] = true
			queue = append(queue, h)
		}
	}
	return nil, false
}

// Export is Checker.Export as it was.
func (c *refChecker) Export() []InstanceSnapshot {
	out := make([]InstanceSnapshot, 0, len(c.instances))
	for id, st := range c.instances {
		snap := InstanceSnapshot{
			InstanceID: id,
			Marking:    make(map[string]int, len(st.m)),
			Completed:  st.completed,
			Fired:      make(map[string]int, len(st.fired)),
			LastAt:     st.lastAt,
			Events:     st.events,
			Fit:        st.fit,
		}
		for p, n := range st.m {
			snap.Marking[p] = n
		}
		for a, n := range st.fired {
			snap.Fired[a] = n
		}
		if st.lastValid != nil {
			snap.LastValid = st.lastValid.ID
		}
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].InstanceID < out[j].InstanceID })
	return out
}
