package diagnosis

// The plan walker as it was before plans were compiled at registration,
// kept as the reference the differential test drives the engine against:
// every run clones the selected plans (Instantiate, refPrune), re-sorts edges
// per visit (refChildren) and re-walks the clone for the causes under a node,
// the path to it and its parents. It shares the engine's evaluator, shared
// cache, resilience executor, bus and clock, and nothing of its walk — the
// graph reads at the end of this file are those Plan offered before Compiled
// became the only way to read a plan.

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/diagplan"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/obs"
	"poddiagnosis/internal/obs/flight"
	"poddiagnosis/internal/resilience"
)

// refEngine walks with the reference walker over an Engine's collaborators.
type refEngine struct {
	*Engine
	hookInstantiate func(planID string)
}

// target is one (plan, node) visit unit: the walk needs the owning plan
// for edge ordering and cause enumeration.
type refTarget struct {
	p *diagplan.Plan
	n *diagplan.Node
}

// run carries the mutable state of one diagnosis, walked on the goroutine
// that called Diagnose.
type refRun struct {
	req   Request
	diag  *Diagnosis
	latch bool // stop at first confirmation

	// op is the operation's evidence ring (nil-safe no-op when the
	// request carried none) and diagEntry the run's timeline record;
	// both are read-only after construction.
	op        *flight.Op
	diagEntry uint64
	// plans are the instantiated, pruned plans the walk visits, kept so
	// confirmed causes can cite their entry-to-node path and fan-in
	// parents.
	plans []*diagplan.Plan

	local     map[string]assertion.Result // per-run result cache
	testEntry map[string]uint64           // node id -> diagnosis.test evidence entry
	// claimed marks plan nodes (by instantiated-node pointer, so distinct
	// plans never collide) that the walk has already visited. Fan-in
	// makes a node reachable from several parents; the first visitor
	// claims it and later routes skip it, mirroring the DAG's "shared
	// sub-graph, evaluated once" semantics. A node excluded by a passing
	// parent test is NOT claimed — it stays reachable through its other
	// parents.
	claimed map[*diagplan.Node]bool

	testsLeft int
}

// claim marks the node visited, reporting whether this is its first
// visit.
func (r *refRun) claim(n *diagplan.Node) bool {
	if r.claimed[n] {
		return false
	}
	r.claimed[n] = true
	return true
}

// recordTest records one diagnosis-test evidence entry, chained to the
// run's diagnosis entry, and remembers the node's first entry as the
// parent link for a later cause record.
func (r *refRun) recordTest(n *diagplan.Node, status string, attrs map[string]string) {
	if r.op == nil {
		return
	}
	attrs["check"] = n.CheckID
	attrs["node"] = n.ID
	attrs["status"] = status
	id := r.op.Record(flight.Entry{
		Kind:    flight.KindTest,
		Parents: flight.Parents(r.diagEntry),
		Message: fmt.Sprintf("test %s on %s: %s", n.CheckID, n.ID, status),
		Attrs:   attrs,
	})
	if _, ok := r.testEntry[n.ID]; !ok {
		r.testEntry[n.ID] = id
	}
}

// exclusion records a passing diagnosis test that rules out the cause
// nodes reachable under a plan node. Counting and logging are deferred to
// commit so the running n/m tallies come out in visit order — and so
// causes shared by several excluded parents (fan-in) are counted once.
type refExclusion struct {
	node   *diagplan.Node
	planID string
	causes []string // cause node ids under node, in visit order
	res    assertion.Result
	fresh  bool
}

// branch accumulates the outcome of the walk for commit.
type refBranch struct {
	causes     []Cause
	suspects   []Cause
	exclusions []refExclusion
	// confirmed is set when a root cause was confirmed and the
	// stop-at-first-confirmation latch is on; it ends the walk.
	confirmed bool
}

func (b *refBranch) confirm(n *diagplan.Node) {
	b.causes = append(b.causes, Cause{NodeID: n.ID, Description: n.Description, Confirmed: true})
}

func (b *refBranch) suspect(n *diagplan.Node) {
	b.suspects = append(b.suspects, Cause{NodeID: n.ID, Description: n.Description})
}

// Diagnose executes one diagnosis for the request.
func (e refEngine) Diagnose(ctx context.Context, req Request) *Diagnosis {
	wallStart := clock.Wall.Now()
	mInflight.Inc()
	defer mInflight.Dec()
	ctx, span := obs.StartSpan(ctx, "diagnosis.walk")
	span.SetAttr("source", string(req.Source))
	span.SetAttr("instance", req.ProcessInstanceID)
	span.SetAttr("step", req.StepID)
	if req.AssertionID != "" {
		span.SetAttr("assertion", req.AssertionID)
	}
	started := e.clk.Now()
	d := &Diagnosis{Request: req, StartedAt: started, Degraded: req.Degraded, Confidence: 1}
	if req.Degraded {
		d.Confidence = 0.5
	}
	r := &refRun{
		req: req, diag: d,
		latch:     !e.opts.ContinueAfterConfirm,
		op:        flight.FromContext(ctx),
		local:     make(map[string]assertion.Result),
		testEntry: make(map[string]uint64),
		claimed:   make(map[*diagplan.Node]bool),
	}
	r.testsLeft = e.opts.MaxTests
	if r.op != nil {
		// Tie the walk's spans into the operation's trace and evidence
		// chain: the span carries the operation id (the /traces?op=
		// filter), the timeline entry the span id.
		span.SetAttr("op", r.op.Operation())
	}

	// Instantiate and prune each selected plan exactly once; the same
	// instance serves both the potential-fault count and the walk.
	var entries []refTarget
	for _, p := range e.selectPlans(req) {
		if e.hookInstantiate != nil {
			e.hookInstantiate(p.ID)
		}
		inst := p.Instantiate(req.Params)
		if !e.opts.DisablePruning {
			inst = refPrune(inst, req.StepID)
		}
		d.PotentialFaults += len(refPotentialRootCauses(inst))
		r.plans = append(r.plans, inst)
		if entry := refEntryNode(inst); entry != nil {
			entries = append(entries, refTarget{p: inst, n: entry})
		}
	}

	if r.op != nil {
		attrs := map[string]string{
			"source": string(req.Source),
			"faults": strconv.Itoa(d.PotentialFaults),
		}
		if req.StepID != "" {
			attrs["step"] = req.StepID
		}
		if req.AssertionID != "" {
			attrs["assertion"] = req.AssertionID
		}
		d.EvidenceID = r.op.Record(flight.Entry{
			Kind:    flight.KindDiagnosis,
			At:      started,
			Parents: flight.Parents(flight.ParentFrom(ctx)),
			SpanID:  span.ID(),
			Message: fmt.Sprintf("diagnosis plan walk: %d potential faults", d.PotentialFaults),
			Attrs:   attrs,
		})
		r.diagEntry = d.EvidenceID
	}

	e.log(req, "Performing on demand assertion checking: %s. %d potential faults in total...",
		req.Detail, d.PotentialFaults)

	top := &refBranch{}
	e.walkInto(ctx, r, top, entries)
	e.commit(r, top)

	switch {
	case len(d.RootCauses) > 0:
		d.Conclusion = ConclusionIdentified
		if len(d.RootCauses) == 1 {
			e.log(req, "One root cause is identified: %s", d.RootCauses[0].Description)
		} else {
			e.log(req, "%d root causes are identified", len(d.RootCauses))
		}
	case len(d.Suspected) > 0:
		d.Conclusion = ConclusionSuspected
		e.log(req, "Diagnosis inconclusive: %d possible root causes suspected but not confirmed", len(d.Suspected))
	default:
		d.Conclusion = ConclusionNone
		e.log(req, "No root cause identified")
	}
	d.Duration = e.clk.Since(started)
	mWalks.With(string(d.Conclusion)).Inc()
	mWalkDuration.Observe(clock.Wall.Since(wallStart).Seconds())
	mCausesFound.Add(float64(len(d.RootCauses)))
	span.SetAttr("conclusion", string(d.Conclusion))
	span.SetAttr("tests", fmt.Sprintf("%d", len(d.TestsRun)))
	span.SetAttr("simDuration", d.Duration.String())
	span.End()
	return d
}

// selectPlans picks the diagnosis plans for the request.
func (e refEngine) selectPlans(req Request) []*diagplan.Plan {
	if req.AssertionID != "" {
		return e.cat.Select(req.AssertionID)
	}
	// All() is sorted by plan id: deterministic order for reproducible
	// diagnoses.
	return e.cat.All()
}

// walkInto visits the preference-ordered targets in order into br and
// stops at the first confirmation, exactly the paper's walk.
func (e refEngine) walkInto(ctx context.Context, r *refRun, br *refBranch, targets []refTarget) {
	if br.confirmed || len(targets) == 0 {
		return
	}
	for _, t := range targets {
		e.visit(ctx, r, br, t)
		if br.confirmed {
			return
		}
	}
}

// visit walks one (instantiated, pruned) plan node entry-down into br. A
// node already claimed — a fan-in target whose shared
// sub-graph was evaluated first through a different parent — is skipped.
func (e refEngine) visit(ctx context.Context, r *refRun, br *refBranch, t refTarget) {
	p, n := t.p, t.n
	if !r.claim(n) {
		return
	}
	if n.CheckID != "" {
		res, fresh := e.test(ctx, r, n)
		switch res.Status {
		case assertion.StatusPass:
			// Error not present: exclude every cause reachable under this
			// node. Tallying and the n/m exclusion log are deferred to
			// commit, where fan-in shared causes are deduplicated.
			br.exclusions = append(br.exclusions, refExclusion{
				node: n, planID: p.ID, causes: refCausesUnder(p, n.ID), res: res, fresh: fresh,
			})
			return
		case assertion.StatusError:
			// Inconclusive: this node cannot be checked. A sink becomes a
			// suspect; an interior node is still descended into, since
			// its children's tests may be independently runnable.
			if fresh {
				e.log(r.req, "Could not verify %s: %s", n.ID, res.Err)
			}
			if len(n.Edges) == 0 {
				br.suspect(n)
				return
			}
		case assertion.StatusFail:
			if fresh {
				e.log(r.req, "Failed verification of %s: %s", n.ID, res.Message)
			}
			if n.IsCause() {
				br.confirm(n)
				if r.latch {
					br.confirmed = true
				}
				return
			}
		}
	} else if n.IsCause() {
		// Untestable cause under a present error: suspected only.
		br.suspect(n)
		return
	}
	kids := refChildren(p, n)
	next := make([]refTarget, len(kids))
	for i, c := range kids {
		next[i] = refTarget{p: p, n: c}
	}
	e.walkInto(ctx, r, br, next)
}

// commit folds the walk's branch into the Diagnosis: exclusions are
// tallied and logged in visit order —
// each (plan, cause) pair counted once even when fan-in lets several
// passing parents exclude the same shared cause — and causes and suspects
// are deduplicated: catalog sub-graphs shared across plans carry id
// suffixes, so identity is by node id or by instantiated description.
func (e refEngine) commit(r *refRun, br *refBranch) {
	d := r.diag
	excluded := make(map[string]bool)
	for _, ex := range br.exclusions {
		for _, id := range ex.causes {
			key := ex.planID + ":" + id
			if !excluded[key] {
				excluded[key] = true
				d.Excluded++
			}
		}
		if ex.fresh {
			e.log(r.req, "Verified %s: %s %d/%d faults are excluded",
				ex.node.ID, ex.res.Message, d.Excluded, d.PotentialFaults)
		}
	}
	for _, c := range br.causes {
		if !hasCause(d.RootCauses, c) {
			c.EvidenceID, c.Path = r.recordCause(c, true)
			d.RootCauses = append(d.RootCauses, c)
		}
	}
	for _, c := range br.suspects {
		if !hasCause(d.Suspected, c) {
			c.EvidenceID, c.Path = r.recordCause(c, false)
			d.Suspected = append(d.Suspected, c)
		}
	}
}

// recordCause commits one cause to the evidence timeline, chained to
// the diagnosis entry and the test execution that confirmed (or could
// not exclude) it. The entry cites the probability-preferred entry-to-
// node path and, for fan-in causes, every parent that can reach the node
// — the full DAG confirmation context. Recording happens at commit time,
// never during the walk.
func (r *refRun) recordCause(c Cause, confirmed bool) (entryID uint64, path string) {
	for _, p := range r.plans {
		if !refHas(p, c.NodeID) {
			continue
		}
		if pt := refPathTo(p, c.NodeID); pt != "" {
			path = p.ID + ":" + pt
		}
		break
	}
	if r.op == nil {
		return 0, path
	}
	te := r.testEntry[c.NodeID]
	attrs := map[string]string{
		"node":      c.NodeID,
		"confirmed": strconv.FormatBool(confirmed),
	}
	if path != "" {
		attrs["path"] = path
	}
	for _, p := range r.plans {
		if !refHas(p, c.NodeID) {
			continue
		}
		if parents := refParents(p, c.NodeID); len(parents) > 0 {
			attrs["parents"] = strings.Join(parents, ",")
		}
		break
	}
	msg := "confirmed cause: " + c.Description
	if !confirmed {
		msg = "suspected cause: " + c.Description
	}
	entryID = r.op.Record(flight.Entry{
		Kind:    flight.KindCause,
		Parents: flight.Parents(te, r.diagEntry),
		Message: msg,
		Attrs:   attrs,
	})
	return entryID, path
}

// test evaluates the node's diagnosis check, answering from the run-local
// cache, the shared cross-run cache, or a fresh evaluation. fresh reports
// whether this call ran the evaluation itself (and so drives the
// paper-format verification logging). Only fresh evaluations charge the
// run's test budget — shared-cache hits and coalesced joins are free.
//
// The cache key derives from the canonicalized check id and parameters
// only, never from the plan or node the test was reached through: a tree-
// compiled plan and a native DAG plan running the same check share cache
// entries.
func (e refEngine) test(ctx context.Context, r *refRun, n *diagplan.Node) (assertion.Result, bool) {
	params := r.req.Params.Merge(n.CheckParams)
	key := refCacheKey(n.CheckID, params)
	if res, ok := r.local[key]; ok {
		mCacheHits.Inc()
		return res, false
	}
	if e.resil.Open(n.CheckID) {
		// Breaker open: skip before touching the budget or the shared
		// cache, so an unknown never displaces or poisons a real answer.
		r.recordTest(n, "error", map[string]string{"breaker": "open"})
		return unknownResult(n.CheckID, params), false
	}

	reserve := func() bool {
		if r.testsLeft <= 0 {
			return false
		}
		r.testsLeft--
		return true
	}
	// resOut escapes the closure so the evidence entry can carry the
	// retry/breaker annotations; it is only written when this call runs
	// the evaluation itself (outcome == OutcomeEvaluated).
	var resOut resilience.Outcome
	evalFn := func() assertion.Result {
		mTests.Inc()
		ctx, span := obs.StartSpan(ctx, "diagnosis.test")
		span.SetAttr("node", n.ID)
		span.SetAttr("check", n.CheckID)
		if r.op != nil {
			span.SetAttr("op", r.op.Operation())
		}
		e.log(r.req, "Verifying %s", strings.TrimSuffix(n.Description, "."))
		var res assertion.Result
		out := e.resil.Do(ctx, n.CheckID, func(ctx context.Context) resilience.Verdict {
			res = e.eval.Evaluate(ctx, n.CheckID, params, assertion.Trigger{
				Source:            assertion.TriggerOnDemand,
				ProcessInstanceID: r.req.ProcessInstanceID,
				StepID:            r.req.StepID,
			})
			if res.Status != assertion.StatusError {
				return resilience.VerdictOK
			}
			// A no-retry test never classifies as retryable: its answer is
			// time-sensitive (the catalog's TestClass annotation, enforced
			// by podlint DG009), so repeating the call proves nothing.
			if n.TestClass != diagplan.TestClassNoRetry && resilience.Retryable(res.Err) {
				return resilience.VerdictRetryable
			}
			return resilience.VerdictFatal
		})
		if out.ShortCircuited && out.Attempts == 0 {
			// The breaker opened between the precheck and here (a racing
			// walk tripped it): the test never ran.
			res = unknownResult(n.CheckID, params)
		}
		resOut = out
		span.SetAttr("status", res.Status.String())
		span.End()
		return res
	}

	res, outcome := e.cache.Do(key, reserve, evalFn)
	if outcome == OutcomeRejected {
		mBudgetExhausted.Inc()
		r.recordTest(n, "error", map[string]string{"budget": "exhausted"})
		// Not recorded in TestsRun and not logged: no test actually ran.
		return budgetExhaustedResult(n.CheckID, params), false
	}
	if outcome == OutcomeHit || outcome == OutcomeCoalesced {
		res.Cached = true
	}

	r.local[key] = res
	r.diag.TestsRun = append(r.diag.TestsRun, res)
	attrs := map[string]string{"cached": strconv.FormatBool(res.Cached)}
	if outcome == OutcomeEvaluated {
		l := resOut.LabelPairs()
		for i := 0; i < len(l); i += 2 {
			attrs[l[i]] = l[i+1]
		}
	}
	r.recordTest(n, res.Status.String(), attrs)
	return res, outcome == OutcomeEvaluated
}

// cacheKey builds an injective key from the check id and parameters:
// every field is length-prefixed, so no delimiter bytes inside ids, keys
// or values can make two distinct inputs collide.
func refCacheKey(checkID string, p assertion.Params) string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(strconv.Itoa(len(checkID)))
	b.WriteByte(':')
	b.WriteString(checkID)
	for _, k := range keys {
		v := p[k]
		b.WriteString(strconv.Itoa(len(k)))
		b.WriteByte(':')
		b.WriteString(k)
		b.WriteString(strconv.Itoa(len(v)))
		b.WriteByte(':')
		b.WriteString(v)
	}
	return b.String()
}

// log emits a diagnosis log event in the paper's format.
func (e refEngine) log(req Request, format string, args ...any) {
	if e.bus == nil {
		return
	}
	ts := e.clk.Now()
	msg := fmt.Sprintf(format, args...)
	e.bus.Publish(logging.Event{
		Timestamp:  ts,
		Source:     "diagnosis.log",
		SourceHost: "pod-diagnosis",
		Type:       logging.TypeDiagnosis,
		Tags:       []string{"diagnosis"},
		Fields: map[string]string{
			"taskid": req.ProcessInstanceID,
			"stepid": req.StepID,
		},
		Message: fmt.Sprintf("[%s] [diagnosis] [%s] [%s] %s",
			ts.Format(logging.TimestampLayout), req.ProcessInstanceID, req.StepID, msg),
	})
}

// refEntryNode returns the entry node, or nil for an invalid plan.
func refEntryNode(p *diagplan.Plan) *diagplan.Node { return p.Node(p.Entry) }

// refHas reports whether the plan contains a node with the given id.
func refHas(p *diagplan.Plan, id string) bool { return p.Node(id) != nil }

// refChildren returns the node's edge targets ordered by descending edge
// probability (stable for ties, preserving document order).
func refChildren(p *diagplan.Plan, n *diagplan.Node) []*diagplan.Node {
	edges := append([]diagplan.Edge(nil), n.Edges...)
	for i := 1; i < len(edges); i++ {
		for j := i; j > 0 && edges[j].Prob > edges[j-1].Prob; j-- {
			edges[j], edges[j-1] = edges[j-1], edges[j]
		}
	}
	out := make([]*diagplan.Node, 0, len(edges))
	for _, e := range edges {
		if t := p.Node(e.To); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// refParents returns the ids of every node with an edge into nodeID, sorted.
// Fan-in causes cite all of them on the evidence timeline.
func refParents(p *diagplan.Plan, nodeID string) []string {
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

// refPathTo returns one canonical entry-to-node path as "/"-joined ids — the
// probability-preferred route a sequential walk would take — or "" when
// the node is unreachable from the entry. Fan-in nodes have several
// routes; refParents lists the others.
func refPathTo(p *diagplan.Plan, nodeID string) string {
	entry := refEntryNode(p)
	if entry == nil {
		return ""
	}
	visited := make(map[string]bool)
	var find func(n *diagplan.Node, trail []string) string
	find = func(n *diagplan.Node, trail []string) string {
		if visited[n.ID] {
			return ""
		}
		visited[n.ID] = true
		trail = append(trail, n.ID)
		if n.ID == nodeID {
			return strings.Join(trail, "/")
		}
		for _, c := range refChildren(p, n) {
			if path := find(c, trail); path != "" {
				return path
			}
		}
		return ""
	}
	return find(entry, nil)
}

// refPrune returns a deep copy retaining only the nodes reachable from the
// entry through step-relevant targets. The entry is always kept. A shared
// node stays alive as long as ANY relevant parent still reaches it.
func refPrune(p *diagplan.Plan, stepID string) *diagplan.Plan {
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
	out := &diagplan.Plan{ID: src.ID, AssertionID: src.AssertionID, Description: src.Description, Entry: src.Entry}
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

// refPotentialRootCauses returns the distinct cause nodes reachable from the
// entry, in visit order (probability-ordered depth-first, each shared
// node counted once).
func refPotentialRootCauses(p *diagplan.Plan) []*diagplan.Node {
	entry := refEntryNode(p)
	if entry == nil {
		return nil
	}
	var out []*diagplan.Node
	visited := make(map[string]bool)
	var walk func(n *diagplan.Node)
	walk = func(n *diagplan.Node) {
		if visited[n.ID] {
			return
		}
		visited[n.ID] = true
		if n.IsCause() {
			out = append(out, n)
		}
		for _, c := range refChildren(p, n) {
			walk(c)
		}
	}
	walk(entry)
	return out
}

// refCausesUnder returns the ids of the distinct cause nodes reachable from
// (and including) nodeID, in visit order. A passing diagnosis test on the
// node excludes exactly these faults.
func refCausesUnder(p *diagplan.Plan, nodeID string) []string {
	start := p.Node(nodeID)
	if start == nil {
		return nil
	}
	var out []string
	visited := make(map[string]bool)
	var walk func(n *diagplan.Node)
	walk = func(n *diagplan.Node) {
		if visited[n.ID] {
			return
		}
		visited[n.ID] = true
		if n.IsCause() {
			out = append(out, n.ID)
		}
		for _, c := range refChildren(p, n) {
			walk(c)
		}
	}
	walk(start)
	return out
}
