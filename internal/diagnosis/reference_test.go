package diagnosis

// The plan walker as it was before plans were compiled at registration,
// kept as the reference the differential test drives the engine against:
// every run clones the selected plans (Instantiate, Prune), re-sorts edges
// per visit (Children) and re-walks the clone for the causes under a node,
// the path to it and its parents. It shares the engine's evaluator, shared
// cache, resilience executor, bus and clock, and nothing of its walk.

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

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

// run carries the mutable state of one diagnosis. It is shared across the
// walk goroutines of that one diagnosis: the budget is atomic, the
// per-run cache, claim set, and TestsRun are guarded by mu, and
// everything else is read-only after construction.
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

	mu        sync.Mutex
	local     map[string]assertion.Result // per-run result cache; guards diag.TestsRun too
	testEntry map[string]uint64           // node id -> diagnosis.test evidence entry
	// claimed marks plan nodes (by instantiated-node pointer, so distinct
	// plans never collide) that some branch has already visited. Fan-in
	// makes a node reachable from several parents; the first visitor
	// claims it and later routes skip it, mirroring the DAG's "shared
	// sub-graph, evaluated once" semantics. A node excluded by a passing
	// parent test is NOT claimed — it stays reachable through its other
	// parents.
	claimed map[*diagplan.Node]bool

	testsLeft atomic.Int64
}

// claim marks the node visited, reporting whether this caller won the
// claim (false: another branch already visited it).
func (r *refRun) claim(n *diagplan.Node) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
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
		Parents: parentsOf(r.diagEntry),
		Message: fmt.Sprintf("test %s on %s: %s", n.CheckID, n.ID, status),
		Attrs:   attrs,
	})
	r.mu.Lock()
	if _, ok := r.testEntry[n.ID]; !ok {
		r.testEntry[n.ID] = id
	}
	r.mu.Unlock()
}

// exclusion records a passing diagnosis test that rules out the cause
// nodes reachable under a plan node. Counting and logging are deferred to
// commit so the running n/m tallies come out in deterministic merge order
// regardless of execution interleaving — and so causes shared by several
// excluded parents (fan-in) are counted once.
type refExclusion struct {
	node   *diagplan.Node
	planID string
	causes []string // cause node ids under node, in visit order
	res    assertion.Result
	fresh  bool
}

// branch accumulates the outcome of one sub-graph visit. Sibling branches
// are merged back in probability order (walkInto), so the committed
// Diagnosis is identical to the sequential walk's.
type refBranch struct {
	causes     []Cause
	suspects   []Cause
	exclusions []refExclusion
	// confirmed is set when a root cause was confirmed under this branch
	// and the stop-at-first-confirmation latch is on; it prunes later
	// siblings at merge time.
	confirmed bool
}

func (b *refBranch) confirm(n *diagplan.Node) {
	b.causes = append(b.causes, Cause{NodeID: n.ID, Description: n.Description, Confirmed: true})
}

func (b *refBranch) suspect(n *diagplan.Node) {
	b.suspects = append(b.suspects, Cause{NodeID: n.ID, Description: n.Description})
}

func (b *refBranch) absorb(c *refBranch) {
	b.causes = append(b.causes, c.causes...)
	b.suspects = append(b.suspects, c.suspects...)
	b.exclusions = append(b.exclusions, c.exclusions...)
	if c.confirmed {
		b.confirmed = true
	}
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
	if e.opts.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = clock.ContextWithTimeout(ctx, e.clk, e.opts.RunTimeout)
		defer cancel()
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
	r.testsLeft.Store(int64(e.opts.MaxTests))
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
			inst = inst.Prune(req.StepID)
		}
		d.PotentialFaults += len(inst.PotentialRootCauses())
		r.plans = append(r.plans, inst)
		if entry := inst.EntryNode(); entry != nil {
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
			Parents: parentsOf(flight.ParentFrom(ctx)),
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

// walkInto visits the preference-ordered targets and merges the resulting
// branches back into br IN THAT ORDER. Sequential mode (no semaphore)
// visits in order and stops at the first confirmation, exactly the
// paper's walk. Parallel mode fans siblings out across the semaphore —
// falling back to inline visits when it is full, so progress never
// depends on capacity — then discards everything merged after the first
// confirmed branch. Probability order is thus a preference in both
// modes, and the committed result is identical; parallel walks merely
// spend speculative tests (visible in TestsRun) to cut latency.
func (e refEngine) walkInto(ctx context.Context, r *refRun, br *refBranch, targets []refTarget) {
	if br.confirmed || len(targets) == 0 {
		return
	}
	if e.sem == nil {
		for _, t := range targets {
			e.visit(ctx, r, br, t)
			if br.confirmed {
				return
			}
		}
		return
	}

	subs := make([]*refBranch, len(targets))
	// skipAfter is the lowest index whose branch has confirmed a root
	// cause so far; the sequential walk would never visit siblings past
	// it, so they are not even launched.
	var skipAfter atomic.Int64
	skipAfter.Store(int64(len(targets)))
	var wg sync.WaitGroup
	for i, t := range targets {
		if r.latch && int64(i) > skipAfter.Load() {
			break
		}
		sub := &refBranch{}
		subs[i] = sub
		visit := func(i int, t refTarget, sub *refBranch) {
			e.visit(ctx, r, sub, t)
			if sub.confirmed {
				for {
					cur := skipAfter.Load()
					if int64(i) >= cur || skipAfter.CompareAndSwap(cur, int64(i)) {
						break
					}
				}
			}
		}
		select {
		case e.sem <- struct{}{}:
			wg.Add(1)
			go func(i int, t refTarget, sub *refBranch) {
				defer wg.Done()
				defer func() { <-e.sem }()
				visit(i, t, sub)
			}(i, t, sub)
		default:
			visit(i, t, sub)
		}
	}
	wg.Wait()
	for _, sub := range subs {
		if sub == nil {
			break
		}
		br.absorb(sub)
		if br.confirmed {
			return
		}
	}
}

// visit walks one (instantiated, pruned) plan node entry-down into br. A
// node already claimed by another branch — a fan-in target whose shared
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
				node: n, planID: p.ID, causes: p.CausesUnder(n.ID), res: res, fresh: fresh,
			})
			return
		case assertion.StatusError:
			// Inconclusive: this node cannot be checked. A sink becomes a
			// suspect; an interior node is still descended into, since
			// its children's tests may be independently runnable.
			if fresh {
				e.log(r.req, "Could not verify %s: %s", n.ID, res.Err)
			}
			if n.Leaf() {
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
	kids := p.Children(n)
	next := make([]refTarget, len(kids))
	for i, c := range kids {
		next[i] = refTarget{p: p, n: c}
	}
	e.walkInto(ctx, r, br, next)
}

// commit folds the merged top-level branch into the Diagnosis on the
// Diagnose goroutine: exclusions are tallied and logged in merge order —
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
// never during the walk: parallel branches merged after the first
// confirmation are discarded, and speculative causes must not leave
// evidence behind.
func (r *refRun) recordCause(c Cause, confirmed bool) (entryID uint64, path string) {
	for _, p := range r.plans {
		if !p.Has(c.NodeID) {
			continue
		}
		if pt := p.PathTo(c.NodeID); pt != "" {
			path = p.ID + ":" + pt
		}
		break
	}
	if r.op == nil {
		return 0, path
	}
	r.mu.Lock()
	te := r.testEntry[c.NodeID]
	r.mu.Unlock()
	attrs := map[string]string{
		"node":      c.NodeID,
		"confirmed": strconv.FormatBool(confirmed),
	}
	if path != "" {
		attrs["path"] = path
	}
	for _, p := range r.plans {
		if !p.Has(c.NodeID) {
			continue
		}
		if parents := p.Parents(c.NodeID); len(parents) > 0 {
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
		Parents: parentsOf(te, r.diagEntry),
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
	r.mu.Lock()
	res, ok := r.local[key]
	r.mu.Unlock()
	if ok {
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
		for {
			left := r.testsLeft.Load()
			if left <= 0 {
				return false
			}
			if r.testsLeft.CompareAndSwap(left, left-1) {
				return true
			}
		}
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
			tctx, cancel := clock.ContextWithTimeout(ctx, e.clk, e.opts.TestTimeout)
			defer cancel()
			res = e.eval.Evaluate(tctx, n.CheckID, params, assertion.Trigger{
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

	outcome := OutcomeEvaluated
	if e.cache != nil {
		res, outcome = e.cache.Do(key, reserve, evalFn)
	} else if reserve() {
		res = evalFn()
	} else {
		outcome = OutcomeRejected
	}
	if outcome == OutcomeRejected {
		mBudgetExhausted.Inc()
		r.recordTest(n, "error", map[string]string{"budget": "exhausted"})
		// Not recorded in TestsRun and not logged: no test actually ran.
		return budgetExhaustedResult(n.CheckID, params), false
	}
	if outcome == OutcomeHit || outcome == OutcomeCoalesced {
		res.Cached = true
	}

	r.mu.Lock()
	if prior, ok := r.local[key]; ok {
		// Another goroutine of this run recorded the answer first.
		r.mu.Unlock()
		return prior, false
	}
	r.local[key] = res
	r.diag.TestsRun = append(r.diag.TestsRun, res)
	r.mu.Unlock()
	attrs := map[string]string{"cached": strconv.FormatBool(res.Cached)}
	if outcome == OutcomeEvaluated {
		for k, v := range resOut.Labels() {
			attrs[k] = v
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
