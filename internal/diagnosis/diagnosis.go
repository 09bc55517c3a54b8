// Package diagnosis implements the paper's Error Diagnosis component
// (§III.B.4): when an assertion fails, a process non-conformance is
// detected, or another monitor reports a failure, the engine selects the
// diagnosis plan(s) for the triggering assertion — in the form the catalog
// compiled at registration, already pruned for every process context —
// binds the runtime request's variables to them, and visits the DAG
// entry-down, running on-demand diagnosis tests (assertion evaluations) to
// confirm or exclude potential faults. Plans generalize the paper's fault
// trees: collector nodes may feed several tester sub-graphs and shared
// sub-graphs fan in from several parents, each visited at most once per
// run. Test results are cached and reused across nodes — and, through a
// shared single-flight cache bounded by the simulated cloud's eventual-
// consistency window, across concurrent runs; sibling visits are ordered by
// per-edge prior fault probability and may proceed in parallel on a bounded
// worker pool while committing results in that same order.
package diagnosis

import (
	"context"
	"errors"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/diagplan"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/obs"
	"poddiagnosis/internal/obs/flight"
	"poddiagnosis/internal/resilience"
)

// Diagnosis metrics. Walk duration is wall-clock (the Diagnosis result
// carries the simulated-clock duration the paper's §V measures).
var (
	mWalks = obs.Default.CounterVec("pod_diagnosis_walks_total",
		"Diagnosis plan runs by conclusion.", "conclusion")
	mWalkDuration = obs.Default.Histogram("pod_diagnosis_walk_seconds",
		"Wall-clock duration of one diagnosis plan run.", nil)
	mTests = obs.Default.Counter("pod_diagnosis_tests_total",
		"On-demand diagnosis tests executed.")
	mCacheHits = obs.Default.Counter("pod_diagnosis_cache_hits_total",
		"Diagnosis tests answered from the per-run result cache.")
	mCausesFound = obs.Default.Counter("pod_diagnosis_causes_found_total",
		"Confirmed root causes across all diagnosis runs.")
	mInflight = obs.Default.Gauge("pod_diagnosis_inflight",
		"Diagnosis walks currently in flight.")
	mBudgetExhausted = obs.Default.Counter("pod_diagnosis_budget_exhausted_total",
		"Diagnosis tests refused because the per-run MaxTests budget was spent.")
)

// ErrBudgetExhausted is the sentinel carried (as text, in Result.Err) by
// the StatusError results the engine synthesizes when a run's MaxTests
// budget is spent. Use IsBudgetExhausted to distinguish these from
// genuine test errors.
var ErrBudgetExhausted = errors.New("diagnosis: test budget exhausted")

// IsBudgetExhausted reports whether res is a synthetic budget-exhausted
// result rather than a genuine test error.
func IsBudgetExhausted(res assertion.Result) bool {
	return res.Status == assertion.StatusError && res.Err == ErrBudgetExhausted.Error()
}

// budgetExhaustedResult synthesizes the StatusError result returned for
// tests refused by the budget.
func budgetExhaustedResult(checkID string, params assertion.Params) assertion.Result {
	return assertion.Result{
		CheckID: checkID, Status: assertion.StatusError,
		Message: "diagnosis test budget exhausted", Params: params,
		Err: ErrBudgetExhausted.Error(),
	}
}

// ErrResultUnknown is the sentinel carried (as text, in Result.Err) by the
// StatusError results synthesized when a diagnosis test's circuit breaker
// is open: the test was not attempted, its answer is unknown, and the
// plan walk continues past it (sink → suspected, interior → descended)
// exactly like any other inconclusive test.
var ErrResultUnknown = errors.New("diagnosis: test result unknown (circuit open)")

// IsUnknown reports whether res is a synthetic breaker-open "result
// unknown" rather than a genuine test error.
func IsUnknown(res assertion.Result) bool {
	return res.Status == assertion.StatusError && res.Err == ErrResultUnknown.Error()
}

// unknownResult synthesizes the StatusError result for a short-circuited
// test.
func unknownResult(checkID string, params assertion.Params) assertion.Result {
	return assertion.Result{
		CheckID: checkID, Status: assertion.StatusError,
		Message: "diagnosis test skipped: circuit breaker open", Params: params,
		Err: ErrResultUnknown.Error(),
	}
}

// Source identifies what triggered a diagnosis.
type Source string

// Diagnosis trigger sources.
const (
	SourceAssertion   Source = "assertion"
	SourceConformance Source = "conformance"
	SourceMonitor     Source = "monitor"
	SourceTimer       Source = "timer"
)

// Request describes one diagnosis trigger.
type Request struct {
	// AssertionID is the failing assertion that selects the diagnosis
	// plans. Empty (e.g. for conformance-triggered diagnoses) means every
	// plan is consulted, relying on step-context pruning to narrow the
	// search.
	AssertionID string `json:"assertionId,omitempty"`
	// Source is the trigger kind.
	Source Source `json:"source"`
	// ProcessInstanceID is the operation task.
	ProcessInstanceID string `json:"processInstanceId,omitempty"`
	// StepID is the process-context step used for pruning. Empty for
	// purely timer-based triggers (which the paper notes produce weaker
	// diagnoses, §VI.A).
	StepID string `json:"stepId,omitempty"`
	// Params are the runtime request variables used to instantiate the
	// plans and parameterize diagnosis tests.
	Params assertion.Params `json:"params"`
	// Detail is free-form context (e.g. the failing assertion message).
	Detail string `json:"detail,omitempty"`
	// Degraded marks a trigger raised while the session's log stream was
	// known lossy (a sequence gap within the degraded hold window). The
	// resulting Diagnosis echoes the flag and discounts its confidence.
	Degraded bool `json:"degraded,omitempty"`
}

// Cause is one diagnosed root cause.
type Cause struct {
	// NodeID is the diagnosis-plan node.
	NodeID string `json:"nodeId"`
	// Description is the instantiated fault description.
	Description string `json:"description"`
	// Confirmed reports whether a diagnosis test confirmed the fault;
	// false means the fault is suspected but untestable or the test was
	// inconclusive.
	Confirmed bool `json:"confirmed"`
	// Path is the plan-qualified DAG path that reached this cause
	// ("planID:entry/…/node"), as cited by the evidence entry. Consumers
	// (remediation's audit trail) repeat it verbatim.
	Path string `json:"path,omitempty"`
	// EvidenceID is the flight-recorder entry recording this cause
	// (0 when the recorder is disabled).
	EvidenceID uint64 `json:"evidenceId,omitempty"`
}

// Conclusion classifies the outcome of a diagnosis.
type Conclusion string

// Diagnosis conclusions.
const (
	// ConclusionIdentified means at least one root cause was confirmed.
	ConclusionIdentified Conclusion = "root cause identified"
	// ConclusionSuspected means only unconfirmed suspects remain.
	ConclusionSuspected Conclusion = "possible root cause suspected"
	// ConclusionNone means every potential fault was excluded.
	ConclusionNone Conclusion = "no root cause identified"
)

// Diagnosis is the result of one engine run.
type Diagnosis struct {
	// Request echoes the trigger.
	Request Request `json:"request"`
	// RootCauses are the confirmed causes, in discovery order.
	RootCauses []Cause `json:"rootCauses"`
	// Suspected are unconfirmed candidate causes (untestable sinks under
	// confirmed errors, or inconclusive tests).
	Suspected []Cause `json:"suspected,omitempty"`
	// PotentialFaults is the number of root-cause candidates considered
	// after pruning.
	PotentialFaults int `json:"potentialFaults"`
	// Excluded is how many candidates were ruled out by passing tests.
	Excluded int `json:"excluded"`
	// TestsRun are the diagnosis test evaluations. Sequential walks
	// record them in visit order; parallel walks in execution order.
	TestsRun []assertion.Result `json:"testsRun"`
	// Conclusion classifies the outcome.
	Conclusion Conclusion `json:"conclusion"`
	// StartedAt and Duration bound the diagnosis in simulated time.
	StartedAt time.Time     `json:"startedAt"`
	Duration  time.Duration `json:"duration"`
	// Degraded echoes Request.Degraded: the triggering detection was made
	// on a known-lossy log stream.
	Degraded bool `json:"degraded,omitempty"`
	// Confidence discounts degraded diagnoses (0.5 vs the usual 1.0): a
	// gap in the stream means the trigger itself may be an artifact.
	Confidence float64 `json:"confidence"`
	// EvidenceID is the flight-recorder entry of this run's diagnosis
	// timeline record (0 when the caller carried no evidence ring in its
	// context): test executions and confirmed causes chain off it.
	EvidenceID uint64 `json:"evidenceId,omitempty"`
}

// HasCause reports whether nodeID (ignoring catalog id suffixes after the
// base name) is among the confirmed root causes.
func (d *Diagnosis) HasCause(baseID string) bool {
	for _, c := range d.RootCauses {
		if c.NodeID == baseID || strings.HasPrefix(c.NodeID, baseID+"-") {
			return true
		}
	}
	return false
}

// Options tune the engine; the zero value gives paper behaviour.
type Options struct {
	// DisablePruning skips process-context pruning (ablation A1).
	DisablePruning bool
	// ContinueAfterConfirm keeps visiting after the first confirmed root
	// cause instead of stopping like the paper's example run.
	ContinueAfterConfirm bool
	// MaxTests bounds the diagnosis tests per run. Zero means 64.
	MaxTests int
	// Workers bounds the goroutines one walk may fan out across
	// independent sibling sub-graphs. Zero or one keeps the sequential
	// paper walk. The committed Diagnosis is identical either way (see
	// walkInto); parallelism only trades speculative tests for latency.
	Workers int
	// SharedCacheTTL caps cross-run reuse of test results in the shared
	// cache. It is clamped to the simulated cloud's eventual-consistency
	// window (a cached answer must never be staler than one the cloud
	// itself might serve); zero means the full window.
	SharedCacheTTL time.Duration
	// DisableSharedCache turns off the cross-run shared cache; the
	// per-run cache always remains.
	DisableSharedCache bool
	// TestTimeout bounds each diagnosis-test attempt in clock time (the
	// deadline scales with a simulated clock). Zero means 30s.
	TestTimeout time.Duration
	// RunTimeout bounds a whole diagnosis walk in clock time. Zero means
	// unbounded.
	RunTimeout time.Duration
	// Resilience tunes the retry/breaker executor guarding every
	// diagnosis test (see package resilience).
	Resilience resilience.Options
}

// Engine runs diagnoses. It is safe for concurrent use: per-run state
// lives on the run, and the shared cross-run cache is concurrency-safe.
type Engine struct {
	cat   *diagplan.Catalog
	eval  *assertion.Evaluator
	bus   *logging.Bus // may be nil
	clk   clock.Clock
	opts  Options
	sem   chan struct{} // bounds extra walk goroutines; nil = sequential
	cache *SharedCache  // nil when disabled
	resil *resilience.Executor

	// testHookBind, when set, observes every plan a run binds (regression
	// hook: each selected plan is bound exactly once per run).
	testHookBind func(planID string)
}

// NewEngine returns an Engine over the given diagnosis plan catalog and
// evaluator. Legacy fault trees reach here compiled into plans (see
// faulttree.Tree.Compile); the engine itself only walks plans.
func NewEngine(cat *diagplan.Catalog, eval *assertion.Evaluator, bus *logging.Bus, opts Options) *Engine {
	if opts.MaxTests <= 0 {
		opts.MaxTests = 64
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.TestTimeout <= 0 {
		opts.TestTimeout = 30 * time.Second
	}
	e := &Engine{cat: cat, eval: eval, bus: bus, clk: eval.Client().Clock(), opts: opts}
	e.resil = resilience.NewExecutor(e.clk, opts.Resilience)
	e.opts.Resilience = e.resil.Options()
	if opts.Workers > 1 {
		// The Diagnose goroutine itself always walks; the semaphore only
		// admits the extra fan-out goroutines. Sessions run Diagnose on
		// manager pool workers, so the walk must never block on pool
		// capacity — walkInto falls back to inline visits when full.
		e.sem = make(chan struct{}, opts.Workers-1)
	}
	if !opts.DisableSharedCache {
		window := eval.Client().Cloud().ConsistencyWindow()
		ttl := window
		if opts.SharedCacheTTL > 0 && opts.SharedCacheTTL < window {
			ttl = opts.SharedCacheTTL
		}
		e.opts.SharedCacheTTL = ttl
		e.cache = NewSharedCache(e.clk, ttl)
	}
	return e
}

// Options returns the engine's effective configuration (defaults applied,
// SharedCacheTTL clamped to the consistency window).
func (e *Engine) Options() Options { return e.opts }

// Cache returns the shared cross-run test cache, or nil when disabled.
func (e *Engine) Cache() *SharedCache { return e.cache }

// Resilience returns the retry/breaker executor guarding diagnosis tests.
func (e *Engine) Resilience() *resilience.Executor { return e.resil }

// Catalog returns the plan catalog the engine diagnoses from.
func (e *Engine) Catalog() *diagplan.Catalog { return e.cat }

// run carries the mutable state of one diagnosis: the binding of the
// request to the compiled plans it walks. The plans themselves (views) are
// immutable and shared with every other run; what a run owns is the
// request parameters rendered into them on demand, the set of nodes it has
// claimed, its test results and its budget. It is shared across the walk
// goroutines of that one diagnosis: the budget is atomic, the per-run
// cache, claim set, and TestsRun are guarded by mu, and everything else is
// read-only after construction.
type run struct {
	req   Request
	diag  *Diagnosis
	latch bool // stop at first confirmation

	// op is the operation's evidence ring (nil-safe no-op when the
	// request carried none) and diagEntry the run's timeline record;
	// both are read-only after construction.
	op        *flight.Op
	diagEntry uint64
	// views are the selected plans, compiled for the request's step
	// context, kept so confirmed causes can cite their entry-to-node path
	// and fan-in parents.
	views []*diagplan.View

	mu sync.Mutex
	// testKeys[i] is the cache key of diag.TestsRun[i]; the two slices
	// together are the per-run result cache.
	testKeys []string
	// tested remembers each tested node's first diagnosis.test evidence
	// entry, by node id.
	tested []testedNode
	// claimed marks plan nodes (by catalog-wide index, so distinct plans
	// never collide) that some branch has already visited. Fan-in makes a
	// node reachable from several parents; the first visitor claims it and
	// later routes skip it, mirroring the DAG's "shared sub-graph,
	// evaluated once" semantics. A node excluded by a passing parent test
	// is NOT claimed — it stays reachable through its other parents.
	claimed bitset

	testsLeft atomic.Int64
}

// testedNode links a node id to the evidence entry of its first test.
type testedNode struct {
	id    string
	entry uint64
}

// bitset is a fixed-size set of small integers.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

func (b bitset) set(i int) { b[i/64] |= 1 << (i % 64) }

// claim marks the node visited, reporting whether this caller won the
// claim (false: another branch already visited it).
func (r *run) claim(n *diagplan.VNode) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.claimed.has(n.Index) {
		return false
	}
	r.claimed.set(n.Index)
	return true
}

// cached answers from the per-run result cache. Caller must hold mu.
func (r *run) cached(key string) (assertion.Result, bool) {
	for i, k := range r.testKeys {
		if k == key {
			return r.diag.TestsRun[i], true
		}
	}
	return assertion.Result{}, false
}

// recordTest records one diagnosis-test evidence entry, chained to the
// run's diagnosis entry, and remembers the node's first entry as the
// parent link for a later cause record. The entry is annotated with
// key=value and, when the test ran under the resilience executor, its
// outcome labels.
func (r *run) recordTest(n *diagplan.VNode, status, key, value string, out *resilience.Outcome) {
	if r.op == nil {
		return
	}
	attrs := map[string]string{key: value, "check": n.CheckID, "node": n.ID, "status": status}
	if out != nil {
		for k, v := range out.Labels() {
			attrs[k] = v
		}
	}
	id := r.op.Record(flight.Entry{
		Kind:    flight.KindTest,
		Parents: parentsOf(r.diagEntry),
		Message: "test " + n.CheckID + " on " + n.ID + ": " + status,
		Attrs:   attrs,
	})
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.testEntry(n.ID) == 0 {
		r.tested = append(r.tested, testedNode{id: n.ID, entry: id})
	}
}

// testEntry returns the evidence entry of the node's first test, 0 when it
// has none. Caller must hold mu.
func (r *run) testEntry(nodeID string) uint64 {
	for _, t := range r.tested {
		if t.id == nodeID {
			return t.entry
		}
	}
	return 0
}

// parentsOf builds a parent-id list from the non-zero entry ids.
func parentsOf(ids ...uint64) []uint64 {
	var out []uint64
	for _, id := range ids {
		if id != 0 {
			out = append(out, id)
		}
	}
	return out
}

// exclusion records a passing diagnosis test that rules out the cause
// nodes reachable under a plan node. Counting and logging are deferred to
// commit so the running n/m tallies come out in deterministic merge order
// regardless of execution interleaving — and so causes shared by several
// excluded parents (fan-in) are counted once.
type exclusion struct {
	node  *diagplan.VNode // its CausesUnder are what the pass rules out
	res   assertion.Result
	fresh bool
}

// branch accumulates the outcome of one sub-graph visit. Sibling branches
// are merged back in probability order (walkInto), so the committed
// Diagnosis is identical to the sequential walk's.
type branch struct {
	causes     []Cause
	suspects   []Cause
	exclusions []exclusion
	// confirmed is set when a root cause was confirmed under this branch
	// and the stop-at-first-confirmation latch is on; it prunes later
	// siblings at merge time.
	confirmed bool
}

func (b *branch) confirm(r *run, n *diagplan.VNode) {
	b.causes = append(b.causes, Cause{NodeID: n.ID, Description: n.Description(r.req.Params), Confirmed: true})
}

func (b *branch) suspect(r *run, n *diagplan.VNode) {
	b.suspects = append(b.suspects, Cause{NodeID: n.ID, Description: n.Description(r.req.Params)})
}

func (b *branch) absorb(c *branch) {
	b.causes = append(b.causes, c.causes...)
	b.suspects = append(b.suspects, c.suspects...)
	b.exclusions = append(b.exclusions, c.exclusions...)
	if c.confirmed {
		b.confirmed = true
	}
}

// Diagnose executes one diagnosis for the request.
func (e *Engine) Diagnose(ctx context.Context, req Request) *Diagnosis {
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
	r := &run{
		req: req, diag: d,
		latch:   !e.opts.ContinueAfterConfirm,
		op:      flight.FromContext(ctx),
		claimed: newBitset(e.cat.NodeCount()),
	}
	r.testsLeft.Store(int64(e.opts.MaxTests))
	if r.op != nil {
		// Tie the walk's spans into the operation's trace and evidence
		// chain: the span carries the operation id (the /traces?op=
		// filter), the timeline entry the span id.
		span.SetAttr("op", r.op.Operation())
	}

	// Bind each selected plan exactly once: pick the view compiled for the
	// request's step context. Nothing is copied; the request's parameters
	// are rendered into a node only when it is tested or reported.
	plans := e.cat.Compiled(req.AssertionID)
	r.views = make([]*diagplan.View, len(plans))
	entries := make([]*diagplan.VNode, 0, len(plans))
	for i, p := range plans {
		if e.testHookBind != nil {
			e.testHookBind(p.Plan.ID)
		}
		v := p.View(req.StepID, !e.opts.DisablePruning)
		d.PotentialFaults += v.PotentialFaults
		r.views[i] = v
		if v.Entry != nil {
			entries = append(entries, v.Entry)
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
			Message: "diagnosis plan walk: " + strconv.Itoa(d.PotentialFaults) + " potential faults",
			Attrs:   attrs,
		})
		r.diagEntry = d.EvidenceID
	}

	e.log(req, "Performing on demand assertion checking: ", req.Detail, ". ",
		strconv.Itoa(d.PotentialFaults), " potential faults in total...")

	top := &branch{}
	e.walkInto(ctx, r, top, entries)
	e.commit(r, top)

	switch {
	case len(d.RootCauses) > 0:
		d.Conclusion = ConclusionIdentified
		if len(d.RootCauses) == 1 {
			e.log(req, "One root cause is identified: ", d.RootCauses[0].Description)
		} else {
			e.log(req, strconv.Itoa(len(d.RootCauses)), " root causes are identified")
		}
	case len(d.Suspected) > 0:
		d.Conclusion = ConclusionSuspected
		e.log(req, "Diagnosis inconclusive: ", strconv.Itoa(len(d.Suspected)), " possible root causes suspected but not confirmed")
	default:
		d.Conclusion = ConclusionNone
		e.log(req, "No root cause identified")
	}
	d.Duration = e.clk.Since(started)
	mWalks.With(string(d.Conclusion)).Inc()
	mWalkDuration.Observe(clock.Wall.Since(wallStart).Seconds())
	mCausesFound.Add(float64(len(d.RootCauses)))
	span.SetAttr("conclusion", string(d.Conclusion))
	span.SetAttr("tests", strconv.Itoa(len(d.TestsRun)))
	span.SetAttr("simDuration", d.Duration.String())
	span.End()
	return d
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
func (e *Engine) walkInto(ctx context.Context, r *run, br *branch, targets []*diagplan.VNode) {
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

	subs := make([]*branch, len(targets))
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
		sub := &branch{}
		subs[i] = sub
		visit := func(i int, t *diagplan.VNode, sub *branch) {
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
			go func(i int, t *diagplan.VNode, sub *branch) {
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

// visit walks one plan node entry-down into br. A node already claimed by
// another branch — a fan-in target whose shared sub-graph was evaluated
// first through a different parent — is skipped.
func (e *Engine) visit(ctx context.Context, r *run, br *branch, n *diagplan.VNode) {
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
			br.exclusions = append(br.exclusions, exclusion{node: n, res: res, fresh: fresh})
			return
		case assertion.StatusError:
			// Inconclusive: this node cannot be checked. A sink becomes a
			// suspect; an interior node is still descended into, since
			// its children's tests may be independently runnable.
			if fresh {
				e.log(r.req, "Could not verify ", n.ID, ": ", res.Err)
			}
			if len(n.Children) == 0 {
				br.suspect(r, n)
				return
			}
		case assertion.StatusFail:
			if fresh {
				e.log(r.req, "Failed verification of ", n.ID, ": ", res.Message)
			}
			if n.Cause {
				br.confirm(r, n)
				if r.latch {
					br.confirmed = true
				}
				return
			}
		}
	} else if n.Cause {
		// Untestable cause under a present error: suspected only.
		br.suspect(r, n)
		return
	}
	e.walkInto(ctx, r, br, n.Children)
}

// commit folds the merged top-level branch into the Diagnosis on the
// Diagnose goroutine: exclusions are tallied and logged in merge order —
// each (plan, cause) pair counted once even when fan-in lets several
// passing parents exclude the same shared cause — and causes and suspects
// are deduplicated: catalog sub-graphs shared across plans carry id
// suffixes, so identity is by node id or by instantiated description.
func (e *Engine) commit(r *run, br *branch) {
	d := r.diag
	var excluded bitset
	for _, ex := range br.exclusions {
		if excluded == nil {
			excluded = newBitset(e.cat.NodeCount())
		}
		for _, c := range ex.node.CausesUnder {
			if !excluded.has(c.Index) {
				excluded.set(c.Index)
				d.Excluded++
			}
		}
		if ex.fresh {
			e.log(r.req, "Verified ", ex.node.ID, ": ", ex.res.Message, " ",
				strconv.Itoa(d.Excluded), "/", strconv.Itoa(d.PotentialFaults), " faults are excluded")
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
func (r *run) recordCause(c Cause, confirmed bool) (entryID uint64, path string) {
	// The citing plan is the first selected one that has a node of that id.
	var n *diagplan.VNode
	for _, v := range r.views {
		if n = v.Node(c.NodeID); n != nil {
			path = n.Path
			break
		}
	}
	if r.op == nil {
		return 0, path
	}
	r.mu.Lock()
	te := r.testEntry(c.NodeID)
	r.mu.Unlock()
	attrs := map[string]string{
		"node":      c.NodeID,
		"confirmed": strconv.FormatBool(confirmed),
	}
	if path != "" {
		attrs["path"] = path
	}
	if n != nil && n.Parents != "" {
		attrs["parents"] = n.Parents
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

// hasCause reports whether list already carries the cause, by node id or
// instantiated description.
func hasCause(list []Cause, c Cause) bool {
	for _, x := range list {
		if x.NodeID == c.NodeID || x.Description == c.Description {
			return true
		}
	}
	return false
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
func (e *Engine) test(ctx context.Context, r *run, n *diagplan.VNode) (assertion.Result, bool) {
	params := n.TestParams(r.req.Params)
	key := cacheKey(n.CheckID, params)
	r.mu.Lock()
	res, ok := r.cached(key)
	r.mu.Unlock()
	if ok {
		mCacheHits.Inc()
		return res, false
	}
	if e.resil.Open(n.CheckID) {
		// Breaker open: skip before touching the budget or the shared
		// cache, so an unknown never displaces or poisons a real answer.
		r.recordTest(n, "error", "breaker", "open", nil)
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
		e.log(r.req, "Verifying ", strings.TrimSuffix(n.Description(r.req.Params), "."))
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
		r.recordTest(n, "error", "budget", "exhausted", nil)
		// Not recorded in TestsRun and not logged: no test actually ran.
		return budgetExhaustedResult(n.CheckID, params), false
	}
	if outcome == OutcomeHit || outcome == OutcomeCoalesced {
		res.Cached = true
	}

	r.mu.Lock()
	if prior, ok := r.cached(key); ok {
		// Another goroutine of this run recorded the answer first.
		r.mu.Unlock()
		return prior, false
	}
	r.testKeys = append(r.testKeys, key)
	r.diag.TestsRun = append(r.diag.TestsRun, res)
	r.mu.Unlock()
	var labels *resilience.Outcome
	if outcome == OutcomeEvaluated {
		labels = &resOut
	}
	r.recordTest(n, res.Status.String(), "cached", strconv.FormatBool(res.Cached), labels)
	return res, outcome == OutcomeEvaluated
}

// cacheKey builds an injective key from the check id and parameters:
// every field is length-prefixed, so no delimiter bytes inside ids, keys
// or values can make two distinct inputs collide. Parameters are written in
// key order.
func cacheKey(checkID string, p assertion.Params) string {
	var buf [16]string // the standard parameter set fits without allocating
	keys := buf[:0]
	size := lenPrefixed(checkID)
	for k, v := range p {
		keys = append(keys, k)
		size += lenPrefixed(k) + lenPrefixed(v)
	}
	slices.Sort(keys)
	var b strings.Builder
	b.Grow(size)
	writePrefixed(&b, checkID)
	for _, k := range keys {
		writePrefixed(&b, k)
		writePrefixed(&b, p[k])
	}
	return b.String()
}

// lenPrefixed is the length of s as writePrefixed writes it.
func lenPrefixed(s string) int {
	digits := 1
	for n := len(s); n >= 10; n /= 10 {
		digits++
	}
	return digits + 1 + len(s)
}

// writePrefixed writes len(s), a colon, and s.
func writePrefixed(b *strings.Builder, s string) {
	var digits [20]byte
	b.Write(strconv.AppendInt(digits[:0], int64(len(s)), 10))
	b.WriteByte(':')
	b.WriteString(s)
}

// logTags is shared by every diagnosis log event; subscribers treat event
// tags as read-only.
var logTags = []string{"diagnosis"}

// log emits a diagnosis log event in the paper's format; the message is the
// concatenation of parts.
func (e *Engine) log(req Request, parts ...string) {
	if e.bus == nil {
		return
	}
	ts := e.clk.Now()
	var stamp [len(logging.TimestampLayout) + 8]byte
	when := ts.AppendFormat(stamp[:0], logging.TimestampLayout)
	size := len("[] [diagnosis] [] [] ") + len(when) + len(req.ProcessInstanceID) + len(req.StepID)
	for _, p := range parts {
		size += len(p)
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteByte('[')
	b.Write(when)
	b.WriteString("] [diagnosis] [")
	b.WriteString(req.ProcessInstanceID)
	b.WriteString("] [")
	b.WriteString(req.StepID)
	b.WriteString("] ")
	for _, p := range parts {
		b.WriteString(p)
	}
	e.bus.Publish(logging.Event{
		Timestamp:  ts,
		Source:     "diagnosis.log",
		SourceHost: "pod-diagnosis",
		Type:       logging.TypeDiagnosis,
		Tags:       logTags,
		Fields: map[string]string{
			"taskid": req.ProcessInstanceID,
			"stepid": req.StepID,
		},
		Message: b.String(),
	})
}
