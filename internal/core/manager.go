package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/assertspec"
	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/conformance"
	"poddiagnosis/internal/consistentapi"
	"poddiagnosis/internal/diagnosis"
	"poddiagnosis/internal/diagplan"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/logstore"
	"poddiagnosis/internal/obs"
	"poddiagnosis/internal/obs/flight"
	"poddiagnosis/internal/pipeline"
	"poddiagnosis/internal/process"
	"poddiagnosis/internal/remediate"
	"poddiagnosis/internal/simaws"
)

// Manager metrics: multi-tenant counterparts of the engine metrics.
var (
	mWorkers = obs.Default.Gauge("pod_engine_workers",
		"Size of the shared assertion/diagnosis worker pool.")
	mSessions = obs.Default.GaugeVec("pod_manager_sessions",
		"Monitoring sessions by lifecycle state.", "state")
	mShardPending = obs.Default.GaugeVec("pod_manager_shard_pending",
		"Queued plus in-flight work items by process-instance shard.", "shard")
	mOpDetections = obs.Default.CounterVec("pod_manager_detections_total",
		"Recorded detections by operation (session id).", "operation")
	// mRouted outcomes: "session" (owned instance), "adopted" (unknown
	// instance claimed by a matching session), "ended" (owner already
	// ended) and "dropped" (no session claims it).
	mRouted = obs.Default.CounterVec("pod_manager_routed_total",
		"Annotated events routed to sessions by outcome.", "outcome")
	// The per-line outcomes, resolved once (CounterVec.With locks and
	// allocates per call).
	mRoutedSession = mRouted.With("session")
	mRoutedAdopted = mRouted.With("adopted")
	mRoutedEnded   = mRouted.With("ended")
	mRoutedDropped = mRouted.With("dropped")
	mDrainStranded = obs.Default.Counter("pod_manager_drain_stranded_total",
		"Backlog items (buffered events plus queued and in-flight work) still outstanding when a Drain timed out.")
)

// reorderMaxPending bounds the events the reorder buffer holds per source
// stream while waiting for their predecessors.
const reorderMaxPending = 256

// numShards is the number of process-instance shards the manager routes
// across. Sharding bounds lock contention between concurrently monitored
// operations and gives the backlog gauges a stable label set.
const numShards = 16

// defaultMaxDetections caps recorded detections per session unless
// WithMaxDetections overrides it.
const defaultMaxDetections = 64

// ManagerConfig assembles a Manager: the substrate shared by every
// monitoring session. Per-operation knobs (expectation, assertion spec,
// detection cap) live on Watch options instead.
type ManagerConfig struct {
	// Cloud is the simulated AWS account.
	Cloud *simaws.Cloud
	// Bus carries log events between components.
	Bus *logging.Bus
	// Model is the operation's process model. Defaults to the rolling
	// upgrade model of Figure 2.
	Model *process.Model
	// Registry is the assertion library. Defaults to the built-in one.
	Registry *assertion.Registry
	// Plans is the diagnosis plan catalog the engine walks. Defaults to
	// the shipped rolling-upgrade catalog (diagplan.DefaultCatalog).
	Plans *diagplan.Catalog
	// API tunes the consistent API layer.
	API consistentapi.Config
	// AssertionSpec is the default assertion specification for sessions
	// that don't override it. Empty means assertspec.DefaultSpecText.
	AssertionSpec string
	// PeriodicInterval, when non-zero, overrides the cadence of every
	// periodic assertion (§III.B.3) for all sessions. Zero keeps each
	// spec binding's own "every" cadence.
	PeriodicInterval time.Duration
	// StepTimeoutSlack scales historical step durations into one-off
	// timer deadlines. Defaults to 1.6.
	StepTimeoutSlack float64
	// DisableConformance turns off conformance checking (ablation A2).
	DisableConformance bool
	// DisableAssertions turns off assertion triggering (ablation A2).
	DisableAssertions bool
	// Workers sizes the shared worker pool for assertion evaluations and
	// diagnoses. Defaults to runtime.GOMAXPROCS(0), minimum 2.
	Workers int
	// Retention is how long (simulated time) an ended session stays
	// queryable before garbage collection. Defaults to 10 minutes.
	Retention time.Duration
	// ReorderWindow is how long the lossy-pipeline reorder buffer holds an
	// out-of-order operation event for its predecessors before declaring
	// them lost. Defaults to 3s.
	ReorderWindow time.Duration
	// DegradedHold is how long (simulated time) sessions stay in degraded
	// mode after a sequence gap is declared. Defaults to 30s.
	DegradedHold time.Duration
	// LogTap, when set, decorates the operation-log subscription channel
	// before the reorder buffer — the chaos harness's injection point
	// (chaos.Profile.LogTap). The decorator must close its output after
	// the input closes.
	LogTap func(<-chan logging.Event) <-chan logging.Event
	// FlightCapacity bounds the causal flight recorder's per-operation
	// evidence ring. Zero means flight.DefaultCapacity.
	FlightCapacity int
	// DisableFlight turns off the causal flight recorder; timelines come
	// back empty and detections carry no evidence ids.
	DisableFlight bool
	// ChaosLabel names the active chaos profile on the pod_slo_* latency
	// histograms, so chaos-run latencies are distinguishable from clean
	// ones. Empty means "none".
	ChaosLabel string
	// Remediation is the closed-loop remediation policy. The zero value
	// (all classes off) disables remediation entirely, so existing
	// deployments are unaffected unless they opt in.
	Remediation remediate.Policy
	// RemediationCatalog overrides the action↔cause catalog. Nil means
	// remediate.DefaultCatalog when Remediation is enabled.
	RemediationCatalog *remediate.Catalog
}

// Manager owns the shared POD-Diagnosis substrate — bus subscriptions, the
// local log processor, central log storage, the consistent API client, the
// assertion evaluator, the diagnosis engine, the timer wheel and one
// worker pool — and routes annotated events to per-operation Sessions
// sharded by process-instance id (§IV deploys conformance, assertion and
// diagnosis as shared services that many operation instances post into).
type Manager struct {
	cfg         ManagerConfig
	defaultSpec *assertspec.Spec
	clk         clock.Clock
	checker     *conformance.Checker // service checker for the REST surface
	evaluator   *assertion.Evaluator
	diag        *diagnosis.Engine
	processor   *pipeline.Processor
	store       *logstore.Store
	central     *logstore.CentralProcessor
	timers      *assertion.TimerSet
	flight      *flight.Recorder  // nil when DisableFlight
	rem         *remediate.Engine // nil unless cfg.Remediation is enabled
	workers     int
	// attrs shares the sessions' evidence attrs maps (verdicts, checks,
	// steps and statuses repeat across operations).
	attrs flight.AttrTable

	opSub      *logging.Subscription
	centralSub *logging.Subscription
	reorder    *pipeline.ReorderBuffer
	pipeWG     sync.WaitGroup // the reorder consume goroutine

	shards [numShards]shard

	// gap is the latest declared stream gap (epoch 0: none yet); sessions
	// compare it against their own gapSeen.
	gap atomic.Pointer[gapMark]

	mu       sync.Mutex
	sessions map[string]*Session
	order    []*Session // insertion order, for adoption scans and listings
	nextID   int
	// adopters counts the sessions in order that may adopt an unknown
	// instance (matchAny or matchASG); written under mu. While it is zero,
	// route drops an unowned instance's line without the adoption scan.
	adopters atomic.Int64

	pending atomic.Int64 // queued + in-flight work items across all sessions

	work   sync.WaitGroup
	gc     sync.WaitGroup
	workCh chan func()
	stop   chan struct{}
	// stopped makes Stop run once.
	stopped sync.Once
}

// shard maps process instance ids to their owning session and tracks the
// shard's share of the work backlog.
type shard struct {
	mu       sync.RWMutex
	owner    map[string]*Session
	pending  atomic.Int64
	depthVec *obs.Gauge
}

// shardOf hashes a process instance id onto a shard index.
func shardOf(instanceID string) int {
	h := fnv.New32a()
	h.Write([]byte(instanceID))
	return int(h.Sum32() % numShards)
}

// NewManager validates the config and builds the shared substrate. Call
// Start to begin processing, Watch to register operations, and Stop to
// shut down.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.Cloud == nil || cfg.Bus == nil {
		return nil, fmt.Errorf("core: Cloud and Bus are required")
	}
	if cfg.Model == nil {
		cfg.Model = process.RollingUpgradeModel()
	}
	if cfg.Registry == nil {
		cfg.Registry = assertion.DefaultRegistry()
	}
	if cfg.Plans == nil {
		cfg.Plans = diagplan.DefaultCatalog()
	}
	if cfg.StepTimeoutSlack <= 0 {
		cfg.StepTimeoutSlack = 1.6
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers < 2 {
		cfg.Workers = 2
	}
	if cfg.Retention <= 0 {
		cfg.Retention = 10 * time.Minute
	}
	if cfg.ReorderWindow <= 0 {
		cfg.ReorderWindow = 3 * time.Second
	}
	if cfg.DegradedHold <= 0 {
		cfg.DegradedHold = 30 * time.Second
	}
	if cfg.ChaosLabel == "" {
		cfg.ChaosLabel = "none"
	}
	if err := cfg.Plans.Validate(cfg.Registry); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	specText := cfg.AssertionSpec
	if specText == "" {
		specText = assertspec.DefaultSpecText
	}
	spec, err := assertspec.Parse(specText, cfg.Registry)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	client := consistentapi.New(cfg.Cloud, cfg.API)
	queueCap := 64 * cfg.Workers
	if queueCap < 256 {
		queueCap = 256
	}
	m := &Manager{
		cfg:         cfg,
		defaultSpec: spec,
		clk:         cfg.Cloud.Clock(),
		checker:     conformance.NewChecker(cfg.Model),
		evaluator:   assertion.NewEvaluator(client, cfg.Registry, cfg.Bus),
		store:       logstore.NewStore(),
		timers:      assertion.NewTimerSet(cfg.Cloud.Clock()),
		workers:     cfg.Workers,
		sessions:    make(map[string]*Session),
		workCh:      make(chan func(), queueCap),
		stop:        make(chan struct{}),
	}
	m.gap.Store(&gapMark{})
	if !cfg.DisableFlight {
		m.flight = flight.NewRecorder(m.clk, cfg.FlightCapacity)
	}
	if cfg.Remediation.Enabled() {
		m.rem = remediate.NewEngine(cfg.RemediationCatalog, cfg.Remediation, m.clk)
	}
	for i := range m.shards {
		m.shards[i].owner = make(map[string]*Session)
		m.shards[i].depthVec = mShardPending.With(strconv.Itoa(i))
	}
	m.diag = diagnosis.NewEngine(cfg.Plans, m.evaluator, cfg.Bus, diagnosis.Options{})
	m.processor = pipeline.NewRouted(cfg.Model, m.store, m.route)
	m.central = logstore.NewCentralProcessor(m.store, nil)
	// The reorder/dedup buffer repairs the lossy shipping fabric in front
	// of the local log processor: duplicates are discarded, out-of-order
	// events wait for their predecessors, and a declared gap is published
	// before processing resumes, so the next line any session handles
	// finds it in degraded mode.
	m.reorder = pipeline.NewReorderBuffer(m.clk, pipeline.ReorderOptions{
		Window:     cfg.ReorderWindow,
		MaxPending: reorderMaxPending,
		Schedule:   func(d time.Duration, f func()) func() { return m.timers.After(d, f) },
	}, m.deliver)
	return m, nil
}

// deliver takes one event the reorder buffer releases into the local log
// processor, declaring the gap before it first.
func (m *Manager) deliver(d pipeline.Delivery) {
	if d.GapBefore {
		m.notifyGap()
	}
	// Make stream repair visible to evidence timelines: a held event
	// waited out of order; gap-before means its predecessors were
	// declared lost. The annotation rides as an event field so it
	// survives the trip through the processor to the sessions; it is
	// set inline on the delivery's own copy, which allocates nothing.
	if d.GapBefore {
		d.Event.SetField("reorder", logging.ReorderGapBefore)
	} else if d.Held {
		d.Event.SetField("reorder", logging.ReorderHeld)
	}
	m.processor.Process(d.Event)
}

// gapMark is one declared sequence gap on the shared shipping fabric:
// its epoch (1, 2, ... in declaration order) and its time.
type gapMark struct {
	epoch uint64
	at    time.Time
}

// notifyGap publishes a declared sequence gap. The gap may have swallowed
// any session's events, so every active session must distrust the absence
// of a log line until the hold expires — but sessions fold the gap in
// lazily (Session.observeGap) the next time they read their degraded
// state, so a gap costs one swap here however many sessions are resident.
// Only the latest gap is kept: it has the largest time, so it alone
// decides every session's hold.
func (m *Manager) notifyGap() {
	next := &gapMark{at: m.clk.Now()}
	for {
		prev := m.gap.Load()
		next.epoch = prev.epoch + 1
		if m.gap.CompareAndSwap(prev, next) {
			return
		}
	}
}

// Start begins consuming log events, routing them to sessions, and runs
// the worker pool plus the session garbage collector.
func (m *Manager) Start() {
	m.opSub = m.cfg.Bus.SubscribeNamed("pipeline", 4096, logging.TypeFilter(logging.TypeOperation))
	m.centralSub = m.cfg.Bus.SubscribeNamed("central", 4096, logging.TypeFilter(
		logging.TypeCloud, logging.TypeAssertion, logging.TypeConformance, logging.TypeDiagnosis))
	// Operation events reach the processor through the reorder buffer
	// (optionally behind the chaos tap), not a direct pipeline loop: the
	// consume goroutine ends when the subscription channel closes.
	ch := (<-chan logging.Event)(m.opSub.C)
	if m.cfg.LogTap != nil {
		ch = m.cfg.LogTap(ch)
	}
	m.pipeWG.Add(1)
	go func() {
		defer m.pipeWG.Done()
		for ev := range ch {
			m.reorder.Offer(ev)
		}
		// Stream over: release anything still held so late conformance
		// verdicts are not silently lost.
		m.reorder.Close()
	}()
	m.central.Start(m.centralSub)
	mWorkers.Set(float64(m.workers))
	// Shared worker pool for assertion evaluations and diagnoses so
	// pipeline callbacks never block on cloud API latency.
	for i := 0; i < m.workers; i++ {
		m.work.Add(1)
		go func() {
			defer m.work.Done()
			for {
				select {
				case <-m.stop:
					return
				case f := <-m.workCh:
					f()
				}
			}
		}()
	}
	// Session GC: sweep ended sessions past the retention window. One
	// ticker for the loop's lifetime — clk.After per iteration left the
	// previous timer live (uncollectable until it fired) every pass.
	m.gc.Add(1)
	go func() {
		defer m.gc.Done()
		interval := m.cfg.Retention / 4
		if interval <= 0 {
			interval = time.Minute
		}
		ticker := clock.NewTicker(m.clk, interval)
		defer ticker.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-ticker.C:
				m.sweep()
			}
		}
	}()
}

// Stop shuts down the manager: timers, pipeline, workers, GC. Pending
// queued work is discarded; in-flight work completes. It is safe on a
// manager that was never started (which has no subscriptions to
// cancel), and calls after the first do nothing.
func (m *Manager) Stop() {
	m.stopped.Do(func() {
		m.timers.StopAll()
		// Close the operation stream first and wait for the reorder
		// consume goroutine to drain it into the processor before
		// stopping anything downstream.
		if m.opSub != nil {
			m.opSub.Cancel()
		}
		m.pipeWG.Wait()
		m.central.Stop()
		if m.centralSub != nil {
			m.centralSub.Cancel()
		}
		close(m.stop)
		m.work.Wait()
		m.gc.Wait()
	})
}

// WatchOption customizes a session at registration time.
type WatchOption func(*watchOptions)

type watchOptions struct {
	id            string
	bind          []string
	matchASG      bool
	matchAny      bool
	specText      string
	maxDetections int
	remCtl        remediate.OperationController
}

// WithSessionID names the session; default ids are op-1, op-2, ...
func WithSessionID(id string) WatchOption { return func(o *watchOptions) { o.id = id } }

// BindInstance pre-binds process instance ids (e.g. the upgrade task id)
// to the session. A session with only explicit bindings auto-ends once
// every bound instance's process completes.
func BindInstance(ids ...string) WatchOption {
	return func(o *watchOptions) { o.bind = append(o.bind, ids...) }
}

// MatchASGInstances adopts unknown process instances whose annotated
// events reference the session's ASG (extracted "asgid" field, or the
// instance id embedding the ASG name).
func MatchASGInstances() WatchOption { return func(o *watchOptions) { o.matchASG = true } }

// MatchAnyInstance adopts every unclaimed process instance: the mode for a
// Manager that watches a single operation.
func MatchAnyInstance() WatchOption { return func(o *watchOptions) { o.matchAny = true } }

// WithAssertionSpec overrides the manager's default assertion spec for
// this session.
func WithAssertionSpec(text string) WatchOption {
	return func(o *watchOptions) { o.specText = text }
}

// WithMaxDetections overrides the per-session detection cap (64).
func WithMaxDetections(n int) WatchOption {
	return func(o *watchOptions) { o.maxDetections = n }
}

// WithRemediationController attaches the controller remediation uses to
// steer the operation itself (retry the failed step, abort). Sessions
// without one still run environment-level actions; operation-level ones
// are recorded as skipped.
func WithRemediationController(rc remediate.OperationController) WatchOption {
	return func(o *watchOptions) { o.remCtl = rc }
}

// Watch registers a new monitoring session for one operation and returns
// its handle. The expectation is validated and normalized (MinInService
// defaults to ClusterSize-1).
func (m *Manager) Watch(x Expectation, opts ...WatchOption) (*Session, error) {
	var o watchOptions
	for _, opt := range opts {
		opt(&o)
	}
	s, err := m.newSession(x, o)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	m.mu.Lock()
	if s.id == "" {
		m.nextID++
		s.id = fmt.Sprintf("op-%d", m.nextID)
	}
	if _, dup := m.sessions[s.id]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("core: session %q already exists", s.id)
	}
	// The evidence ring is created before the session becomes routable,
	// so pipeline handlers never observe a half-wired session.
	s.flight = m.flight.Op(s.id)
	m.register(s)
	m.mu.Unlock()

	for _, id := range o.bind {
		m.bind(id, s, true)
	}
	mSessions.With(string(SessionActive)).Inc()
	return s, nil
}

// newSession builds an active, unregistered session from an expectation
// and the options Watch or a snapshot supplies: it validates and
// normalizes the expectation and resolves the assertion spec. Watch and
// RestoreSession both build their sessions here.
func (m *Manager) newSession(x Expectation, o watchOptions) (*Session, error) {
	if x.ASGName == "" || x.ClusterSize <= 0 {
		return nil, errors.New("Expect.ASGName and Expect.ClusterSize are required")
	}
	if x.MinInService <= 0 {
		x.MinInService = max(x.ClusterSize-1, 1)
	}
	spec := m.defaultSpec
	if o.specText != "" {
		parsed, err := assertspec.Parse(o.specText, m.cfg.Registry)
		if err != nil {
			return nil, err
		}
		spec = parsed
	}
	s := &Session{
		id:            o.id,
		mgr:           m,
		expect:        x,
		spec:          spec,
		specText:      o.specText,
		checker:       conformance.NewChecker(m.cfg.Model),
		maxDetections: defaultInt(o.maxDetections, defaultMaxDetections),
		remCtl:        o.remCtl,
		matchAny:      o.matchAny,
		matchASG:      o.matchASG,
		instances:     make(map[string]*instance),
		seen:          make(map[string]int),
		identified:    make(map[string]bool),
	}
	// Gaps declared before registration are not this session's; a
	// restored session's handoff hold covers the ones it missed.
	s.gapSeen.Store(m.gap.Load().epoch)
	return s, nil
}

// register adds a new session to the registry and wires its remediation
// ledger's revision; m.mu must be held.
func (m *Manager) register(s *Session) {
	if m.rem != nil {
		s.remRev = m.rem.Revision(s.id)
	}
	m.sessions[s.id] = s
	m.order = append(m.order, s)
	if s.adopts() {
		m.adopters.Add(1)
	}
}

// Session returns the session with the given id, or nil.
func (m *Manager) Session(id string) *Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sessions[id]
}

// Sessions lists all sessions in registration order.
func (m *Manager) Sessions() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Session, len(m.order))
	copy(out, m.order)
	return out
}

// Remove ends the session (if still active) and deletes it immediately,
// without waiting for the retention sweep. It reports whether the session
// existed.
func (m *Manager) Remove(id string) bool {
	m.mu.Lock()
	s, ok := m.sessions[id]
	m.mu.Unlock()
	if !ok {
		return false
	}
	s.End()
	m.drop([]*Session{s})
	return true
}

// bind maps an instance id to its owning session.
func (m *Manager) bind(instanceID string, s *Session, explicit bool) {
	sh := &m.shards[shardOf(instanceID)]
	sh.mu.Lock()
	sh.owner[instanceID] = s
	sh.mu.Unlock()
	s.adopt(instanceID, explicit)
}

// route resolves the session for an annotated event; it is the pipeline's
// Router. Unknown instances are offered to active matching sessions and
// otherwise dropped (their lines still reach central storage). It reads
// session state without the session lock; only adopting an instance takes
// it, once per instance.
func (m *Manager) route(instanceID string, ev logging.Event) pipeline.Handler {
	sh := &m.shards[shardOf(instanceID)]
	sh.mu.RLock()
	s := sh.owner[instanceID]
	sh.mu.RUnlock()
	if s != nil {
		if s.ended.Load() {
			mRoutedEnded.Inc()
			return nil
		}
		mRoutedSession.Inc()
		return s
	}
	if m.adopters.Load() == 0 {
		mRoutedDropped.Inc()
		return nil
	}

	// Adoption scan: the first event of an unknown instance may carry the
	// extracted "asgid" field; task ids also embed the ASG name.
	m.mu.Lock()
	for _, cand := range m.order {
		if cand.ended.Load() {
			continue
		}
		if cand.matchAny ||
			(cand.matchASG && (ev.Field("asgid") == cand.expect.ASGName ||
				strings.Contains(instanceID, cand.expect.ASGName))) {
			s = cand
			break
		}
	}
	m.mu.Unlock()
	if s != nil {
		m.bind(instanceID, s, false)
		mRoutedAdopted.Inc()
		return s
	}
	mRoutedDropped.Inc()
	return nil
}

// submit queues background work for an instance's shard, dropping it if
// the manager is stopping or the queue is full (detection bursts beyond
// the cap carry no new information). dropped is called when the work is
// discarded instead of run.
func (m *Manager) submit(instanceID string, f func(), dropped func()) {
	sh := &m.shards[shardOf(instanceID)]
	m.pending.Add(1)
	sh.depthVec.Set(float64(sh.pending.Add(1)))
	done := func() {
		m.pending.Add(-1)
		sh.depthVec.Set(float64(sh.pending.Add(-1)))
	}
	wrapped := func() {
		defer done()
		f()
	}
	select {
	case <-m.stop:
		done()
		dropped()
		mWorkDropped.Inc()
	case m.workCh <- wrapped:
	default:
		done()
		dropped()
		mWorkDropped.Inc()
	}
}

// sessionEnded updates the lifecycle gauges when a session ends.
func (m *Manager) sessionEnded() {
	mSessions.With(string(SessionActive)).Add(-1)
	mSessions.With(string(SessionEnded)).Inc()
}

// sweep garbage-collects sessions that ended before the retention window.
func (m *Manager) sweep() {
	cutoff := m.clk.Now().Add(-m.cfg.Retention)
	var expired []*Session
	m.mu.Lock()
	for _, s := range m.order {
		s.mu.Lock()
		gone := s.ended.Load() && s.endedAt.Before(cutoff)
		s.mu.Unlock()
		if gone {
			expired = append(expired, s)
		}
	}
	m.mu.Unlock()
	if len(expired) > 0 {
		m.drop(expired)
	}
}

// drop removes sessions from the registry and the instance shards.
func (m *Manager) drop(victims []*Session) {
	dead := make(map[*Session]bool, len(victims))
	for _, s := range victims {
		dead[s] = true
	}
	m.mu.Lock()
	kept := m.order[:0]
	for _, s := range m.order {
		if dead[s] {
			delete(m.sessions, s.id)
			if s.adopts() {
				m.adopters.Add(-1)
			}
			mSessions.With(string(SessionEnded)).Add(-1)
			continue
		}
		kept = append(kept, s)
	}
	m.order = kept
	m.mu.Unlock()
	for _, s := range victims {
		// Evidence rings and remediation records share session retention:
		// GC'd together. Pending approvals for dropped operations become
		// not-found, matching the vanished session.
		m.flight.Drop(s.id)
		if m.rem != nil {
			m.rem.Drop(s.id)
		}
	}
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for id, s := range sh.owner {
			if dead[s] {
				delete(sh.owner, id)
			}
		}
		sh.mu.Unlock()
	}
}

// Drain waits until the log subscriptions and the worker pool have been
// quiescent — no buffered events, no queued or in-flight work — for a few
// consecutive polls, or until the (simulated-clock) timeout elapses or ctx
// is cancelled. It reports whether quiescence was reached. Harnesses use
// it to collect straggling evaluations and diagnoses after an operation
// ends. Callers that need to know WHAT was left behind use
// DrainStranded.
func (m *Manager) Drain(ctx context.Context, timeout time.Duration) bool {
	ok, _ := m.DrainStranded(ctx, timeout)
	return ok
}

// DrainStranded is Drain returning the stranded backlog alongside the
// verdict: on timeout the second return is the queue snapshot at the
// moment the drain gave up (its Depth is also added to
// pod_manager_drain_stranded_total), so callers report exactly what
// was abandoned instead of proceeding on a silent false. A successful
// drain returns a zero-backlog snapshot.
func (m *Manager) DrainStranded(ctx context.Context, timeout time.Duration) (bool, ManagerQueue) {
	if m.drainQuiesced(ctx, timeout) {
		return true, ManagerQueue{}
	}
	q := m.QueueDepth()
	mDrainStranded.Add(float64(q.Depth()))
	return false, q
}

// drainQuiesced polls for quiescence until the timeout.
func (m *Manager) drainQuiesced(ctx context.Context, timeout time.Duration) bool {
	deadline := m.clk.Now().Add(timeout)
	poll := timeout / 200
	if poll < 5*time.Millisecond {
		poll = 5 * time.Millisecond
	}
	if poll > time.Second {
		poll = time.Second
	}
	quiet := 0
	for m.clk.Now().Before(deadline) {
		if buffered(m.opSub) == 0 && buffered(m.centralSub) == 0 &&
			m.reorder.Pending() == 0 &&
			len(m.workCh) == 0 && m.pending.Load() == 0 {
			quiet++
			if quiet >= 3 {
				return true
			}
		} else {
			quiet = 0
		}
		if err := m.clk.Sleep(ctx, poll); err != nil {
			return false
		}
	}
	return false
}

// Store returns the central log storage.
func (m *Manager) Store() *logstore.Store { return m.store }

// Evaluator returns the shared assertion evaluator.
func (m *Manager) Evaluator() *assertion.Evaluator { return m.evaluator }

// Checker returns the manager's service conformance checker — the one the
// REST POST /conformance/check surface replays into. Sessions keep their
// own private checkers.
func (m *Manager) Checker() *conformance.Checker { return m.checker }

// Diagnoser returns the shared diagnosis engine.
func (m *Manager) Diagnoser() *diagnosis.Engine { return m.diag }

// ReorderStats snapshots the lossy-pipeline repair counters.
func (m *Manager) ReorderStats() pipeline.ReorderStats { return m.reorder.Stats() }

// Flight returns the causal flight recorder (nil when disabled).
func (m *Manager) Flight() *flight.Recorder { return m.flight }

// Remediator returns the closed-loop remediation engine, or nil when the
// manager's remediation policy is disabled.
func (m *Manager) Remediator() *remediate.Engine { return m.rem }

// Clock returns the manager's (simulated) clock.
func (m *Manager) Clock() clock.Clock { return m.clk }

// ManagerQueue reports the manager's backlog: shared worker queue, the two
// log subscriptions, and the per-session pending work.
type ManagerQueue struct {
	// Work is the number of queued work items on the shared pool.
	Work int `json:"work"`
	// OpEvents is the operation-log subscription backlog.
	OpEvents int `json:"opEvents"`
	// CentralEvents is the central-merge subscription backlog.
	CentralEvents int `json:"centralEvents"`
	// Sessions maps session id to its queued + in-flight work items.
	Sessions map[string]int `json:"sessions,omitempty"`
}

// Depth is the total backlog. Per-session pending counts already include
// the queued items on the shared pool, so Work is informational and not
// double-counted.
func (q ManagerQueue) Depth() int {
	d := q.OpEvents + q.CentralEvents
	for _, n := range q.Sessions {
		d += n
	}
	if q.Work > d {
		d = q.Work
	}
	return d
}

// Backlog is QueueDepth().Depth() without building the per-session map:
// the figure a lease renewal reports, at no allocation per session.
func (m *Manager) Backlog() int {
	d := buffered(m.opSub) + buffered(m.centralSub)
	m.mu.Lock()
	for _, s := range m.order {
		d += s.Pending()
	}
	m.mu.Unlock()
	return max(d, len(m.workCh))
}

// buffered counts the events waiting in a subscription's buffer: 0 for
// one Start has not created yet.
func buffered(sub *logging.Subscription) int {
	if sub == nil {
		return 0
	}
	return len(sub.C)
}

// QueueDepth snapshots the manager's backlog.
func (m *Manager) QueueDepth() ManagerQueue {
	q := ManagerQueue{
		Work:          len(m.workCh),
		OpEvents:      buffered(m.opSub),
		CentralEvents: buffered(m.centralSub),
		Sessions:      make(map[string]int),
	}
	m.mu.Lock()
	order := make([]*Session, len(m.order))
	copy(order, m.order)
	m.mu.Unlock()
	for _, s := range order {
		q.Sessions[s.id] = s.Pending()
	}
	return q
}
