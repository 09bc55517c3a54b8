// Package core implements the POD-Diagnosis engine — the paper's primary
// contribution (Figure 1): it wires the local log processor to conformance
// checking, post-step and timer-driven assertion evaluation, and fault-tree
// error diagnosis, all keyed by process context (process instance id, step
// id, step outcomes) carried on annotated log events.
//
// The package is split into two layers. A Manager owns the shared
// substrate — bus subscriptions, central log storage, the consistent API
// client, the assertion evaluator, the diagnosis engine and one worker
// pool — and routes annotated events to per-operation Sessions sharded by
// process-instance id. Engine remains as a thin single-session
// compatibility wrapper (one Manager, one Session adopting every
// instance).
//
// The engine is non-intrusive: it only consumes the operation node's log
// events from the bus and queries the cloud through the consistent API
// layer. It never touches the upgrade tool.
package core

import (
	"context"
	"time"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/conformance"
	"poddiagnosis/internal/consistentapi"
	"poddiagnosis/internal/diagnosis"
	"poddiagnosis/internal/diagplan"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/logstore"
	"poddiagnosis/internal/obs"
	"poddiagnosis/internal/process"
	"poddiagnosis/internal/remediate"
	"poddiagnosis/internal/simaws"
)

// Engine metrics: what the paper's §V counts (detections and their
// triggers), plus the operational signals needed to size the worker pool.
var (
	mDetections = obs.Default.CounterVec("pod_engine_detections_total",
		"Recorded detections by trigger source.", "source")
	mTimerFires = obs.Default.CounterVec("pod_engine_timer_fires_total",
		"Assertion timer fires by kind (step = one-off deadline, periodic).", "kind")
	mWorkDropped = obs.Default.Counter("pod_engine_work_dropped_total",
		"Background work items discarded because the queue was full or the manager was stopping.")
)

// sloBuckets cover simulated-time latencies from sub-second detections
// to multi-minute timer-driven diagnoses (DefBuckets stop at 10s).
var sloBuckets = []float64{.05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// Time-to-diagnosis SLO instruments (simulated seconds). Degraded-mode
// and chaos-profile runs are labeled so discounted-confidence paths stay
// distinguishable from clean ones.
var (
	mSLODetection = obs.Default.HistogramVec("pod_slo_detection_latency_seconds",
		"Latency from the originating event (log line or timer fire) to the admitted detection.",
		sloBuckets, "degraded", "chaos")
	mSLODiagnosis = obs.Default.HistogramVec("pod_slo_diagnosis_latency_seconds",
		"Latency from an admitted detection to its diagnosis confirming a root cause.",
		sloBuckets, "degraded", "chaos")
)

// Expectation declares the desired end state of the operation being
// watched; it parameterizes assertions and fault-tree instantiation.
type Expectation struct {
	// ASGName, ELBName identify the cluster under upgrade.
	ASGName string `json:"asgName"`
	ELBName string `json:"elbName,omitempty"`
	// NewImageID and NewVersion describe the target release.
	NewImageID string `json:"newImageId,omitempty"`
	NewVersion string `json:"newVersion,omitempty"`
	// NewLCName is the launch configuration the upgrade creates.
	NewLCName string `json:"newLcName,omitempty"`
	// OldLCName is the pre-upgrade launch configuration — the rollback
	// target when remediation finds the intended one unlaunchable.
	OldLCName string `json:"oldLcName,omitempty"`
	// KeyName, SGName and InstanceType are the expected (unchanged)
	// launch settings.
	KeyName      string `json:"keyName,omitempty"`
	SGName       string `json:"sgName,omitempty"`
	InstanceType string `json:"instanceType,omitempty"`
	// ClusterSize is N, the desired instance count.
	ClusterSize int `json:"clusterSize"`
	// MinInService is N' — the minimum capacity that must stay in
	// service during the upgrade. Defaults to ClusterSize-1.
	MinInService int `json:"minInService,omitempty"`
}

// params renders the expectation as assertion parameters.
func (x Expectation) params() assertion.Params {
	return assertion.Params{
		assertion.ParamASG:          x.ASGName,
		assertion.ParamELB:          x.ELBName,
		assertion.ParamAMI:          x.NewImageID,
		assertion.ParamVersion:      x.NewVersion,
		assertion.ParamLC:           x.NewLCName,
		assertion.ParamKeyPair:      x.KeyName,
		assertion.ParamSG:           x.SGName,
		assertion.ParamInstanceType: x.InstanceType,
	}
}

// Config assembles an Engine: a Manager watching a single operation.
type Config struct {
	// Cloud is the simulated AWS account.
	Cloud *simaws.Cloud
	// Bus carries log events between components.
	Bus *logging.Bus
	// Model is the operation's process model. Defaults to the rolling
	// upgrade model of Figure 2.
	Model *process.Model
	// Registry is the assertion library. Defaults to the built-in one.
	Registry *assertion.Registry
	// Plans is the diagnosis plan catalog. Defaults to the shipped
	// rolling-upgrade catalog (diagplan.DefaultCatalog).
	Plans *diagplan.Catalog
	// API tunes the consistent API layer.
	API consistentapi.Config
	// Expect is the desired end state of the watched operation.
	Expect Expectation
	// AssertionSpec is the assertion specification (see the assertspec
	// package). Empty means assertspec.DefaultSpecText, which reproduces
	// the paper's experiment setup.
	AssertionSpec string
	// PeriodicInterval is the cadence of the periodic capacity assertion
	// started/stopped with the process (§III.B.3). Defaults to 60s.
	PeriodicInterval time.Duration
	// StepTimeoutSlack scales historical step durations into one-off
	// timer deadlines. Defaults to 1.6 (the p95-ish margin the paper
	// derives from timing profiles).
	StepTimeoutSlack float64
	// DisableConformance turns off conformance checking (ablation A2).
	DisableConformance bool
	// DisableAssertions turns off assertion triggering (ablation A2).
	DisableAssertions bool
	// Diagnosis tunes the diagnosis engine.
	Diagnosis diagnosis.Options
	// MaxDetections caps recorded detections per session. Zero means 64.
	MaxDetections int
	// Workers sizes the shared worker pool. Defaults to
	// runtime.GOMAXPROCS(0), minimum 2.
	Workers int
	// Remediation is the closed-loop remediation policy (zero = off).
	Remediation remediate.Policy
	// RemediationCatalog overrides the action↔cause catalog.
	RemediationCatalog *remediate.Catalog
	// RemediationController steers the operation during remediation
	// (retry step, abort); optional.
	RemediationController remediate.OperationController
}

// Detection is one detected anomaly with its diagnosis.
type Detection struct {
	// At is the detection time.
	At time.Time `json:"at"`
	// Source is what detected the anomaly.
	Source diagnosis.Source `json:"source"`
	// TriggerID is the failing assertion's check id, or the conformance
	// verdict for conformance detections.
	TriggerID string `json:"triggerId"`
	// StepID is the process context.
	StepID string `json:"stepId,omitempty"`
	// InstanceID is the process instance.
	InstanceID string `json:"instanceId"`
	// Operation is the id of the session that recorded the detection.
	Operation string `json:"operation,omitempty"`
	// Message describes the anomaly.
	Message string `json:"message"`
	// Diagnosis is the root-cause analysis result.
	Diagnosis *diagnosis.Diagnosis `json:"diagnosis,omitempty"`
	// Degraded marks a detection made while the session's log stream was
	// known lossy (a sequence gap within the degraded hold window):
	// the anomaly may be an artifact of the loss, not the operation.
	Degraded bool `json:"degraded,omitempty"`
	// Confidence is 1.0 for detections on an intact stream, discounted to
	// 0.5 while degraded.
	Confidence float64 `json:"confidence"`
	// EvidenceID is the flight-recorder timeline entry of this detection
	// (0 when the recorder is disabled): the anchor tying the detection
	// into the operation's causal evidence chain.
	EvidenceID uint64 `json:"evidenceId,omitempty"`
}

// Engine is the single-operation compatibility wrapper: one Manager with
// one Session that adopts every process instance on the bus.
type Engine struct {
	cfg  Config
	mgr  *Manager
	sess *Session
}

// NewEngine validates the config and builds a one-session deployment.
// Call Start to begin processing and Stop to shut down.
func NewEngine(cfg Config) (*Engine, error) {
	mgr, err := NewManager(ManagerConfig{
		Cloud:              cfg.Cloud,
		Bus:                cfg.Bus,
		Model:              cfg.Model,
		Registry:           cfg.Registry,
		Plans:              cfg.Plans,
		API:                cfg.API,
		AssertionSpec:      cfg.AssertionSpec,
		PeriodicInterval:   cfg.PeriodicInterval,
		StepTimeoutSlack:   cfg.StepTimeoutSlack,
		DisableConformance: cfg.DisableConformance,
		DisableAssertions:  cfg.DisableAssertions,
		Diagnosis:          cfg.Diagnosis,
		MaxDetections:      cfg.MaxDetections,
		Workers:            cfg.Workers,
		Remediation:        cfg.Remediation,
		RemediationCatalog: cfg.RemediationCatalog,
	})
	if err != nil {
		return nil, err
	}
	watchOpts := []WatchOption{MatchAnyInstance()}
	if cfg.RemediationController != nil {
		watchOpts = append(watchOpts, WithRemediationController(cfg.RemediationController))
	}
	sess, err := mgr.Watch(cfg.Expect, watchOpts...)
	if err != nil {
		return nil, err
	}
	// Reflect the manager's applied defaults back into the wrapper config.
	cfg.Expect = sess.Expect()
	cfg.PeriodicInterval = mgr.cfg.PeriodicInterval
	cfg.StepTimeoutSlack = mgr.cfg.StepTimeoutSlack
	cfg.MaxDetections = mgr.cfg.MaxDetections
	cfg.Workers = mgr.cfg.Workers
	return &Engine{cfg: cfg, mgr: mgr, sess: sess}, nil
}

// Start begins consuming log events and evaluating triggers.
func (e *Engine) Start() { e.mgr.Start() }

// Stop shuts down the underlying manager: timers, pipeline, workers.
// Pending queued work is discarded; in-flight work completes.
func (e *Engine) Stop() { e.mgr.Stop() }

// Drain waits until the log subscriptions and the work queue have been
// quiescent for a few consecutive polls of the injected clock, or until
// the (simulated-time) timeout elapses or ctx is cancelled. It reports
// whether quiescence was reached.
func (e *Engine) Drain(ctx context.Context, timeout time.Duration) bool {
	return e.mgr.Drain(ctx, timeout)
}

// Manager returns the underlying manager.
func (e *Engine) Manager() *Manager { return e.mgr }

// Session returns the engine's single monitoring session.
func (e *Engine) Session() *Session { return e.sess }

// Store returns the central log storage.
func (e *Engine) Store() *logstore.Store { return e.mgr.Store() }

// Evaluator returns the assertion evaluator (exposed for on-demand use).
func (e *Engine) Evaluator() *assertion.Evaluator { return e.mgr.Evaluator() }

// Checker returns the session's conformance checker.
func (e *Engine) Checker() *conformance.Checker { return e.sess.Checker() }

// Diagnoser returns the diagnosis engine (exposed for on-demand use,
// e.g. the POST /diagnosis REST endpoint).
func (e *Engine) Diagnoser() *diagnosis.Engine { return e.mgr.Diagnoser() }

// Detections returns a copy of all recorded detections.
func (e *Engine) Detections() []Detection { return e.sess.Detections() }

// Queue reports the engine's current backlog: queued background work and
// pending events on the two log subscriptions. Zero across the board
// means the engine is drained; serving surfaces (GET /readyz) report it.
type Queue struct {
	// Work is the number of queued assertion evaluations and diagnoses.
	Work int `json:"work"`
	// OpEvents is the operation-log subscription backlog.
	OpEvents int `json:"opEvents"`
	// CentralEvents is the central-merge subscription backlog.
	CentralEvents int `json:"centralEvents"`
}

// Depth is the total backlog.
func (q Queue) Depth() int { return q.Work + q.OpEvents + q.CentralEvents }

// QueueDepth snapshots the engine's backlog. Safe to call only between
// Start and Stop.
func (e *Engine) QueueDepth() Queue {
	mq := e.mgr.QueueDepth()
	work := mq.Work
	if p := e.sess.Pending(); p > work {
		work = p
	}
	return Queue{
		Work:          work,
		OpEvents:      mq.OpEvents,
		CentralEvents: mq.CentralEvents,
	}
}
