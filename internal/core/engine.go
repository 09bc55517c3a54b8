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
// process-instance id. A Session is one watched operation: its
// expectation, assertion specification, conformance context and
// detections. Watching a single operation is NewManager followed by one
// Watch with MatchAnyInstance:
//
//	mgr, err := NewManager(ManagerConfig{Cloud: cloud, Bus: bus})
//	sess, err := mgr.Watch(expect, MatchAnyInstance())
//	mgr.Start()
//	// ... run the operation, mgr.Drain, mgr.Stop; read sess.Detections().
//
// The engine is non-intrusive: it only consumes the operation node's log
// events from the bus and queries the cloud through the consistent API
// layer. It never touches the upgrade tool.
package core

import (
	"time"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/diagnosis"
	"poddiagnosis/internal/obs"
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
