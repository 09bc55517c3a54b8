// Package poddiagnosis is the public API of the POD-Diagnosis library, a
// reproduction of "POD-Diagnosis: Error Diagnosis of Sporadic Operations
// on Cloud Applications" (DSN 2014).
//
// POD-Diagnosis treats a sporadic operation — the canonical example is a
// rolling upgrade — as an explicit process. The process context (process
// instance id, step id, step outcomes) carried on annotated log events
// drives three mechanisms:
//
//   - conformance checking: token replay of log lines against the process
//     model detects unknown, erroneous and out-of-order events;
//   - assertion evaluation: pre-defined checks of cloud-resource state run
//     after each step, on one-off and periodic timers, and on demand;
//   - error diagnosis: diagnosis plans — the paper's fault trees, one per
//     assertion, shipped as JSON documents — are instantiated with the
//     runtime request, pruned by process context, and visited top-down,
//     running diagnosis tests to confirm or exclude root causes.
//
// The library ships a complete simulated AWS substrate (EC2, ASG, ELB,
// launch configurations, eventual consistency, throttling), an
// Asgard-style rolling upgrade orchestrator, a process mining pipeline to
// discover models from logs, fault injectors, and the full evaluation
// harness reproducing the paper's figures and tables.
//
// A minimal deployment:
//
//	clk := poddiagnosis.NewScaledClock(100)
//	bus := poddiagnosis.NewLogBus()
//	cloud := poddiagnosis.NewSimulatedCloud(clk, poddiagnosis.PaperProfile(), bus, 1)
//	cloud.Start()
//	defer cloud.Stop()
//	// ... deploy a cluster, then:
//	mgr, err := poddiagnosis.NewManager(poddiagnosis.ManagerConfig{Cloud: cloud, Bus: bus})
//	sess, err := mgr.Watch(poddiagnosis.Expectation{ASGName: "pm--asg", ClusterSize: 4, ...},
//	    poddiagnosis.MatchAnyInstance())
//	mgr.Start()
//	defer mgr.Stop()
//	// run the upgrade; then inspect sess.Detections().
package poddiagnosis

import (
	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/assertspec"
	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/core"
	"poddiagnosis/internal/diagnosis"
	"poddiagnosis/internal/diagplan"
	"poddiagnosis/internal/faultinject"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/mining"
	"poddiagnosis/internal/offline"
	"poddiagnosis/internal/process"
	"poddiagnosis/internal/simaws"
	"poddiagnosis/internal/upgrade"
)

// Version identifies the library release.
const Version = "1.0.0"

// Core engine types.
type (
	// Expectation declares the operation's desired end state.
	Expectation = core.Expectation
	// Detection is one detected anomaly with its diagnosis.
	Detection = core.Detection
)

// Multi-tenant monitoring types: one Manager watches many concurrent
// operations, each through its own Session.
type (
	// Manager owns the shared monitoring substrate — bus subscriptions,
	// log storage, the consistent API client, assertion evaluator,
	// diagnosis engine and worker pool — and routes annotated events to
	// per-operation Sessions sharded by process-instance id.
	Manager = core.Manager
	// ManagerConfig assembles a Manager.
	ManagerConfig = core.ManagerConfig
	// Session is one operation's monitoring context inside a Manager.
	Session = core.Session
	// SessionState is a session's lifecycle phase (active, ended).
	SessionState = core.SessionState
	// SessionSummary is the JSON-friendly view of one session.
	SessionSummary = core.SessionSummary
	// WatchOption customizes a session at Manager.Watch time.
	WatchOption = core.WatchOption
)

// Session lifecycle states.
const (
	SessionActive = core.SessionActive
	SessionEnded  = core.SessionEnded
)

// NewManager validates the config and builds the shared monitoring
// substrate. Call Start, register operations with Watch, Stop when done.
func NewManager(cfg ManagerConfig) (*Manager, error) { return core.NewManager(cfg) }

// Watch options, re-exported.
var (
	// WithSessionID names the session (default ids are op-1, op-2, ...).
	WithSessionID = core.WithSessionID
	// BindInstance pre-binds process instance ids to the session.
	BindInstance = core.BindInstance
	// MatchASGInstances adopts unknown instances referencing the
	// session's ASG.
	MatchASGInstances = core.MatchASGInstances
	// MatchAnyInstance adopts every unclaimed instance: the mode for a
	// Manager that watches a single operation.
	MatchAnyInstance = core.MatchAnyInstance
	// WithAssertionSpec overrides the assertion specification per session.
	WithAssertionSpec = core.WithAssertionSpec
	// WithMaxDetections overrides the per-session detection cap.
	WithMaxDetections = core.WithMaxDetections
)

// Log and cloud substrate types.
type (
	// LogBus is the in-process log event fabric.
	LogBus = logging.Bus
	// LogEvent is one structured log record.
	LogEvent = logging.Event
	// Cloud is the simulated AWS account.
	Cloud = simaws.Cloud
	// CloudProfile tunes the simulated cloud's timing and reliability.
	CloudProfile = simaws.Profile
	// Clock abstracts time (real or scaled).
	Clock = clock.Clock
)

// Process, assertion and diagnosis types.
type (
	// ProcessModel is a BPMN-style operation model.
	ProcessModel = process.Model
	// AssertionRegistry holds the check library.
	AssertionRegistry = assertion.Registry
	// AssertionParams parameterize evaluations.
	AssertionParams = assertion.Params
	// Diagnosis is the result of one root-cause analysis.
	Diagnosis = diagnosis.Diagnosis
	// Cluster records a deployed application's cloud resources.
	Cluster = upgrade.Cluster
	// UpgradeSpec describes one rolling upgrade task.
	UpgradeSpec = upgrade.Spec
	// Upgrader performs rolling upgrades (the watched operation).
	Upgrader = upgrade.Upgrader
)

// NewLogBus returns an empty log bus.
func NewLogBus() *LogBus { return logging.NewBus() }

// NewScaledClock returns a clock running scale times faster than real
// time, starting from the current time.
func NewScaledClock(scale float64) Clock {
	return clock.NewScaled(scale, clock.Wall.Now())
}

// NewRealClock returns the wall clock.
func NewRealClock() Clock { return clock.NewReal() }

// PaperProfile returns the cloud profile calibrated against the paper's
// environment (API latency, boot times, eventual consistency, account
// limits).
func PaperProfile() CloudProfile { return simaws.PaperProfile() }

// FastProfile returns a millisecond-scale profile for tests.
func FastProfile() CloudProfile { return simaws.FastProfile() }

// NewSimulatedCloud builds a simulated AWS account. The bus may be nil;
// seed fixes the randomness. Call Start before use and Stop when done.
func NewSimulatedCloud(clk Clock, profile CloudProfile, bus *LogBus, seed int64) *Cloud {
	opts := []simaws.Option{simaws.WithSeed(seed)}
	if bus != nil {
		opts = append(opts, simaws.WithBus(bus))
	}
	return simaws.New(clk, profile, opts...)
}

// RollingUpgradeModel returns the canonical rolling-upgrade process model
// (paper Figure 2).
func RollingUpgradeModel() *ProcessModel { return process.RollingUpgradeModel() }

// ScaleOutModel returns the process model of the scale-out operation —
// the second operation shipped with the library, demonstrating that a new
// model plus an assertion specification is all another sporadic operation
// needs (§III.C).
func ScaleOutModel() *ProcessModel { return process.ScaleOutModel() }

// ScaleOutAssertionSpecText is the assertion specification for the
// scale-out operation.
const ScaleOutAssertionSpecText = process.ScaleOutSpecText

// ScaleOutSpec describes one scale-out task for Upgrader.RunScaleOut.
type ScaleOutSpec = upgrade.ScaleOutSpec

// BlueGreenModel returns the process model of the blue/green deploy
// operation: a green fleet is launched on the new version beside the blue
// one, traffic is cut over at the load balancer, and the blue group is
// retired.
func BlueGreenModel() *ProcessModel { return process.BlueGreenModel() }

// BlueGreenAssertionSpecText is the assertion specification for the
// blue/green deploy operation.
const BlueGreenAssertionSpecText = process.BlueGreenSpecText

// BlueGreenSpec describes one blue/green deploy task for
// Upgrader.RunBlueGreen.
type BlueGreenSpec = upgrade.BlueGreenSpec

// SpotRebalanceModel returns the process model of the spot-rebalance
// operation: a capacity watch that waits out interruption storms while
// the group replaces reclaimed instances.
func SpotRebalanceModel() *ProcessModel { return process.SpotRebalanceModel() }

// SpotRebalanceAssertionSpecText is the assertion specification for the
// spot-rebalance operation.
const SpotRebalanceAssertionSpecText = process.SpotRebalanceSpecText

// SpotRebalanceSpec describes one spot-rebalance watch for
// Upgrader.RunSpotRebalance.
type SpotRebalanceSpec = upgrade.SpotRebalanceSpec

// Declarative diagnosis plans (the DAG generalization of fault trees).
type (
	// DiagnosisPlan is one declarative diagnosis DAG, selected by
	// assertion id and pruned by process-step context before walking.
	DiagnosisPlan = diagplan.Plan
	// DiagnosisPlanCatalog indexes plans by the assertion that triggers
	// them.
	DiagnosisPlanCatalog = diagplan.Catalog
)

// DefaultDiagnosisPlans returns the rolling-upgrade plan catalog: the
// root-cause knowledge base of the paper's Figure 5, one plan per
// assertion.
func DefaultDiagnosisPlans() *DiagnosisPlanCatalog { return diagplan.DefaultCatalog() }

// FullDiagnosisPlans returns the complete shipped catalog: the
// rolling-upgrade plans plus the scenario plans (blue/green deploy,
// spot-interruption storms).
func FullDiagnosisPlans() *DiagnosisPlanCatalog { return diagplan.FullCatalog() }

// DefaultAssertions returns the pre-defined assertion library.
func DefaultAssertions() *AssertionRegistry { return assertion.DefaultRegistry() }

// Deploy provisions a complete application cluster (AMI, key pair,
// security group, launch configuration, ELB, ASG) on the simulated cloud.
var Deploy = upgrade.Deploy

// NewUpgrader returns the Asgard-style rolling upgrade orchestrator.
var NewUpgrader = upgrade.NewUpgrader

// Fault injection (the paper's §V.C catalog).
type (
	// FaultKind enumerates the 8 injected fault types.
	FaultKind = faultinject.Kind
	// Interference enumerates the simultaneous operations.
	Interference = faultinject.Interference
	// Injector injects faults and interferences into a running upgrade.
	Injector = faultinject.Injector
)

// Fault kinds, re-exported in paper order.
const (
	FaultAMIChanged          = faultinject.KindAMIChanged
	FaultKeyPairChanged      = faultinject.KindKeyPairChanged
	FaultSGChanged           = faultinject.KindSGChanged
	FaultInstanceTypeChanged = faultinject.KindInstanceTypeChanged
	FaultAMIUnavailable      = faultinject.KindAMIUnavailable
	FaultKeyPairUnavailable  = faultinject.KindKeyPairUnavailable
	FaultSGUnavailable       = faultinject.KindSGUnavailable
	FaultELBUnavailable      = faultinject.KindELBUnavailable
)

// Interference kinds, re-exported.
const (
	InterferenceScaleIn           = faultinject.InterferenceScaleIn
	InterferenceRandomTermination = faultinject.InterferenceRandomTermination
	InterferenceAccountPressure   = faultinject.InterferenceAccountPressure
)

// NewInjector returns a fault injector for the cluster.
var NewInjector = faultinject.NewInjector

// Process mining (§III.A).
type (
	// Miner discovers process models from operation logs.
	Miner = mining.Miner
	// MinedLine is one mining input line.
	MinedLine = mining.Line
	// MiningResult is the discovery outcome.
	MiningResult = mining.Result
)

// NewMiner returns a Miner with default settings.
var NewMiner = mining.NewMiner

// Assertion specification language (the paper's §VIII future work).
type (
	// AssertionSpec is a parsed assertion specification document.
	AssertionSpec = assertspec.Spec
	// AssertionBinding attaches one check to one process trigger.
	AssertionBinding = assertspec.Binding
)

// ParseAssertionSpec parses an assertion specification document against
// the default check registry.
func ParseAssertionSpec(src string) (*AssertionSpec, error) {
	return assertspec.Parse(src, assertion.DefaultRegistry())
}

// DefaultAssertionSpecText is the rolling-upgrade specification that
// reproduces the paper's experiment setup.
const DefaultAssertionSpecText = assertspec.DefaultSpecText

// ParseOperationLine splits an Asgard-style log line into timestamp, task
// and message.
var ParseOperationLine = logging.ParseOperationLine

// Offline post-mortem analysis over the central log storage.
type (
	// PostMortem is a whole-store offline analysis report.
	PostMortem = offline.Report
	// InstancePostMortem is the per-process-instance portion.
	InstancePostMortem = offline.InstanceReport
)

// AnalyzeStore replays the central log storage offline: conformance
// verdicts per instance, stored assertion failures, and the diagnosis
// conclusions reached online.
var AnalyzeStore = offline.Analyze
