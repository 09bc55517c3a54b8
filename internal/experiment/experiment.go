// Package experiment implements the paper's evaluation (§V): fault
// injection campaigns over rolling upgrades on the simulated cloud, with
// the POD engine watching. One runner executes every run: deploy, watch,
// inject, drive the orchestrator, verify, tear down. What differs between
// evaluation lanes is Scenario data: RollingUpgrade (the paper's runs),
// Heal (closed-loop remediation), BlueGreen and SpotStorm (the scenario
// library's operations) and MemberKill (failover in a federation). It
// reproduces:
//
//   - Table I / headline metrics: precision and recall of detection and
//     the accuracy rate of diagnosis, with the paper's formulas;
//   - Figure 6: the distribution of error diagnosis time;
//   - Figure 7: precision/recall/accuracy grouped by fault type;
//   - the conformance-coverage observation of §V.D (resource faults
//     sometimes produce erroneous traces before assertion checking;
//     configuration faults never do).
package experiment

import (
	"strings"
	"time"

	"poddiagnosis/internal/chaos"
	"poddiagnosis/internal/core"
	"poddiagnosis/internal/diagnosis"
	"poddiagnosis/internal/faultinject"
	"poddiagnosis/internal/obs/flight"
	"poddiagnosis/internal/remediate"
	"poddiagnosis/internal/simaws"
)

// Config tunes a campaign. The zero value is filled with paper defaults.
type Config struct {
	// RunsPerFault is the number of runs per fault type (paper: 20).
	RunsPerFault int
	// Scale is the simulated-clock speed-up factor.
	Scale float64
	// Seed makes the campaign reproducible.
	Seed int64
	// Parallelism bounds concurrently executing runs.
	Parallelism int
	// InterferenceProb is the per-run probability of each simultaneous
	// operation being injected alongside the fault.
	InterferenceProb float64
	// StepTimeoutSlack scales step means into timer deadlines (the paper
	// sets timeouts at the 95th percentile).
	StepTimeoutSlack float64
	// PeriodicInterval is the periodic assertion cadence.
	PeriodicInterval time.Duration
	// DisableConformance / DisableAssertions run the detection ablations.
	DisableConformance bool
	DisableAssertions  bool
	// Profile overrides the cloud profile (defaults to a calibrated
	// variant of the paper profile).
	Profile *simaws.Profile
	// Chaos, when set and enabled, turns the lane into a chaos lane: the
	// profile's log tap is wired in front of the manager's reorder buffer
	// and its fault injector onto the cloud's API plane.
	Chaos *chaos.Profile
}

func (c Config) withDefaults() Config {
	if c.RunsPerFault <= 0 {
		c.RunsPerFault = 20
	}
	if c.Scale <= 0 {
		// Keep the speed-up moderate: at high scale, goroutine wake-up
		// latency (~1ms wall) is multiplied into seconds of simulated
		// time and distorts the Figure 6 measurements.
		c.Scale = 120
	}
	if c.Parallelism <= 0 {
		// Runs are sleep-dominated, but keep the default conservative:
		// CPU saturation distorts the scaled clock.
		c.Parallelism = 2
	}
	if c.InterferenceProb < 0 {
		c.InterferenceProb = 0
	} else if c.InterferenceProb == 0 {
		c.InterferenceProb = 0.25
	}
	if c.StepTimeoutSlack <= 0 {
		// Timer deadline at roughly the 95th percentile of the
		// wait-for-new-instance step (boot ~N(90s,20s) + overhead):
		// tight enough to reproduce the paper's timeout-induced false
		// positives at a single-digit rate.
		c.StepTimeoutSlack = 1.45
	}
	if c.PeriodicInterval <= 0 {
		c.PeriodicInterval = time.Minute
	}
	return c
}

// calibratedProfile is the per-run cloud profile: paper-like API latency
// and boot times, mild eventual consistency, an account limit the
// co-tenant pressure interference can exhaust.
func calibratedProfile() simaws.Profile {
	p := simaws.PaperProfile()
	p.RatePerSecond = 0 // throttling is exercised by dedicated tests
	return p
}

// RunSpec describes one evaluation run.
type RunSpec struct {
	// ID is the run index within the campaign.
	ID int `json:"id"`
	// Fault is the injected fault (zero for a clean run).
	Fault faultinject.Kind `json:"fault"`
	// ClusterSize is the deployed instance count (4 or 20).
	ClusterSize int `json:"clusterSize"`
	// Interferences are the simultaneous operations injected.
	Interferences []faultinject.Interference `json:"interferences,omitempty"`
	// Seed drives all per-run randomness.
	Seed int64 `json:"seed"`
	// InjectDelay pins the fault-injection delay, counted from the
	// operation's start (from the failover, in a federated run); the
	// injector then still waits for the new launch configuration. Zero
	// draws a random delay, as in the paper's "random point of time
	// during rolling upgrade".
	InjectDelay time.Duration `json:"injectDelay,omitempty"`
	// ExpectedCauses lists extra root-cause node ids that count as a
	// correct diagnosis of the run's ground truth. Scenario runs whose
	// injected anomaly is not one of the 8 fault kinds (the spot
	// interruption storm) set this instead of Fault.
	ExpectedCauses []string `json:"expectedCauses,omitempty"`
}

// DetectionSummary condenses one detection for reporting.
type DetectionSummary struct {
	// Source, TriggerID and StepID echo the detection.
	Source    diagnosis.Source `json:"source"`
	TriggerID string           `json:"triggerId"`
	StepID    string           `json:"stepId,omitempty"`
	// Attribution classifies the detection against the run's ground
	// truth: "fault", "interference:<kind>", or "unattributed".
	Attribution string `json:"attribution"`
	// Conclusion is the diagnosis conclusion.
	Conclusion diagnosis.Conclusion `json:"conclusion"`
	// Causes are the confirmed root-cause node ids.
	Causes []string `json:"causes,omitempty"`
	// DiagnosisTime is the diagnosis duration in simulated time.
	DiagnosisTime time.Duration `json:"diagnosisTime"`
	// Degraded marks a detection made while the session's log stream had
	// known losses (its confidence is discounted).
	Degraded bool `json:"degraded,omitempty"`
}

// RunResult is the outcome of one run.
type RunResult struct {
	// Spec echoes the run spec.
	Spec RunSpec `json:"spec"`
	// UpgradeErr records how the upgrade task ended ("" = success).
	UpgradeErr string `json:"upgradeErr,omitempty"`
	// Detections summarizes every recorded detection.
	Detections []DetectionSummary `json:"detections"`
	// FaultDetected reports whether the injected fault was detected.
	FaultDetected bool `json:"faultDetected"`
	// FaultDiagnosed reports whether some diagnosis identified the
	// fault's root cause.
	FaultDiagnosed bool `json:"faultDiagnosed"`
	// ConformanceFirst reports whether the first detection came from
	// conformance checking (before any assertion failure).
	ConformanceFirst bool `json:"conformanceFirst"`
	// InterferencesDetected counts distinct injected interferences that
	// were detected and attributed.
	InterferencesDetected int `json:"interferencesDetected"`
	// FalsePositives counts unattributable detection events.
	FalsePositives int `json:"falsePositives"`
	// FalsePositivesDiagnosedNoCause counts false positives whose
	// diagnosis correctly concluded "no root cause identified".
	FalsePositivesDiagnosedNoCause int `json:"falsePositivesNoCause"`
	// ConfirmedCauseChains counts confirmed-cause timeline entries whose
	// evidence chain walks all the way back to a raw log event.
	ConfirmedCauseChains int `json:"confirmedCauseChains,omitempty"`
	// BrokenEvidenceChains counts confirmed-cause timeline entries whose
	// chain does NOT reach a log event (dangling or overwritten
	// evidence); the chaos acceptance gate requires zero.
	BrokenEvidenceChains int `json:"brokenEvidenceChains,omitempty"`
	// SimDuration is the simulated length of the run.
	SimDuration time.Duration `json:"simDuration"`

	// Healed reports that a closed-loop run ended with the upgrade task
	// completed and the cluster converged onto the intended launch
	// configuration after remediation (Heal and MemberKill only).
	Healed bool `json:"healed,omitempty"`
	// HealErr explains a failed heal (empty when Healed).
	HealErr string `json:"healErr,omitempty"`
	// Remediations is the run's remediation audit trail.
	Remediations []remediate.Remediation `json:"remediations,omitempty"`
	// RemediationChains counts executed remediations whose outcome entry
	// chains through the flight recorder back to a raw log event;
	// BrokenRemediationChains counts those that do not.
	RemediationChains       int `json:"remediationChains,omitempty"`
	BrokenRemediationChains int `json:"brokenRemediationChains,omitempty"`

	// KilledMember / AdoptedBy record a federated run's verdict: the
	// member that crashed mid-upgrade and the survivor the front handed
	// the operation to (MemberKill only).
	KilledMember string `json:"killedMember,omitempty"`
	AdoptedBy    string `json:"adoptedBy,omitempty"`
	// Handoffs counts federation.handoff entries on the adopted
	// session's timeline.
	Handoffs int `json:"handoffs,omitempty"`
	// DuplicateRemediations counts distinct executions of the same
	// remediation idempotency key across every member's ledger. A
	// snapshot-replicated copy of one execution is not a duplicate; two
	// independent firings of the same key are. Must be zero.
	DuplicateRemediations int `json:"duplicateRemediations,omitempty"`
}

// replacementBudget derives the orchestrator's wait deadline from the
// lane's cloud profile instead of a fixed constant. Under the scaled
// clock, simulated time is a pure function of wall time, so every
// simulated deadline is effectively a wall deadline: at acceptance scale
// a fixed 5-minute budget left under 300ms of wall slack over the
// worst-case terminate+boot path, and a GC pause or a scheduler stall on
// an oversubscribed CPU turned into a spurious ErrTimeout. Three
// worst-case replacement cycles (terminate, boot, consistency window,
// reconciler tick) keep the deadline meaningful for real hangs while
// making the tolerable stall a multiple of the worst-case path.
func replacementBudget(p simaws.Profile) time.Duration {
	per := p.TerminateTime.Max + p.BootTime.Max + p.ConsistencyWindow() + p.TickInterval
	if budget := 3 * per; budget > 5*time.Minute {
		return budget
	}
	return 5 * time.Minute
}

// teardownBudget bounds the post-run wait for every instance to die,
// derived from the profile's terminate-time parameters like
// replacementBudget.
func teardownBudget(p simaws.Profile) time.Duration {
	per := p.TerminateTime.Max + p.ConsistencyWindow() + p.TickInterval
	if budget := 3 * per; budget > 5*time.Minute {
		return budget
	}
	return 5 * time.Minute
}

// verifyChains walks the run's flight-recorder timeline: every
// confirmed-cause entry and every executed remediation's outcome entry
// (outcome → action → confirmed cause → detection) back through its
// parents, counting chains that bottom out at a raw log event versus
// broken ones, and counts handoff entries. A remediation that executed but
// cannot show that chain is unaccountable. Must run before the session is
// removed — removal retires the timeline ring.
func verifyChains(res *RunResult, tl flight.Timeline) {
	for _, e := range tl.Entries {
		if e.Kind == flight.KindHandoff {
			res.Handoffs++
		}
		if e.Kind != flight.KindCause || e.Attrs["confirmed"] != "true" {
			continue
		}
		if _, ok := flight.ChainToLog(tl.Entries, e.ID); ok {
			res.ConfirmedCauseChains++
		} else {
			res.BrokenEvidenceChains++
		}
	}
	for _, r := range res.Remediations {
		if r.State != remediate.StateExecuted || r.OutcomeEntry == 0 {
			continue
		}
		if _, ok := flight.ChainToLog(tl.Entries, r.OutcomeEntry); ok {
			res.RemediationChains++
		} else {
			res.BrokenRemediationChains++
		}
	}
}

// classify attributes each detection to the run's ground truth and fills
// the run-level verdicts.
func classify(res *RunResult, dets []core.Detection) {
	interfSeen := make(map[faultinject.Interference]bool)
	for _, d := range dets {
		sum := DetectionSummary{
			Source:    d.Source,
			TriggerID: d.TriggerID,
			StepID:    d.StepID,
			Degraded:  d.Degraded,
		}
		if d.Diagnosis != nil {
			sum.Conclusion = d.Diagnosis.Conclusion
			sum.DiagnosisTime = d.Diagnosis.Duration
			for _, c := range d.Diagnosis.RootCauses {
				sum.Causes = append(sum.Causes, c.NodeID)
			}
		}
		sum.Attribution = attribute(d, res.Spec)
		if strings.HasPrefix(sum.Attribution, "interference:") {
			for _, i := range res.Spec.Interferences {
				if sum.Attribution == "interference:"+i.String() && !interfSeen[i] {
					interfSeen[i] = true
					res.InterferencesDetected++
				}
			}
		}
		res.Detections = append(res.Detections, sum)
	}
	if len(res.Detections) > 0 && res.Detections[0].Source == diagnosis.SourceConformance {
		res.ConformanceFirst = true
	}

	var faultEvents, unattributed int
	var unattributedNoCause int
	for _, s := range res.Detections {
		switch {
		case s.Attribution == "fault":
			faultEvents++
		case s.Attribution == "unattributed":
			unattributed++
			if s.Conclusion == diagnosis.ConclusionNone || s.Conclusion == diagnosis.ConclusionSuspected {
				unattributedNoCause++
			}
		}
	}
	res.FaultDiagnosed = faultEvents > 0
	if res.Spec.Fault != 0 || len(res.Spec.ExpectedCauses) > 0 {
		res.FaultDetected = faultEvents > 0 || unattributed > 0
		if faultEvents == 0 && unattributed > 0 {
			// One unattributed event stands in as the fault's (wrongly
			// diagnosed) detection; the rest are false positives.
			unattributed--
			if unattributedNoCause > 0 {
				unattributedNoCause--
			}
		}
	}
	res.FalsePositives = unattributed
	res.FalsePositivesDiagnosedNoCause = unattributedNoCause
}

// attribute classifies one detection against the injected ground truth.
func attribute(d core.Detection, spec RunSpec) string {
	if d.Diagnosis == nil {
		return "unattributed"
	}
	for _, i := range spec.Interferences {
		switch i {
		case faultinject.InterferenceScaleIn:
			if d.Diagnosis.HasCause("simultaneous-scale-in") {
				return "interference:" + i.String()
			}
		case faultinject.InterferenceAccountPressure:
			if d.Diagnosis.HasCause("account-limit-reached") {
				return "interference:" + i.String()
			}
		case faultinject.InterferenceRandomTermination:
			if d.Diagnosis.HasCause("unexpected-termination") {
				return "interference:" + i.String()
			}
			for _, s := range d.Diagnosis.Suspected {
				if strings.HasPrefix(s.NodeID, "unexpected-termination") {
					return "interference:" + i.String()
				}
			}
		}
	}
	if spec.Fault != 0 {
		for _, base := range spec.Fault.ExpectedRootCauses() {
			if d.Diagnosis.HasCause(base) {
				return "fault"
			}
		}
	}
	for _, base := range spec.ExpectedCauses {
		if d.Diagnosis.HasCause(base) {
			return "fault"
		}
		for _, s := range d.Diagnosis.Suspected {
			if strings.HasPrefix(s.NodeID, base) {
				return "fault"
			}
		}
	}
	return "unattributed"
}
