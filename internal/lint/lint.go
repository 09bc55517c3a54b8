// Package lint is the static-analysis suite guarding the correctness of
// POD-Diagnosis's operator-authored artifacts and of the Go source itself.
//
// POD-Diagnosis is only as correct as its models: a diagnosis plan with a
// dangling diagnosis-test reference, an assertion spec bound to a step the
// process model does not define, or an unreachable root cause is silently
// wrong until the exact failure that needs it. The package therefore lints
// on two fronts:
//
//   - Model linting: process models (built or raw JSON documents),
//     assertion specifications, and diagnosis-plan catalogs are validated
//     individually and cross-validated as a Bundle — the paper's §IV
//     trigger chain (process step → assertion → diagnosis plan) must be
//     closed.
//
//   - Source analyzers: go/ast passes over the repository enforce project
//     invariants — no wall-clock reads outside internal/clock, metric
//     naming, no mutex held across a blocking channel send, and no
//     context.Background on request paths under internal/rest.
//
// Every finding carries a stable rule ID, a severity, and a position
// (file:line for source findings, an artifact locus for model findings).
// Rule documentation lives in the Rules table; cmd/podlint is the CLI.
package lint

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Severity grades a finding.
type Severity int

// Severities. Errors fail the build (podlint exits non-zero); warnings are
// informational (coverage gaps, degenerate-but-legal structures).
const (
	SevWarning Severity = iota + 1
	SevError
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case SevWarning:
		return "warning"
	case SevError:
		return "error"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the severity as its string form.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses the string form.
func (s *Severity) UnmarshalJSON(data []byte) error {
	var v string
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	switch v {
	case "warning":
		*s = SevWarning
	case "error":
		*s = SevError
	default:
		return fmt.Errorf("lint: unknown severity %q", v)
	}
	return nil
}

// Finding is one lint result.
type Finding struct {
	// Rule is the stable rule ID, e.g. "GO001".
	Rule string `json:"rule"`
	// Severity grades the finding.
	Severity Severity `json:"severity"`
	// Pos locates the finding: "path/file.go:42" for source findings, an
	// artifact locus like "model:rolling-upgrade/node:update-lc" for model
	// findings.
	Pos string `json:"pos"`
	// Message explains the defect.
	Message string `json:"message"`
}

// String renders the finding in the conventional compiler format.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s %s: %s", f.Pos, f.Severity, f.Rule, f.Message)
}

// Rule IDs. The IDs are stable across releases: suppression comments,
// CI dashboards and the documentation key off them. PM rules lint process
// models, AS rules assertion specifications, DG rules diagnosis plans
// (which replaced the retired tree-only FT rules), XC rules the
// cross-artifact trigger chain, RM rules the remediation-catalog
// bindings against the plan causes, GO rules the Go source.
const (
	RuleModelUnreachable   = "PM001"
	RuleModelDeadEnd       = "PM002"
	RuleModelBadPattern    = "PM003"
	RuleModelDuplicateStep = "PM004"
	RuleModelNoPatterns    = "PM005"
	RuleModelShadowed      = "PM006"
	RuleModelStructure     = "PM007"
	RuleModelClosure       = "PM008"

	RuleSpecUnknownCheck     = "AS001"
	RuleSpecUnknownStep      = "AS002"
	RuleSpecDuplicateBinding = "AS003"

	RulePlanDanglingCheck   = "DG001"
	RulePlanCycle           = "DG002"
	RulePlanDupSiblingProb  = "DG003"
	RulePlanZeroSiblingProb = "DG004"
	RulePlanUnreachable     = "DG005"
	RulePlanStepDisjoint    = "DG006"
	RulePlanUntestableCause = "DG007"
	RulePlanFanInMass       = "DG008"
	RulePlanNoTestClass     = "DG009"
	RulePlanShape           = "DG010"

	RuleCoverageStepNoAssertion  = "XC001"
	RuleCoverageAssertionNoTree  = "XC002"
	RuleCoverageTreeNeverTrigger = "XC003"

	RuleRemediateDanglingCause = "RM001"
	RuleRemediateUncovered     = "RM002"
	RuleRemediateStaleManual   = "RM003"

	RuleSrcWallClock         = "GO001"
	RuleSrcMetricName        = "GO002"
	RuleSrcMutexChannelSend  = "GO003"
	RuleSrcContextBackground = "GO004"
	RuleSrcFlightKind        = "GO005"
	RuleSrcGoroutineLeak     = "GO006"
	RuleSrcLockOrder         = "GO007"
	RuleSrcTimerInLoop       = "GO008"
	RuleSrcDeferInHotLoop    = "GO009"
	RuleSrcHotAlloc          = "GO010"
	RuleSrcEscapeBudget      = "GO011"

	RuleRatchetNs       = "RT001"
	RuleRatchetAllocs   = "RT002"
	RuleRatchetBaseline = "RT003"
)

// RuleInfo documents one rule.
type RuleInfo struct {
	// ID is the stable rule identifier.
	ID string `json:"id"`
	// Severity is the rule's severity.
	Severity Severity `json:"severity"`
	// Front is "model" or "source".
	Front string `json:"front"`
	// Summary is a one-line description.
	Summary string `json:"summary"`
}

// ruleTable is the authoritative rule registry. Adding a rule means adding
// a row here, implementing it in the matching front, and seeding one
// violation in the completeness fixture of lint_test.go.
var ruleTable = map[string]RuleInfo{
	RuleModelUnreachable:   {RuleModelUnreachable, SevError, "model", "process node unreachable from the start event"},
	RuleModelDeadEnd:       {RuleModelDeadEnd, SevError, "model", "process node cannot reach any end event (dead transition)"},
	RuleModelBadPattern:    {RuleModelBadPattern, SevError, "model", "log-classification regexp does not compile"},
	RuleModelDuplicateStep: {RuleModelDuplicateStep, SevError, "model", "two activities share one process step id"},
	RuleModelNoPatterns:    {RuleModelNoPatterns, SevWarning, "model", "activity has no log patterns and can never be observed"},
	RuleModelShadowed:      {RuleModelShadowed, SevWarning, "model", "identical log pattern on two activities (ambiguous classification)"},
	RuleModelStructure:     {RuleModelStructure, SevError, "model", "structural defect: duplicate node id, missing start/end, or edge to unknown node"},
	RuleModelClosure:       {RuleModelClosure, SevError, "model", "a marking's silent closure exceeds the replay cap (gateways mint tokens without a log line)"},

	RuleSpecUnknownCheck:     {RuleSpecUnknownCheck, SevError, "model", "assertion binding references a check the registry does not know"},
	RuleSpecUnknownStep:      {RuleSpecUnknownStep, SevError, "model", "assertion binding references a step the process model does not define"},
	RuleSpecDuplicateBinding: {RuleSpecDuplicateBinding, SevWarning, "model", "identical assertion binding appears twice"},

	RulePlanDanglingCheck:   {RulePlanDanglingCheck, SevError, "model", "diagnosis-plan node references an unregistered diagnosis test"},
	RulePlanCycle:           {RulePlanCycle, SevError, "model", "diagnosis plan contains a cycle (node reachable from itself)"},
	RulePlanDupSiblingProb:  {RulePlanDupSiblingProb, SevError, "model", "sibling edge probabilities tie — probability-ordered visit is underdetermined"},
	RulePlanZeroSiblingProb: {RulePlanZeroSiblingProb, SevError, "model", "edge with zero prior probability in a multi-edge group"},
	RulePlanUnreachable:     {RulePlanUnreachable, SevError, "model", "plan node unreachable from the entry (orphan — no walk ever visits it)"},
	RulePlanStepDisjoint:    {RulePlanStepDisjoint, SevWarning, "model", "edge joins disjoint step scopes — dead under any non-empty step context"},
	RulePlanUntestableCause: {RulePlanUntestableCause, SevWarning, "model", "cause carries no diagnosis test and can never be confirmed"},
	RulePlanFanInMass:       {RulePlanFanInMass, SevWarning, "model", "fan-in node's incoming prior probabilities sum past 1"},
	RulePlanNoTestClass:     {RulePlanNoTestClass, SevWarning, "model", "diagnosis test lacks a timeout/retry classification (testClass) — the resilience layer cannot tell whether retrying is safe"},
	RulePlanShape:           {RulePlanShape, SevError, "model", "structural defect: duplicate id, missing/checked entry, cause with edges, dangling or duplicate edge, unknown kind"},

	RuleCoverageStepNoAssertion:  {RuleCoverageStepNoAssertion, SevWarning, "model", "process step has no assertion bound (trigger chain gap)"},
	RuleCoverageAssertionNoTree:  {RuleCoverageAssertionNoTree, SevError, "model", "spec-bound assertion has no fault tree — its failure cannot be diagnosed"},
	RuleCoverageTreeNeverTrigger: {RuleCoverageTreeNeverTrigger, SevWarning, "model", "fault tree's assertion is bound by no specification (tree never fires)"},

	RuleRemediateDanglingCause: {RuleRemediateDanglingCause, SevError, "model", "auto-mode remediation action binds a cause no diagnosis plan defines (action can never fire)"},
	RuleRemediateUncovered:     {RuleRemediateUncovered, SevError, "model", "rolling-upgrade plan cause neither binds a remediation action nor carries an explicit manual marker"},
	RuleRemediateStaleManual:   {RuleRemediateStaleManual, SevWarning, "model", "manual-remediation marker names a cause no diagnosis plan defines"},

	RuleSrcWallClock:         {RuleSrcWallClock, SevError, "source", "time.Now/time.Since outside internal/clock — use clock.Wall or an injected clock.Clock"},
	RuleSrcMetricName:        {RuleSrcMetricName, SevError, "source", "metric name does not match ^pod_[a-z_]+$"},
	RuleSrcMutexChannelSend:  {RuleSrcMutexChannelSend, SevError, "source", "blocking channel send while a mutex is held"},
	RuleSrcContextBackground: {RuleSrcContextBackground, SevError, "source", "context.Background/TODO on a request path under internal/rest"},
	RuleSrcFlightKind:        {RuleSrcFlightKind, SevError, "source", "timeline entry kind string is not a registered flight.Kind"},
	RuleSrcGoroutineLeak:     {RuleSrcGoroutineLeak, SevError, "source", "goroutine loops on channel operations with no return/break — it can never exit and leaks"},
	RuleSrcLockOrder:         {RuleSrcLockOrder, SevError, "source", "mutex acquisition cycle: two code paths take the same locks in opposite orders (deadlock)"},
	RuleSrcTimerInLoop:       {RuleSrcTimerInLoop, SevError, "source", "timer channel created per loop iteration (time.After/clk.After in a loop) — hoist a Ticker"},
	RuleSrcDeferInHotLoop:    {RuleSrcDeferInHotLoop, SevError, "source", "defer inside a loop of a hot-path function — defers pile up until function return"},
	RuleSrcHotAlloc:          {RuleSrcHotAlloc, SevError, "source", "allocation-prone construct in a //podlint:hotpath function (fmt.Sprintf, unsized make, map literal, per-iteration closure)"},
	RuleSrcEscapeBudget:      {RuleSrcEscapeBudget, SevError, "source", "hot-path function exceeds its declared heap-escape budget (compiler -gcflags=-m diagnostics)"},

	RuleRatchetNs:       {RuleRatchetNs, SevError, "bench", "benchmark ns/op regressed past the ratchet threshold against the committed baseline"},
	RuleRatchetAllocs:   {RuleRatchetAllocs, SevError, "bench", "benchmark allocs/op regressed against the committed baseline (any growth fails)"},
	RuleRatchetBaseline: {RuleRatchetBaseline, SevWarning, "bench", "benchmark has no ratchet baseline in BENCH_*.json — its performance is unguarded"},
}

// Rules returns the rule registry sorted by ID.
func Rules() []RuleInfo {
	out := make([]RuleInfo, 0, len(ruleTable))
	for _, r := range ruleTable {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// severityOf returns the registered severity of a rule (SevError for
// unknown rules, which should not happen).
func severityOf(rule string) Severity {
	if r, ok := ruleTable[rule]; ok {
		return r.Severity
	}
	return SevError
}

// finding builds a Finding with the rule's registered severity.
func finding(rule, pos, format string, args ...any) Finding {
	return Finding{Rule: rule, Severity: severityOf(rule), Pos: pos, Message: fmt.Sprintf(format, args...)}
}

// CountErrors returns the number of error-severity findings.
func CountErrors(fs []Finding) int {
	n := 0
	for _, f := range fs {
		if f.Severity == SevError {
			n++
		}
	}
	return n
}

// Sort orders findings by position, then rule, for stable output.
func Sort(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Pos != fs[j].Pos {
			return fs[i].Pos < fs[j].Pos
		}
		if fs[i].Rule != fs[j].Rule {
			return fs[i].Rule < fs[j].Rule
		}
		return fs[i].Message < fs[j].Message
	})
}
