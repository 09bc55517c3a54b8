package lint

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/assertspec"
	"poddiagnosis/internal/diagplan"
	"poddiagnosis/internal/process"
	"poddiagnosis/internal/remediate"
)

// --- helpers -------------------------------------------------------------

func hasRule(fs []Finding, rule string) bool {
	for _, f := range fs {
		if f.Rule == rule {
			return true
		}
	}
	return false
}

func findingsFor(fs []Finding, rule string) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Rule == rule {
			out = append(out, f)
		}
	}
	return out
}

func fixtureRegistry() *assertion.Registry {
	reg := assertion.NewRegistry()
	reg.Register(assertion.Check{ID: "known", Description: "fixture check"})
	return reg
}

// neverFiresPlan is a well-formed plan whose assertion no spec binds (XC003).
func neverFiresPlan() *diagplan.Plan {
	return &diagplan.Plan{
		ID: "never-fires", AssertionID: "unbound", Entry: "t",
		Nodes: []*diagplan.Node{
			{ID: "t", Kind: diagplan.KindEntry, Edges: []diagplan.Edge{
				{To: "c1", Prob: 0.6}, {To: "c2", Prob: 0.4},
			}},
			{ID: "c1", Kind: diagplan.KindCause, CheckID: "known", TestClass: diagplan.TestClassRetryable},
			{ID: "c2", Kind: diagplan.KindCause, CheckID: "known", TestClass: diagplan.TestClassRetryable},
		},
	}
}

// brokenRemediation seeds one violation for every RM rule against the
// neverFiresPlan catalog: an auto action bound to a cause no plan defines
// (RM001), the plan's causes left without bindings or markers (RM002 for
// c1; c2 gets a stale-free marker so both paths are exercised), and a
// marker naming a cause that does not exist (RM003).
func brokenRemediation() []Finding {
	cat := remediate.NewCatalog()
	cat.MustAdd(remediate.Action{
		Name: "fix-nothing", Description: "fixture", Class: remediate.ClassConfig,
		Causes: []string{"no-such-cause"},
		Run:    func(context.Context, *remediate.Target) (string, error) { return "", nil },
	})
	cat.MarkManual("c2", "fixture: operator handles c2")
	cat.MarkManual("ghost-cause", "fixture: stale marker")
	plans := diagplan.NewCatalog()
	plans.MustRegister(neverFiresPlan())
	return LintRemediation(cat, remediate.Policy{Default: remediate.ModeAuto}, plans, []string{"never-fires"})
}

// --- model rules ---------------------------------------------------------

// brokenModelDoc seeds one violation for every PM rule.
const brokenModelDoc = `{
  "id": "broken",
  "nodes": [
    {"id": "s", "kind": 1},
    {"id": "a1", "name": "A1", "kind": 2, "stepId": "step1", "patterns": ["^A1"]},
    {"id": "a2", "name": "A2", "kind": 2, "stepId": "step1", "patterns": ["^A1", "("]},
    {"id": "a3", "name": "A3", "kind": 2},
    {"id": "a4", "name": "A4", "kind": 2, "patterns": ["^A4"]},
    {"id": "a4", "name": "dup", "kind": 2},
    {"id": "e", "kind": 4}
  ],
  "edges": [
    {"from": "s", "to": "a1"},
    {"from": "a1", "to": "a2"},
    {"from": "a2", "to": "e"},
    {"from": "a1", "to": "a4"},
    {"from": "a3", "to": "e"},
    {"from": "x", "to": "e"}
  ]
}`

func TestLintModelDocSeedsEveryPMRule(t *testing.T) {
	fs := LintModelDoc("broken", []byte(brokenModelDoc))
	for _, rule := range []string{
		RuleModelUnreachable,   // a3
		RuleModelDeadEnd,       // a4
		RuleModelBadPattern,    // "(" on a2
		RuleModelDuplicateStep, // step1 on a1 and a2
		RuleModelNoPatterns,    // a3
		RuleModelShadowed,      // "^A1" on a1 and a2
		RuleModelStructure,     // duplicate id a4, edge from unknown x
	} {
		if !hasRule(fs, rule) {
			t.Errorf("expected %s in:\n%s", rule, render(fs))
		}
	}
	if got := findingsFor(fs, RuleModelStructure); len(got) != 2 {
		t.Errorf("want 2 PM007 findings (dup id + unknown edge), got %d", len(got))
	}
}

// silentMintDoc is sound by every graph rule, but its parallel gateway
// feeds itself through a merge: one token becomes any number without a
// log line, and the closure search has no end.
const silentMintDoc = `{
  "id": "silent-mint",
  "nodes": [
    {"id": "s", "kind": 1},
    {"id": "go", "name": "Go", "kind": 2, "stepId": "step1", "patterns": ["^go"]},
    {"id": "merge", "kind": 3},
    {"id": "fork", "kind": 5},
    {"id": "stop", "name": "Stop", "kind": 2, "stepId": "step2", "patterns": ["^stop"]},
    {"id": "e", "kind": 4}
  ],
  "edges": [
    {"from": "s", "to": "go"},
    {"from": "go", "to": "merge"},
    {"from": "merge", "to": "fork"},
    {"from": "fork", "to": "merge"},
    {"from": "fork", "to": "stop"},
    {"from": "stop", "to": "e"}
  ]
}`

func TestLintModelDocReportsClosureOverCap(t *testing.T) {
	fs := LintModelDoc("mint", []byte(silentMintDoc))
	if len(fs) != 1 || fs[0].Rule != RuleModelClosure || fs[0].Severity != SevError {
		t.Fatalf("want one PM008 error, got:\n%s", render(fs))
	}
	if !strings.Contains(fs[0].Pos, "silent-mint") {
		t.Errorf("finding does not name the model: %s", fs[0])
	}
}

func TestLintModelDocRejectsGarbage(t *testing.T) {
	fs := LintModelDoc("junk", []byte("{nope"))
	if len(fs) != 1 || fs[0].Rule != RuleModelStructure {
		t.Fatalf("want one PM007, got %s", render(fs))
	}
}

func TestBuiltinModelsLintClean(t *testing.T) {
	for _, m := range []*process.Model{process.RollingUpgradeModel(), process.ScaleOutModel()} {
		if fs := LintModel(m); len(fs) != 0 {
			t.Errorf("model %s: unexpected findings:\n%s", m.ID(), render(fs))
		}
	}
}

// --- spec rules ----------------------------------------------------------

func TestLintSpecSeedsEveryASRule(t *testing.T) {
	// Parsed with a nil registry so the unknown check survives to lint.
	spec, err := assertspec.Parse(`
on step1 assert known
on step1 assert known
on step99 assert known
on step1 assert missing
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := LintSpec("fixture", spec, process.RollingUpgradeModel(), fixtureRegistry())
	for _, rule := range []string{RuleSpecUnknownCheck, RuleSpecUnknownStep, RuleSpecDuplicateBinding} {
		if !hasRule(fs, rule) {
			t.Errorf("expected %s in:\n%s", rule, render(fs))
		}
	}
	// The duplicate finding points back at the first occurrence's line.
	dups := findingsFor(fs, RuleSpecDuplicateBinding)
	if len(dups) != 1 || !strings.Contains(dups[0].Message, "line 2") {
		t.Errorf("AS003 should reference line 2, got %s", render(dups))
	}
}

// --- diagnosis-plan rules -------------------------------------------------

// brokenPlan seeds one violation for every DG rule.
func brokenPlan() *diagplan.Plan {
	retryable := diagplan.TestClassRetryable
	return &diagplan.Plan{
		ID: "broken", AssertionID: "known", Entry: "top",
		Nodes: []*diagplan.Node{
			{ID: "top", Kind: diagplan.KindEntry, Edges: []diagplan.Edge{
				{To: "dangling", Prob: 0.4},
				{To: "untestable", Prob: 0.3},
				{To: "zero"},             // DG004 (zero prior)
				{To: "tie-a", Prob: 0.1}, // DG003 with tie-b
				{To: "tie-b", Prob: 0.1},
				{To: "gate", Prob: 0.05},
				{To: "shared", Prob: 0.62},
				{To: "loop-a", Prob: 0.02},
			}},
			{ID: "dangling", Kind: diagplan.KindCause, CheckID: "missing"}, // DG001; no testClass → DG009
			{ID: "untestable", Kind: diagplan.KindCause},                   // DG007
			{ID: "zero", Kind: diagplan.KindCause, CheckID: "known", TestClass: retryable},
			{ID: "tie-a", Kind: diagplan.KindCause, CheckID: "known", TestClass: retryable},
			{ID: "tie-b", Kind: diagplan.KindCause, CheckID: "known", TestClass: retryable},
			{ID: "gate", Kind: diagplan.KindCollector, Steps: []string{"step1"}, Edges: []diagplan.Edge{
				{To: "off-step", Prob: 0.7},
				{To: "shared", Prob: 0.62}, // DG008: shared accumulates 1.24
			}},
			{ID: "off-step", Kind: diagplan.KindCause, CheckID: "known", TestClass: retryable,
				Steps: []string{"step9"}}, // DG006: disjoint from gate's scope
			{ID: "shared", Kind: diagplan.KindCause, CheckID: "known", TestClass: retryable},
			{ID: "loop-a", Kind: diagplan.KindCollector, Edges: []diagplan.Edge{{To: "loop-b", Prob: 1}}},
			{ID: "loop-b", Kind: diagplan.KindCollector, Edges: []diagplan.Edge{{To: "loop-a", Prob: 1}}}, // DG002
			{ID: "orphan", Kind: diagplan.KindCause, CheckID: "known", TestClass: retryable},              // DG005
			{ID: "top", Kind: diagplan.KindCause, CheckID: "known", TestClass: retryable},                 // DG010 (dup id)
		},
	}
}

func TestLintPlanSeedsEveryDGRule(t *testing.T) {
	fs := LintPlan(brokenPlan(), fixtureRegistry())
	for _, rule := range []string{
		RulePlanDanglingCheck, RulePlanCycle, RulePlanDupSiblingProb, RulePlanZeroSiblingProb,
		RulePlanUnreachable, RulePlanStepDisjoint, RulePlanUntestableCause, RulePlanFanInMass,
		RulePlanNoTestClass, RulePlanShape,
	} {
		if !hasRule(fs, rule) {
			t.Errorf("expected %s in:\n%s", rule, render(fs))
		}
	}
}

func TestLintPlanTerminatesOnCycle(t *testing.T) {
	p := &diagplan.Plan{
		ID: "cyc", AssertionID: "known", Entry: "e",
		Nodes: []*diagplan.Node{
			{ID: "e", Kind: diagplan.KindEntry, Edges: []diagplan.Edge{{To: "a", Prob: 1}}},
			{ID: "a", Kind: diagplan.KindCollector, Edges: []diagplan.Edge{{To: "b", Prob: 1}}},
			{ID: "b", Kind: diagplan.KindCollector, Edges: []diagplan.Edge{{To: "a", Prob: 1}}},
		},
	}
	fs := LintPlan(p, nil)
	if !hasRule(fs, RulePlanCycle) {
		t.Fatalf("want DG002, got %s", render(fs))
	}
}

func TestLintPlanDocRejectsGarbage(t *testing.T) {
	fs := LintPlanDoc("junk.json", []byte("{nope"))
	if len(fs) != 1 || fs[0].Rule != RulePlanShape {
		t.Fatalf("want one DG010, got %s", render(fs))
	}
}

// The embedded plan documents — rolling-upgrade and scenario plans alike —
// must lint clean through the raw-doc path podlint uses for examples/
// (registry-independent rules only).
func TestScenarioPlanDocsLintClean(t *testing.T) {
	for name, data := range diagplan.Sources() {
		if fs := LintPlanDoc(name, data); len(fs) != 0 {
			t.Errorf("plan doc %s: unexpected findings:\n%s", name, render(fs))
		}
	}
}

// --- cross-artifact rules ------------------------------------------------

func TestLintBundlesSeedsEveryXCRule(t *testing.T) {
	reg := fixtureRegistry()
	spec, err := assertspec.Parse("on step1 assert known", reg)
	if err != nil {
		t.Fatal(err)
	}
	cat := diagplan.NewCatalog()
	cat.MustRegister(neverFiresPlan())
	fs := LintBundles(Bundle{
		Name:     "fixture",
		Model:    process.RollingUpgradeModel(),
		Specs:    []NamedSpec{{Name: "fixture-spec", Spec: spec}},
		Plans:    cat,
		Registry: reg,
	})
	if !hasRule(fs, RuleCoverageStepNoAssertion) { // steps beyond step1 are bare
		t.Errorf("expected XC001 in:\n%s", render(fs))
	}
	if !hasRule(fs, RuleCoverageAssertionNoTree) { // "known" is bound, no tree
		t.Errorf("expected XC002 in:\n%s", render(fs))
	}
	if !hasRule(fs, RuleCoverageTreeNeverTrigger) { // "unbound" has a tree, no binding
		t.Errorf("expected XC003 in:\n%s", render(fs))
	}
}

// TestBuiltinsLintClean is the shipped-artifact regression gate: the
// built-in models, specifications and the full diagnosis-plan catalog must
// produce zero error-severity findings. Warnings are tolerated but pinned,
// so a new coverage gap shows up as a diff here.
func TestBuiltinsLintClean(t *testing.T) {
	bundles, err := Builtins()
	if err != nil {
		t.Fatal(err)
	}
	fs := LintBundles(bundles...)
	if n := CountErrors(fs); n != 0 {
		t.Fatalf("builtin artifacts have %d lint error(s):\n%s", n, render(fs))
	}
	for _, f := range fs {
		if f.Rule != RuleCoverageStepNoAssertion {
			t.Errorf("unexpected builtin warning: %s", f)
		}
	}
}

// --- source analyzers ----------------------------------------------------

// writeTree materializes a fixture source tree and returns its root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, content := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// goRulesTree seeds the per-file GO001–GO005 violations, with suppressed
// and exempt sites beside them.
var goRulesTree = map[string]string{
	"pkg/clockuse.go": `package pkg

import "time"

func now() time.Time { return time.Now() }

func since(t0 time.Time) time.Duration {
	//podlint:ignore GO001 fixture: suppressed on purpose
	_ = time.Now()
	return time.Since(t0)
}
`,
	"internal/clock/real.go": `package clock

import "time"

func now() time.Time { return time.Now() }
`,
	"pkg/metrics.go": `package pkg

type registry struct{}

func (registry) Counter(name, help string) int { return 0 }

func metrics(r registry) {
	r.Counter("pod_good_total", "ok")
	r.Counter("Bad-Name", "flagged")
}
`,
	"pkg/send.go": `package pkg

import "sync"

func direct(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	ch <- 1
	mu.Unlock()
	ch <- 2
}

func selects(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	defer mu.Unlock()
	select {
	case ch <- 1:
	default:
	}
	select {
	case ch <- 2:
	}
}

func fresh(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	defer mu.Unlock()
	go func() {
		ch <- 3
	}()
}
`,
	"internal/rest/handler.go": `package rest

import "context"

func handle() context.Context { return context.Background() }
`,
	"pkg/flightuse.go": `package pkg

import "poddiagnosis/internal/obs/flight"

func kinds() []any {
	return []any{
		flight.Kind("log.event"),
		flight.Kind("made.up"),
		flight.Entry{Kind: "detection"},
		flight.Entry{Kind: "also.bogus"},
		flight.Entry{Kind: flight.KindCause},
	}
}
`,
}

func TestLintSourceSeedsEveryGORule(t *testing.T) {
	root := writeTree(t, goRulesTree)
	fs, err := LintSource(root, nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, rule := range []string{RuleSrcWallClock, RuleSrcMetricName, RuleSrcMutexChannelSend, RuleSrcContextBackground, RuleSrcFlightKind} {
		if !hasRule(fs, rule) {
			t.Errorf("expected %s in:\n%s", rule, render(fs))
		}
	}

	// GO001: the suppressed call is dropped; internal/clock is exempt;
	// time.Now in now() and time.Since in since() remain.
	go001 := findingsFor(fs, RuleSrcWallClock)
	if len(go001) != 2 {
		t.Errorf("want 2 GO001 findings, got %s", render(go001))
	}
	for _, f := range go001 {
		if strings.HasPrefix(f.Pos, "internal/clock/") {
			t.Errorf("internal/clock must be exempt from GO001: %s", f)
		}
	}

	// GO002: only the non-conforming literal.
	go002 := findingsFor(fs, RuleSrcMetricName)
	if len(go002) != 1 || !strings.Contains(go002[0].Message, "Bad-Name") {
		t.Errorf("want 1 GO002 for Bad-Name, got %s", render(go002))
	}

	// GO003: the bare send under the lock and the default-less select; the
	// post-unlock send, the select-with-default and the goroutine body are
	// all clean.
	go003 := findingsFor(fs, RuleSrcMutexChannelSend)
	if len(go003) != 2 {
		t.Errorf("want 2 GO003 findings, got %s", render(go003))
	}
	for _, f := range go003 {
		if f.Pos != "pkg/send.go:7" && f.Pos != "pkg/send.go:20" {
			t.Errorf("unexpected GO003 position %s", f.Pos)
		}
	}

	// GO004 only fires under internal/rest.
	go004 := findingsFor(fs, RuleSrcContextBackground)
	if len(go004) != 1 || !strings.HasPrefix(go004[0].Pos, "internal/rest/") {
		t.Errorf("want 1 GO004 under internal/rest, got %s", render(go004))
	}

	// GO005: the invented kinds in the conversion and the Entry literal are
	// flagged; registered literals and the named constant pass.
	go005 := findingsFor(fs, RuleSrcFlightKind)
	if len(go005) != 2 {
		t.Errorf("want 2 GO005 findings, got %s", render(go005))
	}
	for _, f := range go005 {
		if !strings.Contains(f.Message, "made.up") && !strings.Contains(f.Message, "also.bogus") {
			t.Errorf("unexpected GO005 finding %s", f)
		}
	}
}

// suppressionTree pairs a blanket ignore with one naming the wrong rule.
var suppressionTree = map[string]string{
	"p/a.go": `package p

import "time"

func a() time.Time { return time.Now() } //podlint:ignore

func b() time.Time { return time.Now() } //podlint:ignore GO002 wrong rule, still fires
`,
}

func TestSuppressionBlanketAndTrailing(t *testing.T) {
	root := writeTree(t, suppressionTree)
	fs, err := LintSource(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	go001 := findingsFor(fs, RuleSrcWallClock)
	if len(go001) != 1 || go001[0].Pos != "p/a.go:7" {
		t.Fatalf("blanket ignore must drop line 5 only, got %s", render(go001))
	}
}

// TestRepositoryLintsClean pins the acceptance criterion: running the full
// suite over this repository reports no error-severity findings.
func TestRepositoryLintsClean(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skip("module root not found")
	}
	fs, err := LintSource(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := CountErrors(fs); n != 0 {
		t.Fatalf("repository has %d source lint error(s):\n%s", n, render(fs))
	}
}

// --- remediation rules ---------------------------------------------------

func TestLintRemediationRules(t *testing.T) {
	fs := brokenRemediation()
	rm1 := findingsFor(fs, RuleRemediateDanglingCause)
	if len(rm1) != 1 || !strings.Contains(rm1[0].Message, "no-such-cause") {
		t.Fatalf("RM001 = %v, want one finding for no-such-cause", rm1)
	}
	rm2 := findingsFor(fs, RuleRemediateUncovered)
	if len(rm2) != 1 || !strings.Contains(rm2[0].Message, `"c1"`) {
		t.Fatalf("RM002 = %v, want exactly the unmarked cause c1", rm2)
	}
	rm3 := findingsFor(fs, RuleRemediateStaleManual)
	if len(rm3) != 1 || !strings.Contains(rm3[0].Message, "ghost-cause") {
		t.Fatalf("RM003 = %v, want one stale marker for ghost-cause", rm3)
	}
}

func TestLintRemediationApproveModeNotDangling(t *testing.T) {
	cat := remediate.NewCatalog()
	cat.MustAdd(remediate.Action{
		Name: "held", Description: "fixture", Class: remediate.ClassEscalation,
		Causes: []string{"no-such-cause"},
		Run:    func(context.Context, *remediate.Target) (string, error) { return "", nil },
	})
	plans := diagplan.NewCatalog()
	plans.MustRegister(neverFiresPlan())
	policy := remediate.Policy{Default: remediate.ModeAuto,
		ByClass: map[string]remediate.Mode{remediate.ClassEscalation: remediate.ModeApprove}}
	if fs := LintRemediation(cat, policy, plans, nil); hasRule(fs, RuleRemediateDanglingCause) {
		t.Fatalf("RM001 fired for an approve-mode action: %v", fs)
	}
}

// TestBuiltinRemediationClean pins the acceptance criterion: the shipped
// action catalog resolves cleanly against the full diagnosis-plan catalog
// — every auto-capable binding lands on a real cause and every compiled
// rolling-upgrade cause is either actionable or explicitly manual.
func TestBuiltinRemediationClean(t *testing.T) {
	if fs := BuiltinRemediation(); len(fs) != 0 {
		t.Fatalf("builtin remediation surface has %d finding(s):\n%s", len(fs), render(fs))
	}
}

// coverageTree seeds one violation of each per-file GO rule for
// TestEveryRuleHasCoverage.
var coverageTree = map[string]string{
	"pkg/all.go": `package pkg

import "time"

func now() time.Time { return time.Now() }
`,
	"pkg/metrics.go": `package pkg

type registry struct{}

func (registry) Gauge(name, help string) int { return 0 }

func metrics(r registry) { r.Gauge("Nope", "x") }
`,
	"pkg/send.go": `package pkg

import "sync"

func f(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	ch <- 1
	mu.Unlock()
}
`,
	"internal/rest/h.go": `package rest

import "context"

func h() context.Context { return context.TODO() }
`,
	"pkg/flight.go": `package pkg

import "poddiagnosis/internal/obs/flight"

func k() flight.Kind { return flight.Kind("nope") }
`,
}

// TestEveryRuleHasCoverage cross-checks the registry against the fixtures
// above: every registered rule must fire somewhere in this test file's
// fixtures, so a rule added to the table without a seeded violation fails
// here (see the comment on ruleTable).
func TestEveryRuleHasCoverage(t *testing.T) {
	var all []Finding
	all = append(all, LintModelDoc("broken", []byte(brokenModelDoc))...)
	all = append(all, LintModelDoc("mint", []byte(silentMintDoc))...)

	spec, err := assertspec.Parse("on step1 assert known\non step1 assert known\non step99 assert known\non step1 assert missing", nil)
	if err != nil {
		t.Fatal(err)
	}
	all = append(all, LintSpec("fixture", spec, process.RollingUpgradeModel(), fixtureRegistry())...)

	all = append(all, LintPlan(brokenPlan(), fixtureRegistry())...)

	all = append(all, brokenRemediation()...)

	boundSpec, err := assertspec.Parse("on step1 assert known", fixtureRegistry())
	if err != nil {
		t.Fatal(err)
	}
	cat := diagplan.NewCatalog()
	cat.MustRegister(neverFiresPlan())
	all = append(all, LintBundles(Bundle{
		Name:     "fixture",
		Model:    process.RollingUpgradeModel(),
		Specs:    []NamedSpec{{Name: "s", Spec: boundSpec}},
		Plans:    cat,
		Registry: fixtureRegistry(),
	})...)

	root := writeTree(t, coverageTree)
	srcFindings, err := LintSource(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	all = append(all, srcFindings...)

	// Concurrency rules (GO006–GO008) — fixtures in concurrency_test.go.
	all = append(all, concurrencyFixtureFindings(t)...)

	fired := make(map[string]bool)
	for _, f := range all {
		fired[f.Rule] = true
	}
	for _, r := range Rules() {
		if !fired[r.ID] {
			t.Errorf("rule %s (%s) has no seeded violation in the fixtures", r.ID, r.Summary)
		}
	}
}

// render formats findings for failure messages.
func render(fs []Finding) string {
	if len(fs) == 0 {
		return "  (none)"
	}
	var sb strings.Builder
	for _, f := range fs {
		sb.WriteString("  " + f.String() + "\n")
	}
	return sb.String()
}
