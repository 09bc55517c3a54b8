package lint

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// --- fixtures shared with TestEveryRuleHasCoverage -----------------------

// hotpathTree seeds the GO006–GO010 violations beside their clean and
// suppressed counterparts.
var hotpathTree = map[string]string{
	"pkg/leak.go": `package pkg

func leak(ch chan int) {
	go func() {
		for {
			ch <- 1
		}
	}()
}

func stops(ch chan int, stop chan struct{}) {
	go func() {
		for {
			select {
			case ch <- 1:
			case <-stop:
				return
			}
		}
	}()
}

func allowedLeak(ch chan int) {
	go func() {
		//podlint:ignore GO006 fixture: drained forever by design
		for {
			ch <- 1
		}
	}()
}
`,
	"pkg/locks.go": `package pkg

import "sync"

type pair struct {
	a, b sync.Mutex
}

func forward(p *pair) {
	p.a.Lock()
	p.b.Lock()
	p.b.Unlock()
	p.a.Unlock()
}

func backward(p *pair) {
	p.b.Lock()
	p.a.Lock()
	p.a.Unlock()
	p.b.Unlock()
}

func alsoForward(p *pair) {
	p.a.Lock()
	p.b.Lock()
	p.b.Unlock()
	p.a.Unlock()
}
`,
	"pkg/timers.go": `package pkg

import "time"

type fakeClock interface {
	After(d time.Duration) <-chan time.Time
}

func waitLoop(ch chan int) {
	for {
		t := time.After(time.Second)
		select {
		case <-t:
		case <-ch:
			return
		}
	}
}

func tickLoop(n int) {
	for i := 0; i < n; i++ {
		tk := time.NewTicker(time.Second)
		<-tk.C
	}
}

func clockLoop(clk fakeClock, ch chan int) {
	for {
		select {
		case <-clk.After(time.Second):
		case <-ch:
			return
		}
	}
}

func timerStopped(n int) {
	for i := 0; i < n; i++ {
		tm := time.NewTimer(time.Second)
		<-tm.C
		tm.Stop()
	}
}

func hoisted(ch chan int) {
	tk := time.NewTicker(time.Second)
	defer tk.Stop()
	for {
		select {
		case <-tk.C:
		case <-ch:
			return
		}
	}
}

func allowedWait(done chan struct{}) {
	for {
		//podlint:ignore GO008 fixture: deliberately per-iteration
		t := time.After(time.Second)
		select {
		case <-t:
		case <-done:
			return
		}
	}
}
`,
	"pkg/hot.go": `package pkg

import (
	"fmt"
	"sync"
)

//podlint:hotpath budget=3
func hotLoop(items []string, mu *sync.Mutex) []func() string {
	var out []func() string
	for _, it := range items {
		mu.Lock()
		defer mu.Unlock()
		out = append(out, func() string { return it })
	}
	return out
}

//podlint:hotpath
func hotAllocs(k string) string {
	m := map[string]int{}
	u := make(map[string]int)
	s := make([]string, 0)
	_ = m
	_ = u
	_ = s
	return fmt.Sprintf("key=%s", k)
}

func coldAllocs(k string) string {
	m := map[string]int{}
	_ = m
	return fmt.Sprintf("key=%s", k)
}

//podlint:hotpath budget=0
func hotSuppressed(k string) string {
	//podlint:ignore GO010 fixture: interned downstream
	return fmt.Sprintf("key=%s", k)
}

//podlint:hotpath
func hotScoped(items []string, mu *sync.Mutex) {
	for range items {
		func() {
			mu.Lock()
			defer mu.Unlock()
		}()
	}
}
`,
}

// escapeTree annotates three functions for the GO011 budget comparison.
var escapeTree = map[string]string{
	"pkg/esc.go": `package pkg

//podlint:hotpath budget=1
func build() (*int, *int) {
	a := new(int)
	b := new(int)
	return a, b
}

//podlint:hotpath
func unbudgeted() *int { return new(int) }

//podlint:hotpath budget=0
//podlint:ignore GO011 fixture: accepted overage
func tolerated() *int { return new(int) }
`,
}

// lockOrderConsistentTree takes the same two locks in one order everywhere.
var lockOrderConsistentTree = map[string]string{
	"pkg/locks.go": `package pkg

import "sync"

type pair struct {
	a, b sync.Mutex
}

func one(p *pair) {
	p.a.Lock()
	p.b.Lock()
	p.b.Unlock()
	p.a.Unlock()
}

func two(p *pair) {
	p.a.Lock()
	p.b.Lock()
	p.b.Unlock()
	p.a.Unlock()
}
`,
}

// lockOrderSuppressedTree orders two locks both ways, with both inner
// acquisitions suppressed.
var lockOrderSuppressedTree = map[string]string{
	"pkg/locks.go": `package pkg

import "sync"

type pair struct {
	a, b sync.Mutex
}

func one(p *pair) {
	p.a.Lock()
	//podlint:ignore GO007 fixture: order enforced by construction
	p.b.Lock()
	p.b.Unlock()
	p.a.Unlock()
}

func two(p *pair) {
	p.b.Lock()
	//podlint:ignore GO007 fixture: order enforced by construction
	p.a.Lock()
	p.a.Unlock()
	p.b.Unlock()
}
`,
}

// manifestBareTree holds a manifest hot path without its annotation;
// manifestAnnotatedTree is the same file annotated.
var (
	manifestBareTree = map[string]string{"internal/pipeline/proc.go": `package pipeline

type Processor struct{}

func (p *Processor) Process() {}
`}
	manifestAnnotatedTree = map[string]string{"internal/pipeline/proc.go": `package pipeline

type Processor struct{}

//podlint:hotpath budget=0
func (p *Processor) Process() {}
`}
)

// hotpathFixtureFindings seeds one or more violations for each of the
// source-level concurrency and hot-path rules (GO006–GO010) and returns
// the LintSource findings over the fixture tree.
func hotpathFixtureFindings(t *testing.T) []Finding {
	t.Helper()
	root := writeTree(t, hotpathTree)
	fs, err := LintSource(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// escapeFixture parses an annotated fixture and applies hand-built escape
// sites, exercising the GO011 budget comparison without the toolchain.
func escapeFixture(t *testing.T) ([]HotFuncInfo, []Finding) {
	t.Helper()
	root := writeTree(t, escapeTree)
	files, err := loadSources(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	hot := hotFuncsOf(files)
	if len(hot) != 3 {
		t.Fatalf("want 3 annotated hot functions, got %d", len(hot))
	}
	sites := []escapeSite{
		{file: "pkg/esc.go", line: 5, msg: "new(int) escapes to heap"},
		{file: "pkg/esc.go", line: 6, msg: "new(int) escapes to heap"},
		{file: "pkg/esc.go", line: 11, msg: "new(int) escapes to heap"},
		{file: "pkg/esc.go", line: 15, msg: "new(int) escapes to heap"},
	}
	return applyEscapes(hot, sites)
}

// ratchetFixtureFindings seeds one violation for every RT rule through the
// comparator: a ns/op regression past tolerance, an allocs/op regression,
// and a benchmark with no committed baseline.
func ratchetFixtureFindings() []Finding {
	base := RatchetBaseline{
		MaxNsRegressionPct: 10,
		Benchmarks: map[string]BenchBaseline{
			"BenchmarkSlow":   {NsPerOp: 1000, BytesPerOp: 100, AllocsPerOp: 10},
			"BenchmarkAllocs": {NsPerOp: 1000, BytesPerOp: 100, AllocsPerOp: 10},
		},
	}
	results := []BenchResult{
		{Name: "BenchmarkSlow", NsPerOp: 1200, BytesPerOp: 100, AllocsPerOp: 10, Runs: 1},
		{Name: "BenchmarkAllocs", NsPerOp: 1000, BytesPerOp: 100, AllocsPerOp: 11, Runs: 1},
		{Name: "BenchmarkNew", NsPerOp: 5, BytesPerOp: -1, AllocsPerOp: -1, Runs: 1},
	}
	return CompareRatchet(results, base)
}

// --- GO006–GO010 ---------------------------------------------------------

func TestLintConcurrencyAndHotPathRules(t *testing.T) {
	fs := hotpathFixtureFindings(t)

	// GO006: only the exit-less channel loop in a goroutine; the select
	// with a return case and the suppressed loop are clean.
	go006 := findingsFor(fs, RuleSrcGoroutineLeak)
	if len(go006) != 1 || go006[0].Pos != "pkg/leak.go:5" {
		t.Errorf("want 1 GO006 at pkg/leak.go:5, got %s", render(go006))
	}

	// GO007: forward/backward order the same two locks oppositely — one
	// finding per distinct lock pair, however many paths contribute edges.
	go007 := findingsFor(fs, RuleSrcLockOrder)
	if len(go007) != 1 || !strings.Contains(go007[0].Message, "ABBA") {
		t.Errorf("want 1 GO007 cycle finding, got %s", render(go007))
	}

	// GO008: time.After per iteration, NewTicker with no Stop in the loop
	// body, and the injected-clock receive form; the Stop()ed timer, the
	// hoisted ticker and the suppressed loop are clean.
	go008 := findingsFor(fs, RuleSrcTimerInLoop)
	if len(go008) != 3 {
		t.Errorf("want 3 GO008 findings, got %s", render(go008))
	}
	for _, f := range go008 {
		if strings.Contains(f.Message, "NewTimer") {
			t.Errorf("Stop()ed NewTimer must not be flagged: %s", f)
		}
	}

	// GO009: the defer inside hotLoop's range; the literal-scoped defer in
	// hotScoped is its own defer scope and stays clean.
	go009 := findingsFor(fs, RuleSrcDeferInHotLoop)
	if len(go009) != 1 || !strings.Contains(go009[0].Message, "hotLoop") {
		t.Errorf("want 1 GO009 in hotLoop, got %s", render(go009))
	}

	// GO010: the loop-variable closure in hotLoop plus the four
	// allocation-prone constructs in hotAllocs; the identical constructs in
	// unannotated coldAllocs and the suppressed Sprintf don't fire.
	go010 := findingsFor(fs, RuleSrcHotAlloc)
	if len(go010) != 5 {
		t.Errorf("want 5 GO010 findings, got %s", render(go010))
	}
	for _, f := range go010 {
		if strings.Contains(f.Message, "coldAllocs") || strings.Contains(f.Message, "hotSuppressed") {
			t.Errorf("unannotated or suppressed function flagged: %s", f)
		}
	}
}

func TestLintLockOrderConsistentIsClean(t *testing.T) {
	root := writeTree(t, lockOrderConsistentTree)
	fs, err := LintSource(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := findingsFor(fs, RuleSrcLockOrder); len(got) != 0 {
		t.Errorf("consistent lock order flagged: %s", render(got))
	}
}

func TestLintLockOrderSuppression(t *testing.T) {
	root := writeTree(t, lockOrderSuppressedTree)
	fs, err := LintSource(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := findingsFor(fs, RuleSrcLockOrder); len(got) != 0 {
		t.Errorf("suppressed lock-order cycle still reported: %s", render(got))
	}
}

func TestLintHotManifestAnnotationRequired(t *testing.T) {
	// A manifest function present in the tree without its annotation is a
	// GO010 finding; annotating it clears the finding.
	root := writeTree(t, manifestBareTree)
	fs, err := LintSource(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := findingsFor(fs, RuleSrcHotAlloc)
	if len(got) != 1 || !strings.Contains(got[0].Message, "(*Processor).Process") {
		t.Fatalf("want 1 manifest GO010 for (*Processor).Process, got %s", render(got))
	}

	root = writeTree(t, manifestAnnotatedTree)
	fs, err = LintSource(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := findingsFor(fs, RuleSrcHotAlloc); len(got) != 0 {
		t.Errorf("annotated manifest function still flagged: %s", render(got))
	}
}

func TestParseHotBudget(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int
	}{
		{"", noBudget},
		{" budget=0", 0},
		{" budget=12", 12},
		{" budget=-3", badBudget},
		{" budget=lots", badBudget},
		{"budget=7", 7},
		{" nonsense", badBudget},
	} {
		if got := parseHotBudget(tc.in); got != tc.want {
			t.Errorf("parseHotBudget(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestMalformedHotBudgetReported: an annotation whose tail is not empty or
// budget=N (N >= 0) is a GO010 finding at the annotation line, and its
// function still binds as a hot path with no budget.
func TestMalformedHotBudgetReported(t *testing.T) {
	root := writeTree(t, map[string]string{"pkg/bad.go": `package pkg

//podlint:hotpath budget=lots
func a() {}

//podlint:hotpath budget=-3
func b() {}

//podlint:hotpath
func c() {}

//podlint:hotpath budget=2
func d() {}
`})
	fs, err := LintSource(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := findingsFor(fs, RuleSrcHotAlloc)
	if len(got) != 2 || got[0].Pos != "pkg/bad.go:3" || got[1].Pos != "pkg/bad.go:6" {
		t.Fatalf("want GO010 at pkg/bad.go:3 and :6, got %s", render(fs))
	}
	files, err := loadSources(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	var budgets []int
	for _, h := range hotFuncsOf(files) {
		budgets = append(budgets, h.budget)
	}
	if fmt.Sprint(budgets) != fmt.Sprint([]int{noBudget, noBudget, noBudget, 2}) {
		t.Errorf("hot budgets = %v, want [-1 -1 -1 2]", budgets)
	}
}

// TestTimerInLoopReportedOnce: a per-iteration timer is one GO008 finding
// however deep its loop nest. A receive from time.After carries only the
// time.After message; NewTicker looks for its Stop in the innermost loop.
func TestTimerInLoopReportedOnce(t *testing.T) {
	for depth := 1; depth <= 3; depth++ {
		for _, tc := range []struct {
			name, stmt, want string
		}{
			{"time.After", "select {\ncase <-time.After(time.Second):\ncase <-ch:\nreturn\n}", "time.After in a loop"},
			{"clk.After", "select {\ncase <-clk.After(time.Second):\ncase <-ch:\nreturn\n}", "<-clk.After(...) in a loop"},
			{"NewTicker", "tk = time.NewTicker(time.Second)\n<-tk.C", "time.NewTicker in a loop with no Stop"},
		} {
			body := strings.Repeat("for {\n", depth) + tc.stmt + "\n" + strings.Repeat("}\n", depth)
			if tc.name == "NewTicker" && depth > 1 {
				// A Stop in an outer loop body does not stop the inner ticker.
				body = "for {\n" + strings.Repeat("for {\n", depth-1) + tc.stmt + "\n" +
					strings.Repeat("}\n", depth-1) + "tk.Stop()\n}\n"
			}
			src := "package pkg\n\nimport \"time\"\n\n" +
				"type fakeClock interface{ After(time.Duration) <-chan time.Time }\n\n" +
				"func wait(clk fakeClock, ch chan int, tk *time.Ticker) {\n" + body + "}\n"
			root := writeTree(t, map[string]string{"pkg/timers.go": src})
			fs, err := LintSource(root, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := findingsFor(fs, RuleSrcTimerInLoop)
			if len(got) != 1 || !strings.Contains(got[0].Message, tc.want) {
				t.Errorf("%s at depth %d: want one GO008 %q, got %s", tc.name, depth, tc.want, render(got))
			}
		}
	}
}

// --- GO011 ----------------------------------------------------------------

func TestApplyEscapesBudget(t *testing.T) {
	infos, fs := escapeFixture(t)

	// Only build() is over an enforced budget: unbudgeted has no budget to
	// exceed and tolerated carries a justified suppression.
	go011 := findingsFor(fs, RuleSrcEscapeBudget)
	if len(go011) != 1 || !strings.Contains(go011[0].Message, "build") {
		t.Fatalf("want 1 GO011 for build, got %s", render(fs))
	}
	if !strings.Contains(go011[0].Message, "2 heap-escape sites") || !strings.Contains(go011[0].Message, "budget=1") {
		t.Errorf("GO011 message should carry measured vs declared counts: %s", go011[0])
	}

	byName := map[string]HotFuncInfo{}
	for _, info := range infos {
		byName[info.Function] = info
	}
	if got := byName["build"].Escapes; got != 2 {
		t.Errorf("build escapes = %d, want 2", got)
	}
	if got := byName["unbudgeted"]; got.Escapes != 1 || got.Budget != noBudget {
		t.Errorf("unbudgeted = %+v, want 1 escape and no budget", got)
	}
	if got := byName["tolerated"].Escapes; got != 1 {
		t.Errorf("tolerated escapes = %d, want 1", got)
	}
}

func TestParseEscapeDiagnostics(t *testing.T) {
	out := strings.Join([]string{
		"# poddiagnosis/internal/pipeline",
		"internal/pipeline/pipeline.go:100:2: can inline (*Processor).count",
		"internal/pipeline/pipeline.go:120:14: leaking param: e",
		"internal/pipeline/pipeline.go:130:20: out.Fields escapes to heap",
		"internal/pipeline/pipeline.go:131:5: moved to heap: buf",
		`internal/pipeline/pipeline.go:140:9: "obs: counter cannot decrease" escapes to heap`,
		`internal/pipeline/pipeline.go:141:9: "prefix " + name escapes to heap`,
		"not a diagnostic line",
	}, "\n")
	sites := parseEscapeDiagnostics(out)
	if len(sites) != 3 {
		t.Fatalf("want 3 sites (escape, move, concat), got %+v", sites)
	}
	for _, s := range sites {
		if s.line == 140 {
			t.Errorf("bare constant-string escape must be filtered: %+v", s)
		}
	}
	if sites[2].line != 141 {
		t.Errorf("string concatenation is a real allocation, want line 141 kept: %+v", sites)
	}
}

func TestConstStringEscape(t *testing.T) {
	for _, tc := range []struct {
		msg  string
		want bool
	}{
		{`"obs: counter cannot decrease" escapes to heap`, true},
		{`"a" + name escapes to heap`, false},
		{`out.Fields escapes to heap`, false},
		{`moved to heap: buf`, false},
	} {
		if got := constStringEscape(tc.msg); got != tc.want {
			t.Errorf("constStringEscape(%q) = %v, want %v", tc.msg, got, tc.want)
		}
	}
}

// TestRepositoryEscapeBudgets pins the acceptance criterion: every
// annotated hot path in this repository stays within its declared
// heap-escape budget under the real compiler's escape analysis.
func TestRepositoryEscapeBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping compiler-assisted pass in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skip("module root not found")
	}
	infos, fs, err := EscapeAnalysis(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) < len(hotPathManifest) {
		t.Errorf("escape analysis saw %d hot functions, manifest has %d", len(infos), len(hotPathManifest))
	}
	if n := CountErrors(fs); n != 0 {
		t.Fatalf("repository has %d escape-budget violation(s):\n%s", n, render(fs))
	}
}

// --- ratchet --------------------------------------------------------------

func TestParseBenchOutput(t *testing.T) {
	out := strings.Join([]string{
		"goos: linux",
		"BenchmarkLogPipeline-8   100   450000 ns/op   26000 B/op   140 allocs/op",
		"BenchmarkLogPipeline-8   100   440000 ns/op   25042 B/op   135 allocs/op",
		"BenchmarkLogPipeline-8   100   470000 ns/op   25500 B/op   138 allocs/op",
		"BenchmarkDiagnosisTime-8   100   68000000 ns/op",
		"PASS",
		"ok  	poddiagnosis	1.2s",
	}, "\n")
	results, err := ParseBenchOutput(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("want 2 benchmarks, got %+v", results)
	}
	lp := results[0]
	if lp.Name != "BenchmarkLogPipeline" {
		t.Errorf("GOMAXPROCS suffix not stripped: %q", lp.Name)
	}
	// Best-of-count folding: minimum per metric.
	if lp.Runs != 3 || lp.NsPerOp != 440000 || lp.AllocsPerOp != 135 || lp.BytesPerOp != 25042 {
		t.Errorf("best-of fold wrong: %+v", lp)
	}
	dt := results[1]
	if dt.AllocsPerOp != -1 || dt.BytesPerOp != -1 {
		t.Errorf("missing -benchmem columns must read as -1: %+v", dt)
	}
}

func TestCompareRatchetRules(t *testing.T) {
	fs := ratchetFixtureFindings()
	rt1 := findingsFor(fs, RuleRatchetNs)
	if len(rt1) != 1 || rt1[0].Pos != "BenchmarkSlow" {
		t.Errorf("want 1 RT001 for BenchmarkSlow, got %s", render(rt1))
	}
	rt2 := findingsFor(fs, RuleRatchetAllocs)
	if len(rt2) != 1 || rt2[0].Pos != "BenchmarkAllocs" {
		t.Errorf("want 1 RT002 for BenchmarkAllocs, got %s", render(rt2))
	}
	rt3 := findingsFor(fs, RuleRatchetBaseline)
	if len(rt3) != 1 || rt3[0].Pos != "BenchmarkNew" || rt3[0].Severity != SevWarning {
		t.Errorf("want 1 RT003 warning for BenchmarkNew, got %s", render(rt3))
	}
	// RT003 is advisory; the two regressions are the errors.
	if n := CountErrors(fs); n != 2 {
		t.Errorf("CountErrors = %d, want 2", n)
	}
}

func TestCompareRatchetWithinToleranceIsClean(t *testing.T) {
	base := RatchetBaseline{
		MaxNsRegressionPct: 10,
		Benchmarks: map[string]BenchBaseline{
			"BenchmarkSteady": {NsPerOp: 1000, BytesPerOp: 100, AllocsPerOp: 10},
		},
	}
	results := []BenchResult{
		// +9% ns is inside the tolerance; fewer allocs is an improvement.
		{Name: "BenchmarkSteady", NsPerOp: 1090, BytesPerOp: 90, AllocsPerOp: 9, Runs: 1},
	}
	if fs := CompareRatchet(results, base); len(fs) != 0 {
		t.Errorf("within-tolerance run flagged: %s", render(fs))
	}
}

// TestRatchetAgainstCommittedBaselines pins the acceptance criterion with
// the repository's real BENCH_*.json files: a run measuring exactly the
// committed numbers passes, and a synthetic allocs/op regression fails.
func TestRatchetAgainstCommittedBaselines(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{
		filepath.Join(root, "BENCH_ingest.json"),
		filepath.Join(root, "BENCH_diagnosis.json"),
	}
	for _, p := range paths {
		if _, err := os.Stat(p); err != nil {
			t.Skipf("baseline %s not found", p)
		}
	}
	base, err := LoadBaselines(paths)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"BenchmarkLogPipeline", "BenchmarkDiagnosisTime"} {
		if _, ok := base.Benchmarks[name]; !ok {
			t.Fatalf("committed baselines missing %s", name)
		}
	}

	// A run reproducing the committed numbers exactly is clean.
	var atBaseline []BenchResult
	for name, b := range base.Benchmarks {
		atBaseline = append(atBaseline, BenchResult{
			Name: name, NsPerOp: b.NsPerOp, BytesPerOp: b.BytesPerOp, AllocsPerOp: b.AllocsPerOp, Runs: 1,
		})
	}
	if fs := CompareRatchet(atBaseline, base); CountErrors(fs) != 0 {
		t.Fatalf("baseline-equal run fails its own ratchet:\n%s", render(fs))
	}

	// A synthetic allocation regression on the pipeline benchmark fails.
	regressed := append([]BenchResult(nil), atBaseline...)
	for i := range regressed {
		if regressed[i].Name == "BenchmarkLogPipeline" {
			regressed[i].AllocsPerOp += 50
		}
	}
	fs := CompareRatchet(regressed, base)
	if !hasRule(fs, RuleRatchetAllocs) || CountErrors(fs) == 0 {
		t.Fatalf("synthetic allocs/op regression not caught:\n%s", render(fs))
	}
}

func TestLoadBaselinesMergeAndDuplicates(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.json", `{"ratchet": {"max_ns_regression_pct": 5,
		"benchmarks": {"BenchmarkA": {"ns_per_op": 10, "bytes_per_op": 1, "allocs_per_op": 1}}}}`)
	b := write("b.json", `{"ratchet":
		{"benchmarks": {"BenchmarkB": {"ns_per_op": 20, "bytes_per_op": 2, "allocs_per_op": 2}}}}`)
	noRatchet := write("c.json", `{"benchmark": "unrelated"}`)

	base, err := LoadBaselines([]string{a, b, noRatchet})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Benchmarks) != 2 {
		t.Errorf("merged benchmarks = %+v, want 2 entries", base.Benchmarks)
	}
	if base.MaxNsRegressionPct != 5 {
		t.Errorf("strictest declared tolerance must win, got %v", base.MaxNsRegressionPct)
	}

	dup := write("dup.json", `{"ratchet":
		{"benchmarks": {"BenchmarkA": {"ns_per_op": 11, "bytes_per_op": 1, "allocs_per_op": 1}}}}`)
	if _, err := LoadBaselines([]string{a, dup}); err == nil {
		t.Error("duplicate baseline across files must be an error")
	}
}
