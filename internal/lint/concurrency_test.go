package lint

import (
	"strings"
	"testing"
)

// --- fixtures shared with TestEveryRuleHasCoverage -----------------------

// concurrencyTree seeds the GO006–GO008 violations beside their clean
// and suppressed counterparts.
var concurrencyTree = map[string]string{
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

// concurrencyFixtureFindings seeds one or more violations for each of
// the source-level concurrency rules (GO006–GO008) and returns the
// LintSource findings over the fixture tree.
func concurrencyFixtureFindings(t *testing.T) []Finding {
	t.Helper()
	root := writeTree(t, concurrencyTree)
	fs, err := LintSource(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// --- GO006–GO008 ---------------------------------------------------------

func TestLintConcurrencyRules(t *testing.T) {
	fs := concurrencyFixtureFindings(t)

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
