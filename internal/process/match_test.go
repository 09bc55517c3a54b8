package process

import (
	"regexp"
	"strings"
	"testing"
)

// refMatch is classification as it was before the matcher was compiled:
// every pattern of every node (in id order) is run, the longest matching
// pattern source wins and ties stay with the first seen; error patterns
// are a second plain loop.
func refMatch(m *Model, line string) (*Node, bool) {
	var best *Node
	bestLen := -1
	for _, n := range m.Nodes() {
		if n.Kind != KindActivity {
			continue
		}
		for _, p := range n.Patterns {
			if regexp.MustCompile(p).MatchString(line) && len(p) > bestLen {
				best, bestLen = n, len(p)
			}
		}
	}
	isError := false
	for _, p := range m.ErrorPatterns() {
		if regexp.MustCompile(p).MatchString(line) {
			isError = true
		}
	}
	return best, isError
}

// tieModel has patterns of equal length on different nodes that match the
// same line, a case-folded pattern whose literal holds letters with
// non-ASCII case variants (k: K, s: ſ), and an alternation no literal
// guards.
func tieModel(t testing.TB) *Model {
	b := NewBuilder("ties", "Tie-length patterns")
	b.Start("start")
	b.End("end")
	b.Activity("b-second", WithPatterns(`step \d+ done`))
	b.Activity("a-first", WithPatterns(`step \d+ \w+ne`, `(?i)task \S+ (ok|fine)`))
	b.Activity("c-alt", WithPatterns(`^(alpha|beta) phase$`))
	b.Chain("start", "a-first", "b-second", "c-alt", "end")
	b.Errors(`(?i)\bbroken sink\b`, `(?i)\bfail(ed|ure)\b`, `panic|abort`)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// scanModel exercises every shape of scan — leading runs, a literal inside
// its run's class placed by the next run or searched for at the end, runs
// that touch, non-ASCII literals and classes — beside patterns that fall
// outside the subset and classify through regexp: an alternation under a
// repeat, a star run, an anchor, case folding, a literal inside its run's
// class followed by a run that could consume it too, runs that share
// bytes, and a class holding some non-ASCII runes but not all.
func scanModel(t testing.TB) *Model {
	b := NewBuilder("scans", "Scan shapes")
	b.Start("start")
	b.End("end")
	b.Activity("lead", WithPatterns(`\S+\s+joined\s+\S+,\s+done`, `\d+\s+\S+ left`))
	b.Activity("search", WithPatterns(`size \d+ at \S+,`, `id=\S+\.\s+ok`, `xax\d+`))
	b.Activity("touch", WithPatterns(`[a-c]+\d+[^0-9]+é\S+`, `ßtep \S+é \d+ x*`))
	b.Activity("fallback", WithPatterns(`(a|b)+c`, `\S*x`, `^Start`, `(?i)halt \S+`, `key=\S+\.\S+ ok`,
		`w\S+\S+`, `v\d+\S+`, `[a-zé]+q`))
	b.Chain("start", "lead", "search", "touch", "fallback", "end")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func matchModels(t testing.TB) []*Model {
	return []*Model{RollingUpgradeModel(), BlueGreenModel(), SpotRebalanceModel(), ScaleOutModel(), tieModel(t), scanModel(t)}
}

// matchCorpus is real lines of every model plus the cases a literal guard
// could get wrong.
func matchCorpus() []string {
	lines := []string{
		"Starting rolling upgrade of group pm--asg to image ami-750c9e4f",
		"Created launch configuration pm-lc-v2 with image ami-750c9e4f",
		"Updated group pm--asg to launch configuration pm-lc-v2",
		"Sorted 4 instances for replacement",
		"Removed and deregistered instance i-7df34041 from ELB pm-elb",
		"Terminating old instance i-7df34041",
		"Waiting for group pm--asg to start a new instance",
		"Instance pm on i-7df34041 is ready for use. 4 of 4 instance relaunches done.",
		"Rolling upgrade task completed",
		"Status: 2 of 4 instances replaced",
		"Starting scale-out of group pm--asg from 3 to 6 instances",
		"Requested desired capacity 6 for group pm--asg",
		"Waiting for group pm--asg to reach 6 in-service instances",
		"Instance i-1 joined group pm--asg. 4 of 6 instances in service.",
		"Scale-out of group pm--asg completed",
		"Scale-out status: 4 of 6 instances in service",
		"Starting blue/green deploy of group g to version v2",
		"Created green launch configuration g-lc-v2",
		"Created green group g-green behind g-elb",
		"Instance i-1 joined green group g. 1 of 2 instances in service.",
		"Shifted load balancer g-elb to green group g-green. 2 of 2 instances registered.",
		"Retired blue group g-blue",
		"Blue/green deploy of group g completed",
		"Blue/green status: 1 of 2 green instances in service",
		"Starting spot rebalance watch of group g with 4 instances",
		"Waiting for group g to replace 1 interrupted instance",
		"Waiting for group g to replace 2 interrupted instances",
		"Replacement i-2 joined group g. 2 of 2 instances in service.",
		"Capacity of group g restored to 4 instances",
		"Spot rebalance of group g completed",
		"Spot rebalance status: 3 of 4 instances in service",
		// Tie-length patterns: both match, the lower node id wins.
		"step 12 done",
		"step 12 gone",
		"task t-1 OK", "TASK t-1 fine", "tasK t-1 ok", "taſk t-1 ok",
		"alpha phase", "beta phase", "gamma phase", "alpha phase two",
		// Known-error words: mixed case, inside other words, across the
		// optional parts, with non-ASCII case variants.
		"ERROR: something broke", "Error here", "eRrOr", "terrors of the night", "error_code=3",
		"com.netflix.asgard.Task Exception in step", "EXCEPTIONAL service",
		"launch failed with code 42", "Launch FAILURE", "FAIL", "failing over", "it Failed.",
		"request timed out after 30s", "operation timeout exceeded", "TimedOut", "time out", "timeout", "timeouts",
		"BROKEN SINK", "broKen ſink", "broken  sink", "panic: boom", "aborted",
		// An activity line that is also an error line.
		"Terminating old instance i-1 failed",
		"Instance pm on i-1 is ready for use. 1 of 4 instance relaunches done. (error)",
		// Only the guard literal occurs, not the pattern.
		"Instance ", " is ready for use. ", "Created launch configuration ", "Sorted instances for replacement",
		" instance relaunches done.", "Waiting for group ", "Rolling upgrade task", "Status: ",
		"", " ", "\xff\xfe error \xff", "error\xff", "café error", "érror",
		strings.Repeat("x", 600) + " error",
		strings.Repeat("y", 600) + " Rolling upgrade task completed",
		strings.Repeat("z", 511) + "E",
		// Runs that a literal they could consume must end inside.
		"group a.b. 3 of 4",
		"Instance x joined group a.b. 3 of 4 instances in service.",
		"Instance x joined group g.. 1 of 2 instances in service.",
		"Instance x joined group g. 1 of 2 instances in service.",
		"Instance x joined group . 1 of 2 instances in service.",
		"Instance x joined group .. 1 of 2 instances in service.",
		"Instance x joined green group g.x. 1 of 2 instances in service.",
		"Instance x joined group g.\xff. 1 of 2 instances in service.",
		"Instance \xff joined group é. 1 of 2 instances in service.",
		"Instance  joined group g. 1 of 2 instances in service.",
		"Instance x joined group g. 1 of 2 instances in service.Instance y joined group h. 3 of 4 instances in service.",
		"Status: 1 of 4 instances replaced; Status: 2 of 4 instances replaced",
		"Waiting for group g to replace 1 interrupted instancesss",
		// scanModel's shapes.
		"a joined b, done", "a  joined\tb,\ndone", "joined b, done", " joined b, done", "a joined b,, done",
		"a joined b,x, done", "é joined \xff, done", "a joined , done", "3 x left", "3x left", "é3  y left", "3  left",
		"size 4 at a,", "size 4 at ,", "size 4 at ,,", "size 4 at a,b", "size 4 at a b,", "size 4 at é,", "size x at a,",
		"id=a.b ok", "id=.b ok", "id=a. ok", "id=a.. ok", "id=a.b. \tok", "id=a.ok", "id=a.  ok",
		"key=a.b ok", "key=.b ok", "key=a. ok", "key=a.b.c ok", "key=a..b ok", "key=a.b  ok",
		"ab12xé1", "ab12xé", "ab12é1", "ab12 é\xff", "d12xé1", "ßtep x.é 3 ", "ßtep xé 3", "ßtep é 3", "ßtep xé é3",
		"abac", "bbc", "c", "xx", "x", "Start here", " Start", "HALT now", "halt", "HaLt ſ",
		"xaxax1", "xax", "xaxx1", "wé", "wab", "wa", "v12", "v1a", "v1", "éq", "aq", "\xffq", "ÿq",
	}
	// Every line again with its case flipped and with a character dropped.
	for _, l := range append([]string(nil), lines...) {
		if l == "" {
			continue
		}
		lines = append(lines, strings.ToUpper(l), strings.ToLower(l), l[1:], l[:len(l)-1], l[:len(l)/2]+l[len(l)/2+1:])
	}
	return lines
}

func checkMatch(t *testing.T, m *Model, line string) {
	t.Helper()
	wantNode, wantErr := refMatch(m, line)
	// Twice: the second answer comes from the one-line memo.
	for pass := 0; pass < 2; pass++ {
		node, isError := m.Match(line)
		if node != wantNode || isError != wantErr {
			t.Fatalf("%s pass %d: Match(%q) = %v, %v; reference %v, %v", m.ID(), pass, line, node, isError, wantNode, wantErr)
		}
	}
	if n, ok := m.Classify(line); n != wantNode || ok != (wantNode != nil) {
		t.Fatalf("%s: Classify(%q) = %v, %v; reference %v", m.ID(), line, n, ok, wantNode)
	}
	if got := m.IsErrorLine(line); got != wantErr {
		t.Fatalf("%s: IsErrorLine(%q) = %v; reference %v", m.ID(), line, got, wantErr)
	}
}

func TestMatchEqualsReference(t *testing.T) {
	for _, m := range matchModels(t) {
		for _, line := range matchCorpus() {
			checkMatch(t, m, line)
		}
	}
}

func FuzzMatchEqualsReference(f *testing.F) {
	for _, line := range matchCorpus() {
		f.Add(line)
	}
	models := matchModels(f)
	f.Fuzz(func(t *testing.T, line string) {
		for _, m := range models {
			checkMatch(t, m, line)
		}
	})
}

// TestShippedPatternsCompile pins that no shipped pattern silently falls
// back to regexp, and that patterns outside the subset still do.
func TestShippedPatternsCompile(t *testing.T) {
	total := 0
	for _, m := range []*Model{RollingUpgradeModel(), BlueGreenModel(), ScaleOutModel(), SpotRebalanceModel()} {
		for _, n := range m.Activities() {
			for _, p := range n.Patterns {
				total++
				if !Scannable(p) {
					t.Errorf("%s: pattern %q falls back to regexp", m.ID(), p)
				}
			}
		}
		for _, tpl := range m.matcher.activities {
			if tpl.scan == nil {
				t.Errorf("%s: template %q has no scan", m.ID(), tpl.re)
			}
		}
	}
	if total != 30 {
		t.Errorf("the shipped models have %d activity patterns, want 30", total)
	}

	m := scanModel(t)
	for _, tpl := range m.matcher.activities {
		fallback := tpl.node.ID == "fallback"
		if (tpl.scan == nil) != fallback || Scannable(tpl.re.String()) == fallback {
			t.Errorf("pattern %q: scan %v, want a scan: %v", tpl.re, tpl.scan != nil, !fallback)
		}
	}
	for _, line := range []string{"abac", "bbc", "xx", "x", "Start here", " Start", "HALT now", "a joined b, done", "wé", "v12", "\xffq"} {
		checkMatch(t, m, line)
	}
}

// TestTieGoesToLowerNodeID pins the rule the compiled order encodes.
func TestTieGoesToLowerNodeID(t *testing.T) {
	m := tieModel(t)
	if n, _ := m.Match("step 12 done"); n == nil || n.ID != "a-first" {
		t.Fatalf("tie classified as %v, want a-first", n)
	}
}

func TestRequiredLiteral(t *testing.T) {
	cases := []struct {
		pattern, lit string
		fold         bool
	}{
		{`Instance \S+ on \S+ is ready for use\. \d+ of \d+ instance relaunches done\.`, " instance relaunches done.", false},
		{`Created launch configuration \S+ with image \S+`, "Created launch configuration ", false},
		{`Waiting for group \S+ to replace \d+ interrupted instances?`, " interrupted instance", false},
		{`Rolling upgrade task completed`, "Rolling upgrade task completed", false},
		{`(?i)\berror\b`, "ERROR", true},
		{`(?i)\bfail(ed|ure)\b`, "FAIL", true},
		{`(?i)\btimed? ?out\b`, "TIME", true},
		{`(x+yz){2,}`, "yz", false},
		{`panic|abort`, "", false},
		{`(abc)?def*`, "de", false},
		{`a*`, "", false},
	}
	for _, tc := range cases {
		lit, fold := requiredLiteral(tc.pattern)
		if lit != tc.lit || fold != tc.fold {
			t.Errorf("requiredLiteral(%q) = %q, %v; want %q, %v", tc.pattern, lit, fold, tc.lit, tc.fold)
		}
	}
}

// TestMatchDoesNotAllocate: classifying a line is literal searches and
// byte compares on the stack.
func TestMatchDoesNotAllocate(t *testing.T) {
	m := RollingUpgradeModel()
	lines := matchCorpus()[:10]
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		m.Match(lines[i%len(lines)])
		i++
	}); n != 0 {
		t.Errorf("Match allocates %v times per line", n)
	}
}
