package conformance

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"regexp/syntax"
	"strings"
	"testing"
	"time"

	"poddiagnosis/internal/process"
)

// sampleLine writes a string the parsed pattern matches: literals as they
// are, one or two members for a repetition, a digit or letter for a class.
func sampleLine(b *strings.Builder, re *syntax.Regexp, rng *rand.Rand) {
	switch re.Op {
	case syntax.OpLiteral:
		b.WriteString(string(re.Rune))
	case syntax.OpCharClass:
		for _, want := range "7x-" {
			for i := 0; i+1 < len(re.Rune); i += 2 {
				if re.Rune[i] <= want && want <= re.Rune[i+1] {
					b.WriteRune(want)
					return
				}
			}
		}
		b.WriteRune(re.Rune[0])
	case syntax.OpAnyChar, syntax.OpAnyCharNotNL:
		b.WriteByte('z')
	case syntax.OpCapture:
		sampleLine(b, re.Sub[0], rng)
	case syntax.OpConcat:
		for _, sub := range re.Sub {
			sampleLine(b, sub, rng)
		}
	case syntax.OpAlternate:
		sampleLine(b, re.Sub[rng.Intn(len(re.Sub))], rng)
	case syntax.OpQuest, syntax.OpStar:
		if rng.Intn(2) == 0 {
			sampleLine(b, re.Sub[0], rng)
		}
	case syntax.OpPlus:
		for n := 1 + rng.Intn(2); n > 0; n-- {
			sampleLine(b, re.Sub[0], rng)
		}
	}
}

// lineFor returns a log line of the activity.
func lineFor(t testing.TB, n *process.Node, rng *rand.Rand) string {
	t.Helper()
	re, err := syntax.Parse(n.Patterns[rng.Intn(len(n.Patterns))], syntax.Perl)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	sampleLine(&b, re.Simplify(), rng)
	return b.String()
}

// randomWalk follows the model's flows from the start event, picking a
// random branch at every split, and returns the activities passed: a
// conforming trace for a model without parallel gateways.
func randomWalk(m *process.Model, rng *rand.Rand) []*process.Node {
	var acts []*process.Node
	cur := m.Start()
	for steps := 0; steps < 200; steps++ {
		out := m.Outgoing(cur)
		if len(out) == 0 {
			break
		}
		cur = out[rng.Intn(len(out))]
		if n := m.Node(cur); n.Kind == process.KindActivity {
			acts = append(acts, n)
		}
	}
	return acts
}

// mutatedTrace renders a random walk as log lines and damages it the ways
// a real stream is damaged: lines lost, swapped, repeated, and foreign
// lines (unknown, known-error, recurring status) mixed in.
func mutatedTrace(t testing.TB, m *process.Model, rng *rand.Rand) []string {
	var recurring []*process.Node
	for _, n := range m.Activities() {
		if n.Recurring {
			recurring = append(recurring, n)
		}
	}
	var lines []string
	for _, n := range randomWalk(m, rng) {
		switch r := rng.Intn(20); {
		case r == 0: // lost
			continue
		case r == 1: // repeated
			l := lineFor(t, n, rng)
			lines = append(lines, l, l)
			continue
		case r == 2:
			lines = append(lines, "totally novel log line from nowhere")
		case r == 3:
			lines = append(lines, "Request Timed Out talking to the cloud")
		case r == 4:
			// A line that names an activity and an error at once.
			lines = append(lines, lineFor(t, n, rng)+" (ERROR: retrying)")
			continue
		case r == 5 && len(recurring) > 0:
			lines = append(lines, lineFor(t, recurring[rng.Intn(len(recurring))], rng))
		}
		lines = append(lines, lineFor(t, n, rng))
	}
	for i := 0; i+1 < len(lines); i++ {
		if rng.Intn(15) == 0 {
			lines[i], lines[i+1] = lines[i+1], lines[i]
		}
	}
	return lines
}

// parallelLoopModel is a parallel block inside a loop, so the
// differential tests also cover AND gateways and multi-token markings.
func parallelLoopModel(t testing.TB) *process.Model {
	b := process.NewBuilder("par-loop", "Parallel block in a loop")
	b.Start("start")
	b.End("end")
	b.Gateway("loop-entry")
	b.Gateway("loop-exit")
	b.ANDGateway("fork")
	b.ANDGateway("join")
	b.Activity("begin", process.WithPatterns(`begin`))
	b.Activity("left", process.WithPatterns(`left \d+`), process.WithMultiLine())
	b.Activity("right", process.WithPatterns(`right`))
	b.Activity("done", process.WithPatterns(`done`))
	b.Chain("start", "begin", "loop-entry", "fork")
	b.Flow("fork", "left").Flow("fork", "right").Flow("left", "join").Flow("right", "join")
	b.Flow("join", "loop-exit").Flow("loop-exit", "loop-entry").Flow("loop-exit", "done").Flow("done", "end")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func differentialModels(t testing.TB) []*process.Model {
	return []*process.Model{
		process.RollingUpgradeModel(),
		process.BlueGreenModel(),
		process.SpotRebalanceModel(),
		process.ScaleOutModel(),
		parallelLoopModel(t),
	}
}

// step is one call both checkers receive.
type step struct {
	instance string
	line     string
	at       time.Time
	lossy    bool // CheckLossy, not Check
	resyncOK bool
}

// driveBoth replays the steps on a compiled Checker and on the reference
// and demands the same Result and the same Export after every line. Now
// and then the compiled checker is swapped for a fresh one restored from
// its own snapshot through JSON — the federation handoff path — which must
// be invisible.
func driveBoth(t *testing.T, m *process.Model, steps []step, rng *rand.Rand) {
	t.Helper()
	got, ref := NewChecker(m), newRefChecker(m)
	for i, s := range steps {
		var have Result
		if s.lossy {
			have = got.CheckLossy(s.instance, s.line, s.at, s.resyncOK)
		} else {
			have = got.Check(s.instance, s.line, s.at)
		}
		want := ref.check(s.instance, s.line, s.at, s.lossy && s.resyncOK)
		if !reflect.DeepEqual(have, want) {
			t.Fatalf("%s step %d %+v:\n got %s\nwant %s", m.ID(), i, s, asJSON(have), asJSON(want))
		}
		if have, want := got.Export(), ref.Export(); !reflect.DeepEqual(have, want) {
			t.Fatalf("%s step %d %+v: exports differ:\n got %s\nwant %s", m.ID(), i, s, asJSON(have), asJSON(want))
		}
		if rng.Intn(10) == 0 {
			var wire []InstanceSnapshot
			if err := json.Unmarshal([]byte(asJSON(ref.Export())), &wire); err != nil {
				t.Fatal(err)
			}
			// The snapshot the reference (the code before the compiled net)
			// exports is what the new checker restores from.
			got = NewChecker(m)
			got.Import(wire)
		}
	}
}

func asJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return err.Error()
	}
	return string(b)
}

func randomSteps(t testing.TB, m *process.Model, rng *rand.Rand) []step {
	at := time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC)
	// Two or three instances, their traces interleaved.
	var traces [][]string
	for n := 2 + rng.Intn(2); n > 0; n-- {
		traces = append(traces, mutatedTrace(t, m, rng))
	}
	var steps []step
	for {
		var live []int
		for i, tr := range traces {
			if len(tr) > 0 {
				live = append(live, i)
			}
		}
		if len(live) == 0 {
			return steps
		}
		i := live[rng.Intn(len(live))]
		at = at.Add(time.Second)
		steps = append(steps, step{
			instance: fmt.Sprintf("task-%d", i),
			line:     traces[i][0],
			at:       at,
			lossy:    rng.Intn(2) == 0,
			resyncOK: rng.Intn(2) == 0,
		})
		traces[i] = traces[i][1:]
	}
}

// TestCompiledReplayMatchesReference is the differential test of the
// compiled net: seeded random walks of every built-in model (and one with
// parallel gateways), damaged and interleaved, through Check and
// CheckLossy with resync on and off.
func TestCompiledReplayMatchesReference(t *testing.T) {
	for _, m := range differentialModels(t) {
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			driveBoth(t, m, randomSteps(t, m, rng), rng)
		}
	}
}

// TestCleanWalksFit pins the generator: an undamaged random walk of a
// built-in model replays fit on both checkers, so the differential test
// above does exercise the fit path.
func TestCleanWalksFit(t *testing.T) {
	for _, m := range differentialModels(t)[:4] {
		rng := rand.New(rand.NewSource(7))
		c, at := NewChecker(m), time.Now()
		for _, n := range randomWalk(m, rng) {
			line := lineFor(t, n, rng)
			if res := c.Check("t", line, at); res.Verdict != VerdictFit {
				t.Fatalf("%s: %q replayed %s", m.ID(), line, res.Verdict)
			}
		}
		if !c.Completed("t") {
			t.Errorf("%s: walk to the end event did not complete", m.ID())
		}
	}
}

// FuzzCompiledReplayMatchesReference lets the fuzzer pick the model, the
// seed of the walk and a script of extra damage.
func FuzzCompiledReplayMatchesReference(f *testing.F) {
	f.Add(uint8(0), int64(1), []byte{})
	f.Add(uint8(1), int64(2), []byte{3, 200, 17})
	f.Add(uint8(4), int64(3), []byte{0, 0, 9, 9, 255})
	f.Fuzz(func(t *testing.T, model uint8, seed int64, script []byte) {
		models := differentialModels(t)
		m := models[int(model)%len(models)]
		rng := rand.New(rand.NewSource(seed))
		steps := randomSteps(t, m, rng)
		// Each script byte drops, repeats or moves one step.
		for _, op := range script {
			if len(steps) < 2 {
				break
			}
			i := int(op) % (len(steps) - 1)
			switch op % 3 {
			case 0:
				steps = append(steps[:i], steps[i+1:]...)
			case 1:
				steps = append(steps[:i+1], steps[i:]...)
			case 2:
				steps[i].line, steps[i+1].line = steps[i+1].line, steps[i].line
			}
		}
		driveBoth(t, m, steps, rng)
	})
}
