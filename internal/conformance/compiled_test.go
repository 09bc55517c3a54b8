package conformance

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"poddiagnosis/internal/process"
)

// TestFitPathDoesNotAllocate gates the per-line path: replaying a line
// that fits is a match against the compiled templates, a lookup in the
// compiled net and an update of the instance in place.
func TestFitPathDoesNotAllocate(t *testing.T) {
	c := upgradeChecker()
	at := time.Now()
	// One loop iteration of the replacement loop, entered once so that
	// the instance and every marking on the way exist.
	trace := happyTrace(1)
	loop := trace[4:8]
	for _, line := range trace[:8] {
		if res := c.Check("t", line, at); res.Verdict != VerdictFit {
			t.Fatalf("%q replayed %s", line, res.Verdict)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(400, func() {
		if res := c.Check("t", loop[i%len(loop)], at); res.Verdict != VerdictFit {
			t.Fatalf("%q replayed %s", loop[i%len(loop)], res.Verdict)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("a fit line allocates %v times, want 0", allocs)
	}
	// CheckLossy takes the same path while lines fit.
	allocs = testing.AllocsPerRun(400, func() {
		c.CheckLossy("t", loop[i%len(loop)], at, true)
		i++
	})
	if allocs != 0 {
		t.Errorf("a fit line through CheckLossy allocates %v times, want 0", allocs)
	}
}

// mintModel parks one more token in front of "tock" with every "tick": a
// loop through a parallel fork, so its markings have no bound.
func mintModel(t testing.TB) *process.Model {
	b := process.NewBuilder("mint", "Token mint")
	b.Start("start")
	b.End("end")
	b.Gateway("again")
	b.ANDGateway("fork")
	b.Activity("tick", process.WithPatterns(`tick`))
	b.Activity("tock", process.WithPatterns(`tock`))
	b.Chain("start", "again", "tick", "fork", "again")
	b.Chain("fork", "tock", "end")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestLoopedModelCountsPastNine replays a model that parks one more token
// in front of "tock" with every "tick". Twelve ticks leave eleven there —
// a count the old visited-set key (count modulo ten) could not tell from
// one — and the snapshot, the verdicts and a restore all count exactly.
func TestLoopedModelCountsPastNine(t *testing.T) {
	m := mintModel(t)
	c, ref, at := NewChecker(m), newRefChecker(m), time.Now()
	replay := func(line string, want Verdict) {
		t.Helper()
		got := c.Check("t", line, at)
		if got.Verdict != want {
			t.Fatalf("%q replayed %s, want %s (marking %v)", line, got.Verdict, want, c.Export()[0].Marking)
		}
		if refGot := ref.check("t", line, at, false); refGot.Verdict != want {
			t.Fatalf("reference replayed %q %s, want %s", line, refGot.Verdict, want)
		}
	}
	for i := 0; i < 12; i++ {
		replay("tick", VerdictFit)
	}
	if got := c.Export()[0].Marking["fork\x1ftock"]; got != 11 {
		t.Fatalf("%d tokens wait for tock after 12 ticks, want 11", got)
	}
	// The adopting checker counts the same eleven.
	adopter := NewChecker(m)
	adopter.Import(c.Export())
	for i := 0; i < 11; i++ {
		replay("tock", VerdictFit)
		if res := adopter.Check("t", "tock", at); res.Verdict != VerdictFit {
			t.Fatalf("adopter: tock %d replayed %s", i, res.Verdict)
		}
	}
	// The twelfth tick's token is still at tick's output: one more tock
	// takes it through the fork, a thirteenth has nothing left.
	replay("tock", VerdictFit)
	replay("tock", VerdictUnfit)
}

// TestCheckersShareOneCompiledModel: sessions share the model, and with it
// the matcher's memo and the net's marking table. Several checkers replay
// at once — on the minting model each pushes into markings nobody has
// compiled yet — and every one must see exactly the verdicts a lone
// checker sees.
func TestCheckersShareOneCompiledModel(t *testing.T) {
	for _, m := range append(differentialModels(t), mintModel(t)) {
		rng := rand.New(rand.NewSource(11))
		var lines []string
		if m.ID() == "mint" {
			for i := 0; i < 300; i++ {
				lines = append(lines, []string{"tick", "tick", "tock"}[rng.Intn(3)])
			}
		} else {
			lines = mutatedTrace(t, m, rng)
		}
		at := time.Now()
		var want []Result
		lone := NewChecker(m)
		for _, line := range lines {
			want = append(want, lone.CheckLossy("t", line, at, true))
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := NewChecker(m)
				for i, line := range lines {
					if got := c.CheckLossy("t", line, at, true); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("%s line %d %q: %s, alone %s", m.ID(), i, line, asJSON(got), asJSON(want[i]))
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
