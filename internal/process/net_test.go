package process

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// tokenMintModel mints one token per "tick": tick's output forks into a
// flow back to tick and a flow that parks a token in front of "tock". A
// loop through a fork has no bound on its markings, so Build walks only
// the first of them and the rest are compiled as replay meets them.
func tokenMintModel(t testing.TB) *Model {
	b := NewBuilder("mint", "Token mint")
	b.Start("start")
	b.End("end")
	b.Gateway("again")
	b.ANDGateway("fork")
	b.Activity("tick", WithPatterns(`tick`))
	b.Activity("tock", WithPatterns(`tock`))
	b.Chain("start", "again", "tick", "fork", "again")
	b.Chain("fork", "tock", "end")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMarkingCountsAreExact is the regression test for the visited-set key
// that wrote a place's count modulo ten: eleven tokens and one token on a
// place are different markings, and replay counts every one of them.
func TestMarkingCountsAreExact(t *testing.T) {
	m := tokenMintModel(t)
	net := m.Net()
	tick, tock := m.Node("tick"), m.Node("tock")
	parked := "fork" + edgeSep + "tock"

	cur := net.Initial()
	for i := 0; i < 12; i++ {
		next, ok := cur.Fire(tick)
		if !ok {
			t.Fatalf("tick %d not activated at %v", i, cur.Places())
		}
		cur = next
	}
	if got := cur.Export()[parked]; got != 11 {
		t.Fatalf("after 12 ticks %d tokens wait for tock, want 11 (marking %v)", got, cur.Export())
	}

	one := net.Import(map[string]int{parked: 1})
	eleven := net.Import(map[string]int{parked: 11})
	if one == eleven {
		t.Fatal("markings with 1 and 11 tokens on a place were interned as one")
	}
	if got := eleven.Export(); !reflect.DeepEqual(got, map[string]int{parked: 11}) {
		t.Fatalf("11 tokens exported as %v", got)
	}
	// Eleven tokens fire tock eleven times and not a twelfth.
	cur = eleven
	for i := 0; i < 11; i++ {
		next, ok := cur.Fire(tock)
		if !ok {
			t.Fatalf("tock %d not activated with %d tokens waiting", i, 11-i)
		}
		cur = next
	}
	if _, ok := cur.Fire(tock); ok {
		t.Fatalf("a twelfth tock fired from %v", cur.Export())
	}
}

// silentMintModel mints tokens through silent moves alone: a parallel
// gateway whose own output flows back into it. The closure of the marking
// after "go" has no end.
func silentMintBuilder() *Builder {
	b := NewBuilder("silent-mint", "Silent token mint")
	b.Start("start")
	b.End("end")
	b.Gateway("merge")
	b.ANDGateway("fork")
	b.Activity("go", WithPatterns(`go`))
	b.Activity("stop", WithPatterns(`stop`))
	b.Chain("start", "go", "merge", "fork", "merge")
	b.Chain("fork", "stop", "end")
	return b
}

func TestClosureOverCapFailsBuild(t *testing.T) {
	_, err := silentMintBuilder().Build()
	if !errors.Is(err, ErrClosureTooLarge) {
		t.Fatalf("Build error = %v, want ErrClosureTooLarge", err)
	}
	if !strings.Contains(err.Error(), `"silent-mint"`) {
		t.Errorf("error does not name the model: %v", err)
	}

	// The same document is refused on the way back in.
	doc := `{"id":"silent-mint","name":"x","nodes":[
		{"id":"start","name":"start","kind":1},{"id":"end","name":"end","kind":4},
		{"id":"merge","name":"merge","kind":3},{"id":"fork","name":"fork","kind":5},
		{"id":"go","name":"go","kind":2,"patterns":["go"]},{"id":"stop","name":"stop","kind":2,"patterns":["stop"]}],
		"edges":[{"from":"start","to":"go"},{"from":"go","to":"merge"},{"from":"merge","to":"fork"},
		{"from":"fork","to":"merge"},{"from":"fork","to":"stop"},{"from":"stop","to":"end"}]}`
	if _, err := UnmarshalModel([]byte(doc)); !errors.Is(err, ErrClosureTooLarge) {
		t.Fatalf("UnmarshalModel error = %v, want ErrClosureTooLarge", err)
	}
}

// TestBuiltinNetSizes pins how far under the caps the shipped models sit:
// every reachable marking is compiled at Build, and the largest silent
// closure holds a handful of markings against a cap of 512.
func TestBuiltinNetSizes(t *testing.T) {
	cases := []struct {
		model                        *Model
		places, markings, maxClosure int
	}{
		{buildRollingUpgradeModel(), 22, 9, 5},
		{buildBlueGreenModel(), 20, 8, 5},
		{buildSpotRebalanceModel(), 19, 6, 6},
		{buildScaleOutModel(), 16, 6, 5},
	}
	for _, tc := range cases {
		net := tc.model.Net()
		net.mu.Lock()
		maxClosure := 0
		for _, mk := range net.interned {
			if mk.closure > maxClosure {
				maxClosure = mk.closure
			}
		}
		markings := len(net.interned)
		net.mu.Unlock()
		if len(net.places) != tc.places || markings != tc.markings || maxClosure != tc.maxClosure {
			t.Errorf("%s: %d places, %d markings, largest closure %d; want %d, %d, %d",
				tc.model.ID(), len(net.places), markings, maxClosure, tc.places, tc.markings, tc.maxClosure)
		}
		if markings >= exploreCap || maxClosure*10 > closureCap {
			t.Errorf("%s is not well under the caps", tc.model.ID())
		}
	}
}

// TestInternCapKeepsReplayExact: past the cap markings are no longer
// kept, and replay still counts exactly.
func TestInternCapKeepsReplayExact(t *testing.T) {
	m := tokenMintModel(t)
	tick := m.Node("tick")
	cur := m.Net().Initial()
	const ticks = internCap + 50
	for i := 0; i < ticks; i++ {
		next, ok := cur.Fire(tick)
		if !ok {
			t.Fatalf("tick %d not activated", i)
		}
		cur = next
	}
	if got := cur.Export()["fork"+edgeSep+"tock"]; got != ticks-1 {
		t.Fatalf("%d tokens after %d ticks, want %d", got, ticks, ticks-1)
	}
	m.Net().mu.Lock()
	kept := len(m.Net().interned)
	m.Net().mu.Unlock()
	if kept > internCap {
		t.Errorf("net keeps %d markings, cap %d", kept, internCap)
	}
}

// TestGraphGettersReturnCopies: what Outgoing, Incoming, Ends and Nodes
// hand out is the caller's; writing to it cannot reach the model.
func TestGraphGettersReturnCopies(t *testing.T) {
	m := RollingUpgradeModel()
	want := m.Outgoing("g-loop-exit")
	for _, get := range []func() []string{
		func() []string { return m.Outgoing("g-loop-exit") },
		func() []string { return m.Incoming("g-loop-entry") },
		m.Ends,
	} {
		got := get()
		for i := range got {
			got[i] = "clobbered"
		}
		_ = append(got[:0], "x", "y", "z")
		for _, id := range get() {
			if m.Node(id) == nil {
				t.Fatalf("a caller's write reached the model: %v", get())
			}
		}
	}
	nodes := m.Nodes()
	nodes[0], nodes[1] = nil, nil
	if m.Nodes()[0] == nil {
		t.Fatal("a caller's write to Nodes() reached the model")
	}
	if got := m.Outgoing("g-loop-exit"); !reflect.DeepEqual(got, want) {
		t.Fatalf("Outgoing changed: %v, want %v", got, want)
	}
	// The compiled consumers still see the graph whole.
	if n, _ := m.Match("Rolling upgrade task completed"); n == nil || n.ID != NodeCompleted {
		t.Fatalf("classification broken: %v", n)
	}
	if acts, ok := m.PathActivities(NodeSortInst, NodeTerminateOld); !ok || !reflect.DeepEqual(acts, []string{NodeDeregister}) {
		t.Fatalf("PathActivities = %v, %v", acts, ok)
	}
}
