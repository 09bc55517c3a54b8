package flight

import (
	"math/rand"
	"reflect"
	"testing"
)

// chainToLogReference is ChainToLog as it was before it indexed the
// entries once: a map per call, a seen map, and a prepend at every level
// of a recursive walk. The differential test holds the current function
// to its answers.
func chainToLogReference(entries []Entry, fromID uint64) ([]Entry, bool) {
	byID := make(map[uint64]Entry, len(entries))
	for _, e := range entries {
		byID[e.ID] = e
	}
	seen := make(map[uint64]bool)
	var walk func(id uint64) ([]Entry, bool)
	walk = func(id uint64) ([]Entry, bool) {
		e, ok := byID[id]
		if !ok || seen[id] {
			return nil, false
		}
		seen[id] = true
		if e.Kind == KindLogEvent {
			return []Entry{e}, true
		}
		for _, p := range e.Parents {
			if path, ok := walk(p); ok {
				return append([]Entry{e}, path...), true
			}
		}
		return nil, false
	}
	return walk(fromID)
}

// randomTimeline builds n entries with ascending IDs (gaps between them)
// whose parents point at earlier entries, at IDs that are not recorded,
// and — when cyclic — at later ones. Kinds mix log events, stream gaps and
// derived entries.
func randomTimeline(rng *rand.Rand, n int, cyclic bool) []Entry {
	kinds := []Kind{KindLogEvent, KindStreamGap, KindConformance, KindDetection, KindDiagnosis, KindTest, KindCause}
	entries := make([]Entry, n)
	id := uint64(0)
	for i := range entries {
		id += 1 + uint64(rng.Intn(3))
		entries[i] = Entry{ID: id, Kind: kinds[rng.Intn(len(kinds))], Message: "e"}
	}
	for i := range entries {
		for k := rng.Intn(4); k > 0; k-- {
			switch {
			case rng.Intn(10) == 0:
				entries[i].Parents = append(entries[i].Parents, id+1+uint64(rng.Intn(5))) // not recorded
			case cyclic && rng.Intn(3) == 0:
				entries[i].Parents = append(entries[i].Parents, entries[rng.Intn(n)].ID)
			case i > 0:
				entries[i].Parents = append(entries[i].Parents, entries[rng.Intn(i)].ID)
			}
		}
	}
	return entries
}

// TestChainToLogMatchesReference: on random timelines — DAGs and graphs
// with cycles, with IDs ascending as a Timeline's are, shuffled, and with
// duplicated IDs, some longer than 256 entries — ChainToLog returns the reference's chain and ok from
// every entry and from an unknown ID.
func TestChainToLogMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for round := 0; round < 400; round++ {
		n := 1 + rng.Intn(80)
		if round%10 == 0 {
			n = 300 + rng.Intn(100) // past the seen set's stack buffer
		}
		entries := randomTimeline(rng, n, round%2 == 1)
		switch round % 4 {
		case 2:
			rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
		case 3:
			dup := entries[rng.Intn(len(entries))]
			dup.Kind, dup.Parents = KindLogEvent, nil
			entries = append(entries, dup)
		}
		froms := []uint64{0, entries[len(entries)-1].ID + 100}
		for _, e := range entries {
			froms = append(froms, e.ID)
		}
		for _, from := range froms {
			want, wantOK := chainToLogReference(entries, from)
			got, ok := ChainToLog(entries, from)
			if ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d from %d: got %v %v, want %v %v", round, from, ids(got), ok, ids(want), wantOK)
			}
		}
	}
}

func ids(es []Entry) []uint64 {
	out := make([]uint64, len(es))
	for i, e := range es {
		out[i] = e.ID
	}
	return out
}

// ChainToLog on a timeline of up to 256 entries, with a chain up to 16
// deep, allocates only the chain it returns.
func TestChainToLogAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	entries := make([]Entry, 200)
	for i := range entries {
		entries[i] = Entry{ID: uint64(i + 1), Kind: KindDetection}
		if i == 0 {
			entries[i].Kind = KindLogEvent
		} else {
			entries[i].Parents = []uint64{uint64(i)}
		}
	}
	var chain []Entry
	got := testing.AllocsPerRun(50, func() { chain, _ = ChainToLog(entries, 12) })
	if len(chain) != 12 {
		t.Fatalf("chain of %d entries, want 12", len(chain))
	}
	if got > 1 {
		t.Errorf("ChainToLog: %.0f allocations, want 1", got)
	}
}
