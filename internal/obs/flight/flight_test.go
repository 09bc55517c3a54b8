package flight

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"poddiagnosis/internal/clock"
)

func testClock() clock.Clock {
	return clock.NewScaled(1000, time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC))
}

func TestKnownKind(t *testing.T) {
	for _, k := range Kinds() {
		if !KnownKind(k) {
			t.Errorf("registered kind %q not known", k)
		}
	}
	if KnownKind(Kind("made.up")) {
		t.Error("unregistered kind accepted")
	}
}

func TestNilRecorderAndOpAreNoOps(t *testing.T) {
	var r *Recorder
	op := r.Op("op-1")
	if op != nil {
		t.Fatal("nil recorder returned non-nil op")
	}
	if id := op.Record(Entry{Kind: KindLogEvent}); id != 0 {
		t.Fatalf("nil op Record returned %d, want 0", id)
	}
	if got := op.Operation(); got != "" {
		t.Fatalf("nil op Operation returned %q", got)
	}
	r.Drop("op-1")
	if tl := r.Timeline("op-1"); tl.Entries == nil || len(tl.Entries) != 0 {
		t.Fatalf("nil recorder timeline = %#v, want empty non-nil", tl.Entries)
	}
	if r.Operations() != nil {
		t.Fatal("nil recorder listed operations")
	}
}

func TestRecordAssignsMonotonicIDsAndOrder(t *testing.T) {
	r := NewRecorder(testClock(), 32)
	op := r.Op("op-1")
	var ids []uint64
	for i := 0; i < 5; i++ {
		ids = append(ids, op.Record(Entry{Kind: KindLogEvent, Message: fmt.Sprintf("e%d", i)}))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("ids not monotonic: %v", ids)
		}
	}
	tl := r.Timeline("op-1")
	if len(tl.Entries) != 5 {
		t.Fatalf("got %d entries, want 5", len(tl.Entries))
	}
	for i, e := range tl.Entries {
		if e.ID != ids[i] {
			t.Fatalf("entry %d has id %d, want %d (insertion order)", i, e.ID, ids[i])
		}
		if e.At.IsZero() {
			t.Fatal("zero At not stamped from clock")
		}
	}
}

func TestRingBoundsAndDropCount(t *testing.T) {
	r := NewRecorder(testClock(), minCapacity)
	op := r.Op("op-1")
	total := minCapacity + 7
	for i := 0; i < total; i++ {
		op.Record(Entry{Kind: KindDetection})
	}
	tl := r.Timeline("op-1")
	if len(tl.Entries) != minCapacity {
		t.Fatalf("ring holds %d entries, want %d", len(tl.Entries), minCapacity)
	}
	if tl.Dropped != 7 {
		t.Fatalf("dropped = %d, want 7", tl.Dropped)
	}
	// Oldest surviving entry is the 8th recorded.
	if tl.Entries[0].ID >= tl.Entries[len(tl.Entries)-1].ID {
		t.Fatal("ring snapshot not oldest-first")
	}
}

// TestRecordDoesNotAllocate pins Op.Record at zero allocations for a
// registered kind, whose entry counter is resolved once at init: the
// entry is copied by value into the ring's backing array (at this
// capacity, the whole ring is allocated when the operation opens),
// including once the ring is full and overwrites its oldest.
func TestRecordDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	r := NewRecorder(testClock(), minCapacity)
	op := r.Op("op-1")
	e := Entry{Kind: KindLogEvent, Seq: 7, Message: "Terminating old instance i-7df34041", Attrs: map[string]string{"instance": "t"}}
	if n := testing.AllocsPerRun(400, func() { op.Record(e) }); n != 0 {
		t.Errorf("Record allocates %.1f times on a registered kind", n)
	}
	if r.Timeline("op-1").Dropped == 0 {
		t.Fatal("the ring never wrapped: the overwrite path was not driven")
	}
}

func TestTimelineKindFilter(t *testing.T) {
	r := NewRecorder(testClock(), 32)
	op := r.Op("op-1")
	op.Record(Entry{Kind: KindLogEvent})
	op.Record(Entry{Kind: KindDetection})
	op.Record(Entry{Kind: KindCause})
	tl := r.Timeline("op-1", KindDetection, KindCause)
	if len(tl.Entries) != 2 {
		t.Fatalf("filtered timeline has %d entries, want 2", len(tl.Entries))
	}
	for _, e := range tl.Entries {
		if e.Kind == KindLogEvent {
			t.Fatal("filter kept excluded kind")
		}
	}
}

func TestDropDiscardsOperation(t *testing.T) {
	r := NewRecorder(testClock(), 32)
	op := r.Op("op-1")
	op.Record(Entry{Kind: KindLogEvent})
	r.Drop("op-1")
	if tl := r.Timeline("op-1"); len(tl.Entries) != 0 {
		t.Fatal("dropped operation still queryable")
	}
	// A ring handed out before the drop keeps accepting entries.
	if id := op.Record(Entry{Kind: KindDetection}); id == 0 {
		t.Fatal("orphaned ring rejected entry")
	}
	if got := r.Operations(); len(got) != 0 {
		t.Fatalf("operations after drop: %v", got)
	}
}

func TestContextPropagation(t *testing.T) {
	r := NewRecorder(testClock(), 32)
	op := r.Op("op-1")
	ctx := WithParent(NewContext(context.Background(), op), 42)
	if got := FromContext(ctx); got != op {
		t.Fatal("op not carried by context")
	}
	if got := ParentFrom(ctx); got != 42 {
		t.Fatalf("parent = %d, want 42", got)
	}
	if got := FromContext(context.Background()); got != nil {
		t.Fatal("empty context yielded an op")
	}
	if got := ParentFrom(context.Background()); got != 0 {
		t.Fatalf("empty context parent = %d, want 0", got)
	}
}

func TestChainToLog(t *testing.T) {
	r := NewRecorder(testClock(), 64)
	op := r.Op("op-1")
	log := op.Record(Entry{Kind: KindLogEvent, Message: "raw line"})
	conf := op.Record(Entry{Kind: KindConformance, Parents: []uint64{log}})
	det := op.Record(Entry{Kind: KindDetection, Parents: []uint64{conf}})
	diag := op.Record(Entry{Kind: KindDiagnosis, Parents: []uint64{det}})
	test := op.Record(Entry{Kind: KindTest, Parents: []uint64{diag}})
	cause := op.Record(Entry{Kind: KindCause, Parents: []uint64{diag, test}})

	entries := r.Timeline("op-1").Entries
	path, ok := ChainToLog(entries, cause)
	if !ok {
		t.Fatal("no chain from cause to log event")
	}
	if path[0].ID != cause || path[len(path)-1].ID != log {
		t.Fatalf("chain endpoints wrong: %d..%d", path[0].ID, path[len(path)-1].ID)
	}

	// A chain that bottoms out at a stream gap is not evidence.
	gap := op.Record(Entry{Kind: KindStreamGap})
	orphan := op.Record(Entry{Kind: KindDetection, Parents: []uint64{gap}})
	if _, ok := ChainToLog(r.Timeline("op-1").Entries, orphan); ok {
		t.Fatal("chain ending at stream gap accepted")
	}

	// Cycles must terminate.
	a := op.Record(Entry{Kind: KindDetection, Parents: []uint64{9999}})
	if _, ok := ChainToLog(r.Timeline("op-1").Entries, a); ok {
		t.Fatal("dangling parent accepted")
	}
}

// TestConcurrentRecordAndGC exercises concurrent writers, readers, and
// session-retention drops under -race: the access pattern of the
// 8-concurrent-upgrade chaos soak.
func TestConcurrentRecordAndGC(t *testing.T) {
	r := NewRecorder(testClock(), minCapacity)
	const ops = 8
	var writers sync.WaitGroup
	for i := 0; i < ops; i++ {
		opID := fmt.Sprintf("op-%d", i)
		writers.Add(1)
		go func() {
			defer writers.Done()
			for j := 0; j < 500; j++ {
				op := r.Op(opID)
				parent := op.Record(Entry{Kind: KindLogEvent, Seq: uint64(j)})
				op.Record(Entry{Kind: KindDetection, Parents: []uint64{parent}})
			}
		}()
	}
	done := make(chan struct{})
	var gc sync.WaitGroup
	gc.Add(1)
	go func() {
		defer gc.Done()
		for {
			for i := 0; i < ops; i++ {
				opID := fmt.Sprintf("op-%d", i)
				r.Timeline(opID, KindDetection)
				if i%3 == 0 {
					r.Drop(opID)
				}
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	writers.Wait()
	close(done)
	gc.Wait()
}

func TestRenderShowsParentsAndAttrs(t *testing.T) {
	r := NewRecorder(testClock(), 32)
	op := r.Op("op-1")
	log := op.Record(Entry{Kind: KindLogEvent, Message: "raw line", Seq: 3})
	op.Record(Entry{Kind: KindDetection, Parents: []uint64{log},
		Message: "unfit at createlc", Attrs: map[string]string{"step": "createlc", "degraded": "false"}})
	var buf bytes.Buffer
	Render(&buf, r.Timeline("op-1"))
	out := buf.String()
	for _, want := range []string{"op-1 timeline (2 entries)", "log.event", "detection",
		fmt.Sprintf("<- #%d", log), "degraded=false step=createlc"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("rendered timeline missing %q:\n%s", want, out)
		}
	}
}

// TestUnfilteredTimelineIsOneExactCopy: with no kind filter, Timeline
// returns the ring oldest-first in one slice of exactly its length —
// before and after the ring wraps, and never nil — and Writes counts
// every record.
func TestUnfilteredTimelineIsOneExactCopy(t *testing.T) {
	r := NewRecorder(testClock(), minCapacity)
	op := r.Op("op-1")
	if tl := r.Timeline("op-1"); tl.Entries == nil || len(tl.Entries) != 0 {
		t.Fatalf("empty ring timeline = %#v, want empty non-nil", tl.Entries)
	}
	for n := 1; n <= 2*minCapacity; n++ {
		op.Record(Entry{Kind: KindLogEvent, Message: fmt.Sprint(n)})
		if op.Writes() != uint64(n) {
			t.Fatalf("Writes = %d after %d records", op.Writes(), n)
		}
		es := r.Timeline("op-1").Entries
		if want := min(n, minCapacity); len(es) != want || cap(es) != want {
			t.Fatalf("after %d records: len %d cap %d, want both %d", n, len(es), cap(es), want)
		}
		if last := es[len(es)-1].Message; last != fmt.Sprint(n) {
			t.Fatalf("after %d records the newest entry is %q", n, last)
		}
		for i := 1; i < len(es); i++ {
			if es[i].ID <= es[i-1].ID {
				t.Fatalf("after %d records the timeline is not oldest-first", n)
			}
		}
	}
}

// TestImportCountsAsWrite: importing over a ring moves its write count,
// like a record does.
func TestImportCountsAsWrite(t *testing.T) {
	r := NewRecorder(testClock(), minCapacity)
	op := r.Op("op-1")
	op.Record(Entry{Kind: KindLogEvent})
	before := op.Writes()
	if got := r.Import(r.Timeline("op-1")); got != op || op.Writes() == before {
		t.Fatalf("import over the ring left its write count at %d", op.Writes())
	}
}
