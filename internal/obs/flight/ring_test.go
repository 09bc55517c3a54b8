package flight

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// opAllocs is what opening an operation's ring costs: the Op itself (1)
// and its initial backing array of initialEntries entries (1). The
// operations map's insert reuses the bucket its last delete freed.
const opAllocs = 2

// TestRingAllocations pins the ring's allocations: opening an operation
// costs opAllocs, and Record allocates nothing until the initial array
// is full; the record after that grows it once, to twice its size.
func TestRingAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	r := NewRecorder(testClock(), DefaultCapacity)
	if n := testing.AllocsPerRun(100, func() { r.Op("op-1"); r.Drop("op-1") }); n != opAllocs {
		t.Errorf("opening a ring allocates %.1f times, want %d", n, opAllocs)
	}
	op := r.Op("op-2")
	e := Entry{Kind: KindLogEvent, Seq: 7, Message: "Terminating old instance i-7df34041", Attrs: map[string]string{"instance": "t"}}
	// AllocsPerRun calls once more than it measures: initialEntries
	// records in all, the last of them filling the initial array.
	if n := testing.AllocsPerRun(initialEntries-1, func() { op.Record(e) }); n != 0 {
		t.Errorf("Record allocates %.2f times while the initial array has room", n)
	}
	if len(op.buf) != initialEntries || op.next != initialEntries {
		t.Fatalf("after %d records the ring has len %d, next %d", initialEntries, len(op.buf), op.next)
	}
	op.Record(e)
	if len(op.buf) != 2*initialEntries {
		t.Fatalf("the record past the initial array grew it to %d, want %d", len(op.buf), 2*initialEntries)
	}
}

// fixedRing is the ring as it was before it grew by use: one backing
// array of the full capacity, allocated when the operation opens. The
// differential test holds the growing ring to its observable behaviour.
type fixedRing struct {
	ids     uint64
	buf     []Entry
	next    int
	full    bool
	dropped uint64
	writes  uint64
}

func newFixedRing(capacity int) *fixedRing { return &fixedRing{buf: make([]Entry, capacity)} }

func (f *fixedRing) record(e Entry) uint64 {
	f.ids++
	e.ID = f.ids
	if f.full {
		f.dropped++
	}
	f.buf[f.next] = e
	f.next++
	if f.next == len(f.buf) {
		f.next = 0
		f.full = true
	}
	f.writes++
	return e.ID
}

func (f *fixedRing) importTimeline(tl Timeline) {
	entries := tl.Entries
	dropped := tl.Dropped
	var maxID uint64
	if len(entries) > len(f.buf) {
		dropped += uint64(len(entries) - len(f.buf))
		entries = entries[len(entries)-len(f.buf):]
	}
	f.next = 0
	f.full = false
	for _, e := range entries {
		if e.ID > maxID {
			maxID = e.ID
		}
		f.buf[f.next] = e
		f.next++
		if f.next == len(f.buf) {
			f.next = 0
			f.full = true
		}
	}
	f.dropped = dropped
	f.writes++
	if maxID > f.ids {
		f.ids = maxID
	}
}

func (f *fixedRing) timeline(kinds ...Kind) Timeline {
	tl := Timeline{Operation: "op", Entries: []Entry{}, Dropped: f.dropped}
	all := f.buf[:f.next]
	if f.full {
		all = append(append([]Entry(nil), f.buf[f.next:]...), all...)
	}
	for _, e := range all {
		keep := len(kinds) == 0
		for _, k := range kinds {
			keep = keep || e.Kind == k
		}
		if keep {
			tl.Entries = append(tl.Entries, e)
		}
	}
	return tl
}

// sameTimeline reports whether two timelines of test-built entries
// (no parents, no attrs) agree entry for entry.
func sameTimeline(a, b Timeline) bool {
	if a.Operation != b.Operation || a.Dropped != b.Dropped || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i, e := range a.Entries {
		f := b.Entries[i]
		if e.ID != f.ID || e.Kind != f.Kind || !e.At.Equal(f.At) || e.Seq != f.Seq {
			return false
		}
	}
	return true
}

// TestRingMatchesFixedRing drives random sequences of Record, Import and
// Timeline, with and without kind filters, through the growing ring and
// the fixed one at capacities on both sides of the initial array and at
// the configured sizes. Entries, Dropped and Writes must agree, and the
// growing ring's backing array never exceeds the capacity. Writes and
// the array are checked after every step; timelines every capacity/32
// steps, so the large rings stay cheap to check.
func TestRingMatchesFixedRing(t *testing.T) {
	kinds := Kinds()
	at := time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC)
	for _, capacity := range []int{16, 17, 31, 32, 33, 256, 2048} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			r := NewRecorder(testClock(), capacity)
			op := r.Op("op")
			ref := newFixedRing(capacity)
			every := max(1, capacity/32)
			wrapped := false
			for step := 0; step < 6*capacity; step++ {
				imported := rng.Intn(2*capacity) == 0
				if imported { // a snapshot, sometimes larger than the ring
					n := rng.Intn(2*capacity + 1)
					base := ref.ids + uint64(rng.Intn(50))
					tl := Timeline{Operation: "op", Entries: make([]Entry, n), Dropped: uint64(rng.Intn(5))}
					for i := range tl.Entries {
						tl.Entries[i] = Entry{ID: base + uint64(i) + 1, Kind: kinds[rng.Intn(len(kinds))], At: at, Seq: uint64(i)}
					}
					if got := r.Import(tl); got != op {
						t.Fatalf("step %d: import returned another ring", step)
					}
					ref.importTimeline(tl)
				} else {
					e := Entry{Kind: kinds[rng.Intn(len(kinds))], At: at.Add(time.Duration(step)), Seq: uint64(step)}
					if got, want := op.Record(e), ref.record(e); got != want {
						t.Fatalf("step %d: Record returned id %d, the fixed ring %d", step, got, want)
					}
				}
				if imported || step%every == 0 {
					var filter []Kind
					for _, k := range kinds {
						if rng.Intn(3) == 0 {
							filter = append(filter, k)
						}
					}
					for _, f := range [][]Kind{nil, filter} {
						if got, want := r.Timeline("op", f...), ref.timeline(f...); !sameTimeline(got, want) {
							t.Fatalf("step %d: Timeline(%v) = %d entries dropped %d, the fixed ring %d dropped %d",
								step, f, len(got.Entries), got.Dropped, len(want.Entries), want.Dropped)
						}
					}
				}
				if op.Writes() != ref.writes {
					t.Fatalf("step %d: Writes = %d, the fixed ring %d", step, op.Writes(), ref.writes)
				}
				op.mu.Lock()
				size := cap(op.buf)
				op.mu.Unlock()
				if size > capacity {
					t.Fatalf("step %d: backing array holds %d entries, capacity %d", step, size, capacity)
				}
				wrapped = wrapped || ref.full
			}
			if !wrapped {
				t.Fatal("the ring never filled: the overwrite path was not driven")
			}
		})
	}
}

// TestRingConcurrentRecordAndTimeline runs one writer through the
// ring's growth steps and its wrap against one reader, for -race: every
// timeline the reader takes is a window of consecutive entries whose
// length plus drop count is the number recorded so far.
func TestRingConcurrentRecordAndTimeline(t *testing.T) {
	const capacity = 33
	r := NewRecorder(testClock(), capacity)
	op := r.Op("op")
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 20*capacity; i++ {
			op.Record(Entry{Kind: KindLogEvent, Seq: uint64(i)})
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		tl := r.Timeline("op")
		if len(tl.Entries) > capacity {
			t.Fatalf("timeline holds %d entries, capacity %d", len(tl.Entries), capacity)
		}
		for i, e := range tl.Entries {
			if want := tl.Dropped + uint64(i) + 1; e.ID != want {
				t.Fatalf("entry %d of a timeline with %d dropped has id %d, want %d", i, tl.Dropped, e.ID, want)
			}
		}
	}
	wg.Wait()
}
