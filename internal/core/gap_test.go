package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/obs/flight"
	"poddiagnosis/internal/simaws"
)

// manualClock is a clock that only moves when the test advances it, so gap
// times and hold deadlines are exact.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func (c *manualClock) Sleep(ctx context.Context, d time.Duration) error {
	c.Advance(d)
	return ctx.Err()
}

// AfterFunc never fires: the gap tests start no timers that must.
func (c *manualClock) AfterFunc(time.Duration, func()) func() bool {
	return func() bool { return true }
}

func (c *manualClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

const gapTestHold = 30 * time.Second

// newGapManager builds an unstarted manager on a hand-advanced clock:
// nothing runs beside the test, which declares gaps by calling notifyGap
// and feeds lines through the processor itself.
func newGapManager(t *testing.T, clk *manualClock, mutate func(*ManagerConfig)) *Manager {
	t.Helper()
	bus := logging.NewBus()
	t.Cleanup(bus.Close)
	cfg := ManagerConfig{
		Cloud: simaws.New(clk, simaws.FastProfile(), simaws.WithSeed(1)), Bus: bus,
		DisableAssertions: true,
		DegradedHold:      gapTestHold,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	return m
}

func newManualClock() *manualClock {
	return &manualClock{t: time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC)}
}

func watchGap(t *testing.T, m *Manager, id string) *Session {
	t.Helper()
	s, err := m.Watch(Expectation{ASGName: id + "--asg", ClusterSize: 2}, WithSessionID(id), BindInstance(id+"-task"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// gapEntries returns the session's stream.gap evidence entries.
func gapEntries(s *Session) []flight.Entry {
	return s.Timeline(flight.KindStreamGap).Entries
}

func degradedUntilOf(s *Session) time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degradedUntil
}

// TestGapEpochRegisteredBeforeAndAfter: a gap degrades the sessions that
// were registered when it was declared, not the ones registered after.
func TestGapEpochRegisteredBeforeAndAfter(t *testing.T) {
	clk := newManualClock()
	m := newGapManager(t, clk, nil)
	before := watchGap(t, m, "before")
	clk.Advance(time.Second)
	m.notifyGap()
	gapAt := clk.Now()
	after := watchGap(t, m, "after")

	if !before.Degraded() {
		t.Error("session registered before the gap is not degraded")
	}
	if after.Degraded() {
		t.Error("session registered after the gap is degraded")
	}
	if got := gapEntries(before); len(got) != 1 || !got[0].At.Equal(gapAt) {
		t.Errorf("before: stream.gap entries = %+v, want one at %v", got, gapAt)
	}
	if got := gapEntries(after); len(got) != 0 {
		t.Errorf("after: stream.gap entries = %+v, want none", got)
	}
	if sum := before.Summary(); !sum.Degraded {
		t.Error("Summary of the degraded session says not degraded")
	}
}

// TestGapEpochManyGapsOneRead: k gaps between two reads fold into one
// stream.gap entry at the latest gap's time, and the hold is what
// broadcasting every gap would have left: the latest gap plus the hold.
func TestGapEpochManyGapsOneRead(t *testing.T) {
	clk := newManualClock()
	m := newGapManager(t, clk, nil)
	s := watchGap(t, m, "k")
	var broadcast time.Time // max over gaps of at+hold
	var latest time.Time
	for i := 0; i < 4; i++ {
		clk.Advance(2 * time.Second)
		m.notifyGap()
		latest = clk.Now()
		if until := latest.Add(gapTestHold); until.After(broadcast) {
			broadcast = until
		}
	}
	if got := gapEntries(s); len(got) != 0 {
		t.Fatalf("ring holds %d stream.gap entries before the session read", len(got))
	}
	clk.Advance(time.Second)
	if !s.Degraded() {
		t.Fatal("not degraded after four gaps")
	}
	got := gapEntries(s)
	if len(got) != 1 || !got[0].At.Equal(latest) {
		t.Fatalf("stream.gap entries = %+v, want one at the latest gap %v", got, latest)
	}
	if until := degradedUntilOf(s); !until.Equal(broadcast) || !until.Equal(latest.Add(gapTestHold)) {
		t.Errorf("DegradedUntil = %v, want %v", until, broadcast)
	}
	s.mu.Lock()
	cited := s.flightGap
	s.mu.Unlock()
	if cited != got[0].ID {
		t.Errorf("flightGap = %d, want the gap entry %d", cited, got[0].ID)
	}
	// A second read of the same epoch records nothing more.
	s.Degraded()
	if n := len(gapEntries(s)); n != 1 {
		t.Errorf("re-reading the same gap recorded %d entries, want 1", n)
	}
	// The hold decays exactly at latest+hold.
	clk.Advance(latest.Add(gapTestHold - time.Nanosecond).Sub(clk.Now()))
	if !s.Degraded() {
		t.Error("not degraded one nanosecond before the hold ends")
	}
	clk.Advance(time.Nanosecond)
	if s.Degraded() {
		t.Error("still degraded once the hold ended")
	}
}

// TestGapEpochEndedSession: a session ended before a gap never observes
// it; one ended after a gap keeps the hold the gap armed.
func TestGapEpochEndedSession(t *testing.T) {
	clk := newManualClock()
	m := newGapManager(t, clk, nil)
	early := watchGap(t, m, "early")
	late := watchGap(t, m, "late")
	early.End()
	clk.Advance(time.Second)
	m.notifyGap()
	gapAt := clk.Now()
	late.End()

	if early.Degraded() || early.Summary().Degraded {
		t.Error("session ended before the gap is degraded")
	}
	if got := gapEntries(early); len(got) != 0 {
		t.Errorf("ended session recorded %d stream.gap entries", len(got))
	}
	if !late.Degraded() {
		t.Error("session ended after the gap lost its hold")
	}
	if until := degradedUntilOf(late); !until.Equal(gapAt.Add(gapTestHold)) {
		t.Errorf("late DegradedUntil = %v, want %v", until, gapAt.Add(gapTestHold))
	}
	// Gaps after the end leave it alone.
	clk.Advance(5 * time.Second)
	m.notifyGap()
	late.Degraded()
	if got := gapEntries(late); len(got) != 1 || !got[0].At.Equal(gapAt) {
		t.Errorf("late stream.gap entries = %+v, want only the one before its end", got)
	}
}

// TestGapEpochExportFoldsPending: a snapshot taken after a gap nobody
// observed carries the hold and the gap evidence entry.
func TestGapEpochExportFoldsPending(t *testing.T) {
	clk := newManualClock()
	m := newGapManager(t, clk, nil)
	watchGap(t, m, "x")
	clk.Advance(time.Second)
	m.notifyGap()
	gapAt := clk.Now()
	clk.Advance(time.Second)

	snap, err := m.ExportSession("x")
	if err != nil {
		t.Fatal(err)
	}
	if !snap.DegradedUntil.Equal(gapAt.Add(gapTestHold)) {
		t.Errorf("snapshot DegradedUntil = %v, want %v", snap.DegradedUntil, gapAt.Add(gapTestHold))
	}
	var gapEntry *flight.Entry
	for i, e := range snap.Flight.Entries {
		if e.ID == snap.FlightGap {
			gapEntry = &snap.Flight.Entries[i]
		}
	}
	if gapEntry == nil || gapEntry.Kind != flight.KindStreamGap || !gapEntry.At.Equal(gapAt) {
		t.Errorf("snapshot FlightGap %d does not name a stream.gap entry at %v: %+v", snap.FlightGap, gapAt, gapEntry)
	}
}

// TestGapEpochRestoreStartsAtAdopterEpoch: a session restored after gaps
// on the adopting manager is degraded by its own handoff hold only, and
// cites the handoff entry, not a gap it never saw.
func TestGapEpochRestoreStartsAtAdopterEpoch(t *testing.T) {
	clk := newManualClock()
	a := newGapManager(t, clk, nil)
	b := newGapManager(t, clk, nil)
	watchGap(t, a, "moved")
	snap, err := a.ExportSession("moved")
	if err != nil {
		t.Fatal(err)
	}
	b.notifyGap()
	clk.Advance(10 * time.Second)
	b.notifyGap()
	clk.Advance(10 * time.Second)
	restoredAt := clk.Now()

	s, err := b.RestoreSession(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Degraded() {
		t.Fatal("restored session is not in its handoff hold")
	}
	if got := gapEntries(s); len(got) != 0 {
		t.Errorf("restored session recorded %d stream.gap entries for gaps before it arrived", len(got))
	}
	if until := degradedUntilOf(s); !until.Equal(restoredAt.Add(gapTestHold)) {
		t.Errorf("DegradedUntil = %v, want the handoff hold %v", until, restoredAt.Add(gapTestHold))
	}
	handoff := s.Timeline(flight.KindHandoff).Entries
	s.mu.Lock()
	cited := s.flightGap
	s.mu.Unlock()
	if len(handoff) != 1 || cited != handoff[0].ID {
		t.Errorf("flightGap = %d, want the handoff entry %+v", cited, handoff)
	}
}

// TestGapEpochDegradedDetectionCitesGap: a line delivered after a gap is
// handled degraded; the gap entry precedes the line in the timeline, the
// detection it triggers cites the gap, and its chain still reaches the
// log event.
func TestGapEpochDegradedDetectionCitesGap(t *testing.T) {
	clk := newManualClock()
	m := newGapManager(t, clk, nil)
	s := watchGap(t, m, "d")
	line := func(seq int, body string) logging.Event {
		now := clk.Now()
		return logging.Event{
			Timestamp: now, Source: "asgard.log", SourceHost: "asgard", Type: logging.TypeOperation,
			Fields:  map[string]string{"taskid": "d-task"},
			Message: logging.FormatOperationLine(now, "d-task", body),
			Seq:     uint64(seq),
		}
	}
	m.processor.Process(line(1, "Starting rolling upgrade of group d--asg to image ami-new"))
	clk.Advance(time.Second)
	m.notifyGap()
	clk.Advance(time.Second)
	m.processor.Process(line(2, "ERROR: something broke"))

	tl := s.Timeline().Entries
	var gapIdx, lineIdx = -1, -1
	var gapID uint64
	var det *flight.Entry
	for i, e := range tl {
		switch {
		case e.Kind == flight.KindStreamGap:
			gapIdx, gapID = i, e.ID
		case e.Kind == flight.KindLogEvent && e.Seq == 2:
			lineIdx = i
		case e.Kind == flight.KindDetection:
			det = &tl[i]
		}
	}
	if gapIdx < 0 || lineIdx < 0 || gapIdx > lineIdx {
		t.Fatalf("timeline order: gap at %d, line at %d; want the gap first\n%+v", gapIdx, lineIdx, tl)
	}
	if det == nil {
		t.Fatalf("the error line triggered no detection:\n%+v", tl)
	}
	if det.Attrs["degraded"] != "true" {
		t.Errorf("detection after the gap not degraded: %+v", det)
	}
	cites := false
	for _, p := range det.Parents {
		cites = cites || p == gapID
	}
	if !cites {
		t.Errorf("degraded detection %+v does not cite the gap entry %d", det, gapID)
	}
	if _, ok := flight.ChainToLog(tl, det.ID); !ok {
		t.Errorf("degraded detection's chain does not reach a log event")
	}
}

// TestGapEpochCostIndependentOfSessions pins the point of the epoch: a
// declared gap costs at most one allocation with 1000 sessions resident,
// and writes nothing into their rings until a session reads.
func TestGapEpochCostIndependentOfSessions(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	clk := newManualClock()
	m := newGapManager(t, clk, func(c *ManagerConfig) { c.FlightCapacity = 16 })
	sessions := make([]*Session, 1000)
	for i := range sessions {
		sessions[i] = watchGap(t, m, fmt.Sprintf("s%d", i))
	}
	allocs := testing.AllocsPerRun(100, func() {
		clk.Advance(time.Millisecond)
		m.notifyGap()
	})
	if allocs > 1 {
		t.Errorf("notifyGap allocates %.1f times with 1000 sessions, want <= 1", allocs)
	}
	for _, s := range sessions {
		if n := len(gapEntries(s)); n != 0 {
			t.Fatalf("session %s holds %d stream.gap entries before reading", s.ID(), n)
		}
	}
	if !sessions[0].Degraded() {
		t.Fatal("first session not degraded after the gaps")
	}
	if n := len(gapEntries(sessions[0])); n != 1 {
		t.Errorf("reading session holds %d stream.gap entries, want 1", n)
	}
	if n := len(gapEntries(sessions[1])); n != 0 {
		t.Errorf("a session that did not read holds %d stream.gap entries", n)
	}
}

// gapFoldAllocs is what declaring a gap and folding it into one session
// allocates: notifyGap's gapMark (1). The fold itself allocates nothing:
// the stream.gap entry carries no attrs or parents and is copied into
// the session's ring.
const gapFoldAllocs = 1

// TestGapFoldAllocations pins observeGap's fold path, taken when a gap
// epoch is pending, together with the notifyGap that makes it pending.
func TestGapFoldAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	clk := newManualClock()
	m := newGapManager(t, clk, func(c *ManagerConfig) { c.FlightCapacity = 16 })
	s := watchGap(t, m, "fold")
	folds := 0
	allocs := testing.AllocsPerRun(100, func() {
		clk.Advance(time.Millisecond)
		m.notifyGap()
		s.observeGap()
		folds++
	})
	if got := s.gapSeen.Load(); got != uint64(folds) {
		t.Fatalf("session folded up to epoch %d after %d gaps", got, folds)
	}
	if allocs != gapFoldAllocs {
		t.Errorf("a gap and its fold allocate %.1f times, want %d", allocs, gapFoldAllocs)
	}
}

// TestGapEpochConcurrentReaders declares gaps while several goroutines
// read the session's degraded state, as the pipeline, the worker pool and
// the REST surface do: each epoch is folded at most once, in order, and
// the final hold is the latest gap's.
func TestGapEpochConcurrentReaders(t *testing.T) {
	clk := newManualClock()
	m := newGapManager(t, clk, nil)
	s := watchGap(t, m, "c")
	const gaps = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.Degraded()
				}
			}
		}()
	}
	for i := 0; i < gaps; i++ {
		clk.Advance(time.Millisecond)
		m.notifyGap()
	}
	close(stop)
	wg.Wait()
	last := clk.Now()
	s.Degraded()

	got := gapEntries(s)
	if len(got) == 0 || len(got) > gaps {
		t.Fatalf("%d stream.gap entries for %d gaps", len(got), gaps)
	}
	for i := 1; i < len(got); i++ {
		if !got[i].At.After(got[i-1].At) {
			t.Fatalf("gap entries out of order or repeated: %v then %v", got[i-1].At, got[i].At)
		}
	}
	if !got[len(got)-1].At.Equal(last) {
		t.Errorf("last gap entry at %v, want the latest gap %v", got[len(got)-1].At, last)
	}
	if until := degradedUntilOf(s); !until.Equal(last.Add(gapTestHold)) {
		t.Errorf("DegradedUntil = %v, want %v", until, last.Add(gapTestHold))
	}
}
