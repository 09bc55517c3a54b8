package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/obs/flight"
	"poddiagnosis/internal/pipeline"
	"poddiagnosis/internal/simaws"
)

// lineAllocCeiling is what one fit rolling-upgrade line may allocate on
// its way through Processor.Process and Session.OnConformance, flight
// recorder on: nothing. The annotated event carries its fields and tags
// inline and shared (logging.Event); the evidence entry's attrs map, and
// the verdict event's fields map and message, are shared per instance
// and per (instance, step, verdict, activity), made on an instance's
// first lines before the measured loop (TestCleanTraceAllocations counts
// them). Classification, field extraction, token replay and the flight
// record contribute none. Raise it only with the allocation it admits
// named here.
const lineAllocCeiling = 0

// TestIngestLineAllocationCeiling pins the per-line allocation count of
// the ingest path the benchmark's allocs_per_unit is made of.
func TestIngestLineAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	mgr, sess, loop := fitLoop(t)
	fitBefore := sess.Checker().StatsFor("t").Fit

	i := 0
	allocs := testing.AllocsPerRun(400, func() {
		mgr.processor.Process(loop[i%len(loop)])
		i++
	})
	st := sess.Checker().StatsFor("t")
	if st.Fit-fitBefore != i || st.Fit != st.Events {
		t.Fatalf("measured lines did not all replay fit: %+v after %d lines", st, i)
	}
	if allocs > lineAllocCeiling {
		t.Errorf("a fit line allocates %.1f times through Process and OnConformance, ceiling %d", allocs, lineAllocCeiling)
	}
	t.Logf("%.2f allocations per fit line (ceiling %d)", allocs, lineAllocCeiling)
}

// TestHeldLineAllocations pins the lossy path's repaired line: once an
// instance has had one held line, a held line through the reorder
// buffer's delivery, Process and OnConformance allocates nothing. The
// reorder stamp is set inline on the delivery's copy, and the evidence
// entry shares the instance's {instance, reorder} attrs map.
func TestHeldLineAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	mgr, sess, loop := fitLoop(t)
	mgr.deliver(pipeline.Delivery{Event: loop[0], Held: true})
	i := 1
	allocs := testing.AllocsPerRun(400, func() {
		mgr.deliver(pipeline.Delivery{Event: loop[i%len(loop)], Held: true})
		i++
	})
	if allocs != 0 {
		t.Errorf("a held fit line allocates %.1f times through delivery, Process and OnConformance", allocs)
	}
	if st := sess.Checker().StatsFor("t"); st.Fit != st.Events {
		t.Fatalf("held lines did not all replay fit: %+v", st)
	}
	entries := sess.Timeline(flight.KindLogEvent).Entries
	if last := entries[len(entries)-1]; last.Attrs["reorder"] != logging.ReorderHeld || last.Attrs["instance"] != "t" {
		t.Errorf("the held line's evidence entry carries %v", last.Attrs)
	}
}

// fitLoop watches instance "t" under a manager that is not started,
// feeds it the first eight lines of a clean trace (into the replacement
// loop, once round) and returns the loop's four lines, which replay fit
// over and over.
func fitLoop(t *testing.T) (*Manager, *Session, []logging.Event) {
	t.Helper()
	clk := clock.NewScaled(1000, time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC))
	bus := logging.NewBus()
	t.Cleanup(bus.Close)
	// Neither the cloud nor the manager is started: no goroutine allocates
	// beside the measured call.
	mgr, err := NewManager(ManagerConfig{
		Cloud: simaws.New(clk, simaws.FastProfile(), simaws.WithSeed(1)), Bus: bus,
		DisableAssertions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Stop)
	sess, err := mgr.Watch(Expectation{ASGName: "pm--asg", ClusterSize: 4}, BindInstance("t"))
	if err != nil {
		t.Fatal(err)
	}

	now := clk.Now()
	event := func(seq int, body string) logging.Event {
		return logging.Event{
			Timestamp: now, Source: "asgard.log", SourceHost: "asgard", Type: logging.TypeOperation,
			Fields:  map[string]string{"taskid": "t"},
			Message: logging.FormatOperationLine(now, "t", body),
			Seq:     uint64(seq), CauseID: uint64(seq),
		}
	}
	trace := ingestTrace()
	for i, body := range trace[:8] {
		mgr.processor.Process(event(i+1, body))
	}
	loop := make([]logging.Event, 4)
	for i, body := range trace[4:8] {
		loop[i] = event(100+i, body)
	}
	return mgr, sess, loop
}

// TestUnownedRouteCostIndependentOfSessions pins the route of a line whose
// instance no session owns while no session adopts (the federated member's
// case for the lines another member owns): a shard lookup and a counter,
// with no allocation, no session visited and no registry lock taken, so
// it costs the same with 1 and with 1000 bound-only sessions.
func TestUnownedRouteCostIndependentOfSessions(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	ev := logging.Event{Type: logging.TypeOperation, Fields: map[string]string{"taskid": "stranger", "asgid": "op-0--asg"}}
	for _, n := range []int{1, 1000} {
		m := newGapManager(t, newManualClock(), nil)
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("op-%d", i)
			if _, err := m.Watch(Expectation{ASGName: id + "--asg", ClusterSize: 2}, WithSessionID(id), BindInstance(id+"-task")); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { m.route("stranger", ev) }); allocs != 0 {
			t.Errorf("%d sessions: routing an unowned instance allocates %.1f times", n, allocs)
		}
		// With the registry locked, a route that scanned the sessions
		// would wait here.
		done := make(chan bool, 1)
		m.mu.Lock()
		go func() { done <- m.route("stranger", ev) == nil }()
		select {
		case dropped := <-done:
			if !dropped {
				t.Errorf("%d sessions: an unowned instance was routed to a session", n)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%d sessions: routing an unowned instance waits for the session registry", n)
		}
		m.mu.Unlock()
	}
}

// TestAdoptersFollowRegistry: the adoption scan runs exactly while some
// registered session may adopt — Watch and RestoreSession count such a
// session in, drop counts it out.
func TestAdoptersFollowRegistry(t *testing.T) {
	m := newGapManager(t, newManualClock(), nil)
	ev := logging.Event{Type: logging.TypeOperation, Fields: map[string]string{"taskid": "pm--asg-task"}}
	s, err := m.Watch(Expectation{ASGName: "pm--asg", ClusterSize: 2}, WithSessionID("pm"), MatchASGInstances())
	if err != nil {
		t.Fatal(err)
	}
	if h := m.route("pm--asg-task", ev); h != pipeline.Handler(s) {
		t.Fatalf("a matching session did not adopt the instance: %v", h)
	}
	snap, err := m.ExportSession("pm")
	if err != nil {
		t.Fatal(err)
	}
	m.Remove("pm")
	if got := m.adopters.Load(); got != 0 {
		t.Fatalf("%d adopters after the only one was removed", got)
	}
	if _, err := m.RestoreSession(snap); err != nil {
		t.Fatal(err)
	}
	if got := m.adopters.Load(); got != 1 {
		t.Fatalf("%d adopters after restoring one", got)
	}
	if h := m.route("pm--asg-other", ev); h == nil {
		t.Error("the restored session did not adopt a new matching instance")
	}
}

// TestRouteTakesNoSessionLock: routing a line to the session that owns its
// instance, active or ended, reads the session's state without its lock.
func TestRouteTakesNoSessionLock(t *testing.T) {
	m := newGapManager(t, newManualClock(), nil)
	s := watchGap(t, m, "own")
	ev := logging.Event{Type: logging.TypeOperation, Fields: map[string]string{"taskid": "own-task"}}
	for _, want := range []pipeline.Handler{s, nil} {
		done := make(chan pipeline.Handler, 1)
		s.mu.Lock()
		go func() { done <- m.route("own-task", ev) }()
		select {
		case got := <-done:
			if got != want {
				t.Errorf("route = %v, want %v", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Error("routing an owned instance waits for the session lock")
			s.mu.Unlock()
			<-done
			s.mu.Lock()
		}
		s.mu.Unlock()
		s.End()
	}
}

// cleanTraceAllocs is what one freshly watched session, under a fresh
// manager, allocates while one whole clean 21-line trace of the
// ingest_clean shape is fed to it through Processor.Process, flight
// recorder on and assertions off. Watch has already made the instance
// record and opened the flight ring, which starts large enough for the
// trace's entries, so neither appears here. Per session (31):
//   - the verdict events' shared fields maps, one per (step, verdict):
//     8 steps × 2 (map and its group) = 16;
//   - their cached messages, one per (step, verdict, activity): 8;
//   - the instance's verdict cache map holding both: 2;
//   - logAttrs, the {instance: id} attrs map its evidence entries
//     share: 2;
//   - the checker's instance state: its record, its fired counts and
//     its slot in the instance map: 3.
//
// Per manager, on its first line, which a resident manager amortizes
// over every session it serves (4): the started-set entry (1), the bus's
// sequence counter for the conformance stream (1), and the central
// store's first chunk and chunk list (2). No allocation is made per line.
const cleanTraceAllocs = 35

// TestCleanTraceAllocations pins the per-session remainder of the ingest
// path: what a session allocates once per instance, not per line.
func TestCleanTraceAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	clk := clock.NewScaled(1000, time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC))
	now := clk.Now()
	trace := ingestTrace()
	evs := make([]logging.Event, len(trace))
	for i, body := range trace {
		evs[i] = logging.Event{
			Timestamp: now, Source: "asgard.log", SourceHost: "asgard", Type: logging.TypeOperation,
			Fields: map[string]string{"taskid": "t"}, Message: logging.FormatOperationLine(now, "t", body),
			Seq: uint64(i + 1), CauseID: uint64(i + 1),
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	// Run 0 warms what the process makes once (metric label children).
	for run := 0; run < 4; run++ {
		// A fresh manager each run, neither it nor its cloud started: no
		// goroutine allocates beside the measured calls, and every run
		// starts from the same empty maps.
		bus := logging.NewBus()
		mgr, err := NewManager(ManagerConfig{
			Cloud: simaws.New(clk, simaws.FastProfile(), simaws.WithSeed(1)), Bus: bus,
			DisableAssertions: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := mgr.Watch(Expectation{ASGName: "pm--asg", ClusterSize: 4}, BindInstance("t"))
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		for _, ev := range evs {
			mgr.processor.Process(ev)
		}
		runtime.ReadMemStats(&after)
		mgr.Stop()
		bus.Close()
		if st := sess.Checker().StatsFor("t"); st.Fit != len(trace) || sess.State() != SessionEnded {
			t.Fatalf("the trace did not replay fit to its end: %+v, %s", st, sess.State())
		}
		if got := after.Mallocs - before.Mallocs; run > 0 && got != cleanTraceAllocs {
			t.Errorf("a session allocates %d times over its clean %d-line trace, want %d", got, len(trace), cleanTraceAllocs)
		}
	}
}
