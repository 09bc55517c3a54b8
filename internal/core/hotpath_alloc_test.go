package core

import (
	"fmt"
	"testing"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/pipeline"
	"poddiagnosis/internal/simaws"
)

// lineAllocCeiling is what one fit rolling-upgrade line may allocate on
// its way through Processor.Process and Session.OnConformance, flight
// recorder on. Today's four are the annotated copy of the event (its
// fields map, 2, and its one tag slice, sized for the line's tags, 1)
// and the published verdict event's message (1). The evidence entry's
// attrs map and the verdict event's fields map are shared per instance
// and per (instance, step, verdict), made on an instance's first lines
// before the measured loop. Classification, field extraction, token
// replay and the flight record contribute none. Raise it only with the
// allocation it admits named here.
const lineAllocCeiling = 4

// TestIngestLineAllocationCeiling pins the per-line allocation count of
// the ingest path the benchmark's allocs_per_unit is made of.
func TestIngestLineAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	clk := clock.NewScaled(1000, time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC))
	bus := logging.NewBus()
	defer bus.Close()
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
	for i, body := range trace[:8] { // into the replacement loop, once round
		mgr.processor.Process(event(i+1, body))
	}
	loop := make([]logging.Event, 4)
	for i, body := range trace[4:8] {
		loop[i] = event(100+i, body)
	}
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
