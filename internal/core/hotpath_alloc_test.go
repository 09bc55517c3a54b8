package core

import (
	"testing"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/logging"
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
