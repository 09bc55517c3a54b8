package core

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"

	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/logstore"
	"poddiagnosis/internal/obs/flight"
)

// TestSharedEvidenceMapsAreReadOnly drives a clean trace through a
// running manager while readers JSON-encode the session's log.event
// entries and the central store's verdict events and query the store,
// for -race: the attrs and fields maps those share are never written
// after they are recorded or published. It then checks that the maps
// really are shared, so the readers raced the shared copies.
func TestSharedEvidenceMapsAreReadOnly(t *testing.T) {
	m := newGapManager(t, newManualClock(), nil)
	sess, err := m.Watch(Expectation{ASGName: "pm--asg", ClusterSize: 4}, BindInstance("t"))
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	trace := ingestTrace()
	stored := func() int { return len(m.Store().Select(logstore.Query{Type: logging.TypeConformance})) }

	done := make(chan struct{})
	var readers sync.WaitGroup
	read := func(f func()) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				f()
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	read(func() {
		if _, err := json.Marshal(sess.Timeline(flight.KindLogEvent)); err != nil {
			t.Error(err)
		}
	})
	read(func() {
		if _, err := json.Marshal(m.Store().Select(logstore.Query{Type: logging.TypeConformance, InstanceID: "t"})); err != nil {
			t.Error(err)
		}
	})

	now := m.Clock().Now()
	for _, body := range trace {
		m.cfg.Bus.Publish(logging.Event{
			Timestamp: now, Source: "asgard.log", SourceHost: "asgard", Type: logging.TypeOperation,
			Fields:  map[string]string{"taskid": "t"},
			Message: logging.FormatOperationLine(now, "t", body),
		})
	}
	deadline := time.Now().Add(10 * time.Second)
	for stored() < len(trace) || len(sess.Timeline(flight.KindLogEvent).Entries) < len(trace) {
		if time.Now().After(deadline) {
			t.Fatalf("after 10s: %d verdict events stored, %d log.event entries, want %d each",
				stored(), len(sess.Timeline(flight.KindLogEvent).Entries), len(trace))
		}
		time.Sleep(time.Millisecond)
	}
	close(done)
	readers.Wait()

	attrs := map[uintptr]bool{}
	for _, e := range sess.Timeline(flight.KindLogEvent).Entries {
		if e.Attrs["instance"] != "t" {
			t.Fatalf("log.event entry %d has attrs %v", e.ID, e.Attrs)
		}
		attrs[reflect.ValueOf(e.Attrs).Pointer()] = true
	}
	if len(attrs) != 1 {
		t.Errorf("the instance's %d log.event entries carry %d attrs maps, want one shared", len(trace), len(attrs))
	}
	groups := map[string]map[uintptr]bool{} // (step, verdict) -> fields maps
	for _, e := range m.Store().Select(logstore.Query{Type: logging.TypeConformance}) {
		key := e.Field("stepid") + "|" + e.Field("verdict")
		if groups[key] == nil {
			groups[key] = map[uintptr]bool{}
		}
		groups[key][reflect.ValueOf(e.Fields).Pointer()] = true
	}
	if len(groups) >= len(trace) {
		t.Errorf("%d verdict events fall in %d (step, verdict) groups: no group repeats", len(trace), len(groups))
	}
	for key, maps := range groups {
		if len(maps) != 1 {
			t.Errorf("verdict events of %s carry %d fields maps, want one shared", key, len(maps))
		}
	}
}
