package logstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"poddiagnosis/internal/logging"
)

// chunkSizes are the store sizes on either side of chunk boundaries.
var chunkSizes = []int{0, 1, chunkSize - 1, chunkSize, chunkSize + 1, 3*chunkSize + 7}

// mixedEvents returns n events that vary every field Select filters on:
// four types, instance ids under both field names (and none), tags, and
// timestamps that step back every few events and repeat, so the
// timestamp sort has ties whose arrival order must survive.
func mixedEvents(n int) []logging.Event {
	types := []string{logging.TypeOperation, logging.TypeCloud, logging.TypeAssertion, logging.TypeConformance}
	t0 := time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC)
	out := make([]logging.Event, n)
	for i := range out {
		e := logging.Event{
			Timestamp: t0.Add(time.Duration(i/3-(i%7)) * time.Second),
			Source:    "asgard.log", SourceHost: "asgard", Type: types[i%len(types)],
			Fields:  map[string]string{},
			Message: fmt.Sprintf("line %d", i),
			Seq:     uint64(i + 1),
		}
		switch i % 5 {
		case 0:
			e.Fields["taskid"] = fmt.Sprintf("t%d", i%11)
		case 1:
			e.Fields["processinstanceid"] = fmt.Sprintf("t%d", i%11)
		case 2:
			e.Fields["taskid"] = "ignored"
			e.Fields["processinstanceid"] = fmt.Sprintf("p%d", i%3)
		}
		if i%4 == 0 {
			e.Tags = []string{"step4"}
		}
		out[i] = e
	}
	return out
}

// plainSelect is Select over a plain slice: filter, then a stable sort by
// timestamp.
func plainSelect(events []logging.Event, q Query) []logging.Event {
	var out []logging.Event
	for _, e := range events {
		id := e.Field("processinstanceid")
		if id == "" {
			id = e.Field("taskid")
		}
		if (q.Type == "" || e.Type == q.Type) && (q.InstanceID == "" || id == q.InstanceID) &&
			(q.Tag == "" || e.HasTag(q.Tag)) && (q.Since.IsZero() || !e.Timestamp.Before(q.Since)) {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Timestamp.Before(out[j].Timestamp) })
	return out
}

// TestChunkedStoreMatchesPlainSlice writes stores of every size around
// the chunk boundaries and holds All, Select (each criterion alone and
// combined), InstanceIDs and Len to what one plain slice answers.
func TestChunkedStoreMatchesPlainSlice(t *testing.T) {
	for _, n := range chunkSizes {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			events := mixedEvents(n)
			s := NewStore()
			for _, e := range events {
				s.Write(e)
			}
			if s.Len() != n {
				t.Fatalf("Len = %d, want %d", s.Len(), n)
			}
			if all := s.All(); all == nil || len(all) != n || (n > 0 && !reflect.DeepEqual(all, events)) {
				t.Fatalf("All returned %d events (nil %v), not the %d written in order", len(all), all == nil, n)
			}
			since := time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC).Add(time.Duration(n/6) * time.Second)
			for _, q := range []Query{
				{},
				{Type: logging.TypeCloud},
				{InstanceID: "t3"},
				{InstanceID: "p1"},
				{InstanceID: "ignored"},
				{Tag: "step4"},
				{Since: since},
				{Type: logging.TypeOperation, InstanceID: "t0", Tag: "step4", Since: since},
			} {
				if got, want := s.Select(q), plainSelect(events, q); !reflect.DeepEqual(got, want) {
					t.Errorf("Select(%+v) returned %d events, the plain slice %d (or another order)", q, len(got), len(want))
				}
			}
			seen := map[string]bool{}
			for _, e := range plainSelect(events, Query{}) {
				if id := e.Field("processinstanceid"); id != "" {
					seen[id] = true
				} else if id := e.Field("taskid"); id != "" {
					seen[id] = true
				}
			}
			want := make([]string, 0, len(seen))
			for id := range seen {
				want = append(want, id)
			}
			sort.Strings(want)
			if got := s.InstanceIDs(); !reflect.DeepEqual(got, want) {
				t.Errorf("InstanceIDs = %v, want %v", got, want)
			}
		})
	}
}

// TestChunkedStoreSaveLoadIsByteIdentical saves each store, loads it
// back and saves again: both archives are the same bytes, and the same
// as encoding the written events one per line.
func TestChunkedStoreSaveLoadIsByteIdentical(t *testing.T) {
	for _, n := range chunkSizes {
		events := mixedEvents(n)
		s := NewStore()
		for _, e := range events {
			s.Write(e)
		}
		var first, plain bytes.Buffer
		if err := s.Save(&first); err != nil {
			t.Fatal(err)
		}
		enc := json.NewEncoder(&plain)
		for _, e := range events {
			if err := enc.Encode(e); err != nil {
				t.Fatal(err)
			}
		}
		loaded, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("%d events: %v", n, err)
		}
		var second bytes.Buffer
		if err := loaded.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), plain.Bytes()) || !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("%d events: save (%d B), plain encoding (%d B) and save after load (%d B) differ",
				n, first.Len(), plain.Len(), second.Len())
		}
		if loaded.Len() != n {
			t.Errorf("%d events: loaded store holds %d", n, loaded.Len())
		}
	}
}

// TestChunkedStoreConcurrentWriteAndAll writes across several chunk
// boundaries while a reader copies the store, for -race: every copy is
// the first Len events in arrival order.
func TestChunkedStoreConcurrentWriteAndAll(t *testing.T) {
	events := mixedEvents(3*chunkSize + 7)
	s := NewStore()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for _, e := range events {
			s.Write(e)
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		for i, e := range s.All() {
			if e.Seq != uint64(i+1) {
				t.Fatalf("event %d of a copy has seq %d, want %d", i, e.Seq, i+1)
			}
		}
	}
	wg.Wait()
	if s.Len() != len(events) {
		t.Fatalf("Len = %d after %d writes", s.Len(), len(events))
	}
}
