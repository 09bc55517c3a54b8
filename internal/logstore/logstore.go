// Package logstore implements the central log storage and the central log
// processor of the paper's architecture (Figure 1): annotated logs from
// every source — operation nodes, the cloud, assertion evaluation,
// conformance checking, and diagnosis — are merged into one queryable
// store; the central processor scans incoming events for failure
// indicators from sources the local processors do not watch (e.g. failed
// cloud scaling activities) and triggers error diagnosis.
package logstore

import (
	"sort"
	"strings"
	"sync"
	"time"

	"poddiagnosis/internal/logging"
)

// chunkSize is how many events one chunk of a Store holds.
const chunkSize = 1024

// Store is the central log storage: an append-only, queryable event log.
// Events are appended into fixed-size chunks, so the store grows one
// chunk at a time and never copies a full one. It is safe for
// concurrent use.
type Store struct {
	mu sync.Mutex
	// chunks hold the events in arrival order; every chunk but the last
	// is full.
	chunks [][]logging.Event
	n      int
}

var _ logging.Sink = (*Store)(nil)

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// Write implements logging.Sink.
func (s *Store) Write(e logging.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n%chunkSize == 0 {
		s.chunks = append(s.chunks, make([]logging.Event, 0, chunkSize))
	}
	last := &s.chunks[len(s.chunks)-1]
	*last = append(*last, e)
	s.n++
}

// Len returns the number of stored events.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// All returns a copy of every event in arrival order.
func (s *Store) All() []logging.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]logging.Event, 0, s.n)
	for _, c := range s.chunks {
		out = append(out, c...)
	}
	return out
}

// Query returns events matching every non-zero criterion.
type Query struct {
	// Type filters by event type.
	Type string
	// InstanceID filters by process instance (taskid/processinstanceid
	// field).
	InstanceID string
	// Tag filters by tag presence.
	Tag string
	// Since filters by timestamp (inclusive).
	Since time.Time
}

// Select returns matching events ordered by timestamp.
func (s *Store) Select(q Query) []logging.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []logging.Event
	for _, c := range s.chunks {
		for _, e := range c {
			if q.Type != "" && e.Type != q.Type {
				continue
			}
			if q.InstanceID != "" {
				id := e.Field("processinstanceid")
				if id == "" {
					id = e.Field("taskid")
				}
				if id != q.InstanceID {
					continue
				}
			}
			if q.Tag != "" && !e.HasTag(q.Tag) {
				continue
			}
			if !q.Since.IsZero() && e.Timestamp.Before(q.Since) {
				continue
			}
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Timestamp.Before(out[j].Timestamp) })
	return out
}

// InstanceIDs returns the distinct process instance ids seen.
func (s *Store) InstanceIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[string]bool)
	for _, c := range s.chunks {
		for _, e := range c {
			id := e.Field("processinstanceid")
			if id == "" {
				id = e.Field("taskid")
			}
			if id != "" {
				seen[id] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// CentralProcessor scans events arriving at the central store for failure
// indicators and invokes OnFailure for each. It watches sources the local
// processors do not: cloud infrastructure logs with failed activities and
// error markers in any merged stream.
type CentralProcessor struct {
	store     *Store
	onFailure func(logging.Event)

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewCentralProcessor returns a processor feeding the store and invoking
// onFailure for each failure indicator (may be nil to only store).
func NewCentralProcessor(store *Store, onFailure func(logging.Event)) *CentralProcessor {
	return &CentralProcessor{store: store, onFailure: onFailure, stop: make(chan struct{})}
}

// Start consumes the subscription until Stop.
func (c *CentralProcessor) Start(sub *logging.Subscription) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			select {
			case <-c.stop:
				return
			case ev, ok := <-sub.C:
				if !ok {
					return
				}
				c.Process(ev)
			}
		}
	}()
}

// Stop halts the processing goroutine.
func (c *CentralProcessor) Stop() {
	close(c.stop)
	c.wg.Wait()
}

// Process stores one event and fires the failure callback when the event
// indicates a failure or exception (§III.B: "a central log processor grabs
// the logs ... and triggers the error diagnosis when it finds a failure or
// exception indicated by the log line").
func (c *CentralProcessor) Process(ev logging.Event) {
	c.store.Write(ev)
	if c.onFailure == nil {
		return
	}
	if IsFailureIndicator(ev) {
		c.onFailure(ev)
	}
}

// IsFailureIndicator reports whether the event signals a failure from a
// non-POD source worth diagnosing.
func IsFailureIndicator(ev logging.Event) bool {
	switch ev.Type {
	case logging.TypeCloud:
		if ev.Field("status") == "Failed" {
			return true
		}
		return strings.Contains(ev.Message, "disruption started")
	case logging.TypeOperation:
		return strings.Contains(ev.Message, "ERROR") ||
			strings.Contains(ev.Message, "Exception")
	default:
		return false
	}
}
