package obs

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"poddiagnosis/internal/clock"
)

// SpanData is one completed (or in-flight, when snapshotted) span.
type SpanData struct {
	// TraceID groups a tree of spans; it equals the root span's id.
	TraceID uint64 `json:"traceId"`
	// SpanID is unique per tracer.
	SpanID uint64 `json:"spanId"`
	// ParentID is the enclosing span's id; 0 for roots.
	ParentID uint64 `json:"parentId,omitempty"`
	// Name identifies the operation, e.g. "diagnosis.walk".
	Name string `json:"name"`
	// Start is the wall-clock start time.
	Start time.Time `json:"start"`
	// DurationUS is the wall-clock duration in microseconds. Spans measure
	// real compute cost; simulated-clock durations, where relevant, ride
	// along as attributes.
	DurationUS int64 `json:"durationUs"`
	// Attrs are free-form key/value annotations.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// spanAttrSlots is how many attributes a span keeps inline; the widest
// instrumented span, diagnosis.walk, sets eight. Further ones spill into a
// slice.
const spanAttrSlots = 8

// spanAttr is one attribute. A SetDuration attribute keeps its duration
// and is formatted only when the span is read.
type spanAttr struct {
	key, value string
	dur        time.Duration
	isDur      bool
}

func (a spanAttr) text() string {
	if a.isDur {
		return a.dur.String()
	}
	return a.value
}

// spanRecord is the compact form of a span: what a live span accumulates
// and what the tracer's ring stores. Attributes sit in a fixed array, so
// annotating a span allocates nothing; SpanData and its Attrs map are built
// only when the ring is read.
type spanRecord struct {
	traceID, spanID, parentID uint64
	name                      string
	start                     time.Time
	durationUS                int64
	nattrs                    int
	attrs                     [spanAttrSlots]spanAttr
	more                      []spanAttr // attributes past the inline slots
}

// set adds the attribute, replacing an earlier one of the same key.
func (r *spanRecord) set(a spanAttr) {
	for i := range r.attrs[:r.nattrs] {
		if r.attrs[i].key == a.key {
			r.attrs[i] = a
			return
		}
	}
	for i := range r.more {
		if r.more[i].key == a.key {
			r.more[i] = a
			return
		}
	}
	if r.nattrs < spanAttrSlots {
		r.attrs[r.nattrs] = a
		r.nattrs++
		return
	}
	r.more = append(r.more, a)
}

// data expands the record into its public form.
func (r *spanRecord) data() SpanData {
	d := SpanData{
		TraceID: r.traceID, SpanID: r.spanID, ParentID: r.parentID,
		Name: r.name, Start: r.start, DurationUS: r.durationUS,
	}
	if n := r.nattrs + len(r.more); n > 0 {
		d.Attrs = make(map[string]string, n)
		for _, a := range r.attrs[:r.nattrs] {
			d.Attrs[a.key] = a.text()
		}
		for _, a := range r.more {
			d.Attrs[a.key] = a.text()
		}
	}
	return d
}

// Span is a live span. End it exactly once; SetAttr after End is ignored.
type Span struct {
	t *Tracer

	mu    sync.Mutex
	rec   spanRecord
	ended bool
}

// Tracer creates spans and retains the most recent completed ones in a
// ring buffer. It is safe for concurrent use.
type Tracer struct {
	ids atomic.Uint64

	mu       sync.Mutex
	capacity int
	buf      []spanRecord // grows to capacity, then wraps
	next     int          // slot the next span overwrites once buf is full
}

// NewTracer returns a tracer retaining up to capacity completed spans
// (minimum 16). The ring grows with use up to that capacity.
func NewTracer(capacity int) *Tracer {
	return &Tracer{capacity: max(capacity, 16)}
}

// ctxKey carries the current span through a context.
type ctxKey struct{}

// spanContext is the context StartSpan returns: the parent context and
// the span in one allocation. It answers ctxKey itself and delegates
// everything else, Done and the cancelCtx lookup of context.WithCancel
// included, to the parent.
type spanContext struct {
	context.Context
	span Span
}

func (c *spanContext) Value(key any) any {
	if key == (ctxKey{}) {
		return &c.span
	}
	return c.Context.Value(key)
}

// StartSpan opens a span named name as a child of the span carried by
// ctx (if any) and returns a derived context carrying the new span. A nil
// tracer returns a no-op span, so instrumentation never needs nil checks.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	id := t.ids.Add(1)
	sc := &spanContext{Context: ctx, span: Span{t: t, rec: spanRecord{spanID: id, traceID: id, name: name, start: clock.Wall.Now()}}}
	s := &sc.span
	if parent, ok := ctx.Value(ctxKey{}).(*Span); ok && parent != nil {
		// Span and trace ids are immutable after creation; no lock needed.
		s.rec.parentID = parent.rec.spanID
		s.rec.traceID = parent.rec.traceID
	}
	return sc, s
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// ID returns the span's tracer-unique id (0 for a nil span). The id is
// immutable after creation, so no lock is needed.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.rec.spanID
}

// TraceID returns the id of the trace the span belongs to (0 for nil).
// The trace id is immutable after creation, so no lock is needed.
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.rec.traceID
}

// SetAttr annotates the span. Safe on nil and ended spans (no-op).
func (s *Span) SetAttr(key, value string) {
	s.set(spanAttr{key: key, value: value})
}

// SetDuration annotates the span with a duration, formatted as
// time.Duration.String when the span is read. Safe on nil and ended spans
// (no-op).
func (s *Span) SetDuration(key string, d time.Duration) {
	s.set(spanAttr{key: key, dur: d, isDur: true})
}

func (s *Span) set(a spanAttr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.rec.set(a)
}

// End closes the span and records it into the tracer's ring buffer. Safe
// on nil spans; repeated calls are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.rec.durationUS = clock.Wall.Since(s.rec.start).Microseconds()
	s.mu.Unlock()
	// The record is immutable once ended, so it is copied without s.mu.
	s.t.record(&s.rec)
}

// record appends one completed span to the ring.
func (t *Tracer) record(r *spanRecord) {
	t.mu.Lock()
	if len(t.buf) < t.capacity {
		t.buf = append(t.buf, *r)
	} else {
		t.buf[t.next] = *r
		t.next = (t.next + 1) % len(t.buf)
	}
	t.mu.Unlock()
}

// Spans returns the retained completed spans, oldest first.
func (t *Tracer) Spans() []SpanData {
	return t.collect(func(*spanRecord) bool { return true })
}

// collect expands the retained records that keep accepts, oldest first.
func (t *Tracer) collect(keep func(*spanRecord) bool) []SpanData {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, 0, len(t.buf))
	for _, part := range [2][]spanRecord{t.buf[t.next:], t.buf[:t.next]} {
		for i := range part {
			if keep(&part[i]) {
				out = append(out, part[i].data())
			}
		}
	}
	return out
}

// Trace returns the retained spans of one trace, parents before children
// (by start time, then span id).
func (t *Tracer) Trace(traceID uint64) []SpanData {
	out := t.collect(func(r *spanRecord) bool { return r.traceID == traceID })
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].SpanID < out[j].SpanID
	})
	return out
}

// Resize replaces the ring with one of the given capacity (minimum 16),
// discarding retained spans. The id sequence keeps advancing, so spans
// in flight across a resize still record unique ids.
func (t *Tracer) Resize(capacity int) {
	t.mu.Lock()
	t.capacity = max(capacity, 16)
	t.buf = nil
	t.next = 0
	t.mu.Unlock()
}

// Reset discards all retained spans (the id sequence keeps advancing).
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.buf = t.buf[:0]
	t.next = 0
	t.mu.Unlock()
}
