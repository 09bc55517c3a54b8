package obs

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestConcurrentCounterAndHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	cv := r.CounterVec("test_ops_by_kind_total", "ops by kind", "kind")
	h := r.Histogram("test_latency_seconds", "latency", []float64{0.01, 0.1, 1})
	g := r.Gauge("test_depth", "depth")

	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			kind := []string{"a", "b"}[w%2]
			for i := 0; i < each; i++ {
				c.Inc()
				cv.With(kind).Add(2)
				h.Observe(0.05)
				g.Add(1)
				g.Dec()
			}
		}()
	}
	wg.Wait()

	if got := c.Value(); got != workers*each {
		t.Errorf("counter = %v, want %d", got, workers*each)
	}
	if got := cv.With("a").Value() + cv.With("b").Value(); got != workers*each*2 {
		t.Errorf("counter vec total = %v, want %d", got, workers*each*2)
	}
	if got := h.Count(); got != workers*each {
		t.Errorf("histogram count = %d, want %d", got, workers*each)
	}
	if got, want := h.Sum(), 0.05*workers*each; got < want*0.999 || got > want*1.001 {
		t.Errorf("histogram sum = %v, want ~%v", got, want)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %v, want 0", got)
	}
}

func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("pod_events_total", "Events consumed.").Add(42)
	cv := r.CounterVec("pod_calls_total", "API calls by op.", "op", "code")
	cv.With("Describe", "ok").Add(3)
	cv.With("Create", `quo"te`).Inc()
	r.Gauge("pod_queue_depth", "Queue depth.").Set(7.5)
	h := r.Histogram("pod_check_seconds", "Check latency.", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(2)

	want := strings.Join([]string{
		`# HELP pod_calls_total API calls by op.`,
		`# TYPE pod_calls_total counter`,
		`pod_calls_total{op="Create",code="quo\"te"} 1`,
		`pod_calls_total{op="Describe",code="ok"} 3`,
		`# HELP pod_check_seconds Check latency.`,
		`# TYPE pod_check_seconds histogram`,
		`pod_check_seconds_bucket{le="0.01"} 1`,
		`pod_check_seconds_bucket{le="0.1"} 2`,
		`pod_check_seconds_bucket{le="+Inf"} 3`,
		`pod_check_seconds_sum 2.055`,
		`pod_check_seconds_count 3`,
		`# HELP pod_events_total Events consumed.`,
		`# TYPE pod_events_total counter`,
		`pod_events_total 42`,
		`# HELP pod_queue_depth Queue depth.`,
		`# TYPE pod_queue_depth gauge`,
		`pod_queue_depth 7.5`,
		``,
	}, "\n")
	if got := r.Expose(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestIdempotentDeclaration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "help")
	b := r.Counter("same_total", "help")
	if a != b {
		t.Error("redeclaring a counter returned a different instrument")
	}
	defer func() {
		if recover() == nil {
			t.Error("conflicting redeclaration did not panic")
		}
	}()
	r.Gauge("same_total", "help")
}

func TestSpanParentChildLinkage(t *testing.T) {
	tr := NewTracer(16)
	ctx, root := tr.StartSpan(context.Background(), "walk")
	root.SetAttr("instance", "task-1")
	ctx2, child := tr.StartSpan(ctx, "test")
	_, grandchild := tr.StartSpan(ctx2, "api")
	grandchild.End()
	child.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanData{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	w, c, g := byName["walk"], byName["test"], byName["api"]
	if w.ParentID != 0 {
		t.Errorf("root has parent %d", w.ParentID)
	}
	if c.ParentID != w.SpanID || g.ParentID != c.SpanID {
		t.Errorf("parent linkage broken: walk=%d test.parent=%d test=%d api.parent=%d",
			w.SpanID, c.ParentID, c.SpanID, g.ParentID)
	}
	if c.TraceID != w.TraceID || g.TraceID != w.TraceID {
		t.Error("children did not inherit the trace id")
	}
	if w.Attrs["instance"] != "task-1" {
		t.Errorf("attr lost: %v", w.Attrs)
	}
	if got := tr.Trace(w.TraceID); len(got) != 3 || got[0].Name != "walk" {
		t.Errorf("Trace() = %v", got)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 40; i++ {
		_, s := tr.StartSpan(context.Background(), "s")
		s.End()
	}
	spans := tr.Spans()
	if len(spans) != 16 {
		t.Fatalf("got %d spans, want 16", len(spans))
	}
	if spans[0].SpanID != 25 || spans[15].SpanID != 40 {
		t.Errorf("ring kept wrong window: first=%d last=%d", spans[0].SpanID, spans[15].SpanID)
	}
}

func TestNilSpanSafety(t *testing.T) {
	var tr *Tracer
	ctx, s := tr.StartSpan(context.Background(), "x")
	s.SetAttr("k", "v") // must not panic
	s.End()
	if SpanFromContext(ctx) != nil {
		t.Error("nil tracer leaked a span into the context")
	}
}

func TestHTTPHandlers(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_total", "h").Inc()
	tr := NewTracer(16)
	ctx, root := tr.StartSpan(context.Background(), "root")
	_, child := tr.StartSpan(ctx, "child")
	child.End()
	root.End()

	rec := httptest.NewRecorder()
	MetricsHandler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "h_total 1") {
		t.Errorf("metrics body: %q", rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type: %q", ct)
	}

	rec = httptest.NewRecorder()
	TracesHandler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/traces", nil))
	var body struct {
		Spans []SpanData `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(body.Spans))
	}
}

// Finding a labelled series that exists allocates nothing, however many
// labels it has: the lookup key is built on the stack.
func TestSeriesLookupDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	r := NewRegistry()
	evals := r.CounterVec("lookup_evaluations_total", "h", "check", "status")
	lat := r.HistogramVec("lookup_seconds", "h", nil, "check", "status", "trigger")
	check, status := "asg-version-count", "fail"
	evals.With(check, status).Inc()
	lat.With(check, status, "log").Observe(0.01)
	got := testing.AllocsPerRun(100, func() {
		evals.With(check, status).Inc()
		lat.With(check, status, "log").Observe(0.01)
	})
	if got != 0 {
		t.Errorf("lookup of existing series: %.0f allocations, want 0", got)
	}
	if v := evals.With(check, status).Value(); v != 102 {
		t.Errorf("counter = %v, want 102", v)
	}
}
