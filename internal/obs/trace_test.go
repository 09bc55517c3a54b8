package obs

import (
	"context"
	"flag"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"poddiagnosis/internal/clock"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// steppingClock advances 1.5ms on every read, so span starts and
// durations come out fixed.
type steppingClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *steppingClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(1500 * time.Microsecond)
	return c.now
}

func (c *steppingClock) Sleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }

func (c *steppingClock) AfterFunc(time.Duration, func()) func() bool {
	return func() bool { return true }
}

func (c *steppingClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// withWall runs f with clock.Wall replaced by a stepping clock.
func withWall(t *testing.T, f func()) {
	t.Helper()
	saved := clock.Wall
	clock.Wall = &steppingClock{now: time.Date(2013, 11, 19, 11, 48, 0, 0, time.UTC)}
	defer func() { clock.Wall = saved }()
	f()
}

// The /traces JSON of a walk with its eight attributes, a child with a
// duration attribute, and a span with more attributes than fit inline,
// byte for byte. The golden was written by the tracer that kept each
// span's attributes in a map.
func TestTracesJSONGolden(t *testing.T) {
	tr := NewTracer(16)
	withWall(t, func() {
		ctx, walk := tr.StartSpan(context.Background(), "diagnosis.walk")
		walk.SetAttr("source", "assertion")
		walk.SetAttr("instance", "pushing pm--asg")
		walk.SetAttr("step", "step7")
		walk.SetAttr("assertion", "asg-version-count")
		walk.SetAttr("op", "op-1")
		_, eval := tr.StartSpan(ctx, "assertion.evaluate")
		eval.SetAttr("check", "asg-version-count")
		eval.SetAttr("status", "fail")
		eval.SetDuration("simDuration", 90*time.Second)
		eval.SetAttr("status", "pass") // replaces the first value
		eval.End()
		walk.SetAttr("conclusion", "identified")
		walk.SetAttr("tests", "3")
		walk.SetDuration("simDuration", 2500*time.Millisecond)
		walk.End()
		_, wide := tr.StartSpan(context.Background(), "http.wide")
		for i := 0; i < spanAttrSlots+3; i++ {
			wide.SetAttr("k"+strconv.Itoa(i), "v"+strconv.Itoa(i))
		}
		wide.SetAttr("k9", "replaced")
		wide.End()
	})
	rec := httptest.NewRecorder()
	TracesHandler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/traces", nil))
	got := rec.Body.Bytes()
	const golden = "testdata/traces.golden.json"
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("/traces JSON differs from %s:\n got: %s\nwant: %s", golden, got, want)
	}
}

// Annotating a live span allocates nothing: attributes, durations
// included, sit in the span's inline slots.
func TestSpanAttrsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	tr := NewTracer(16)
	_, s := tr.StartSpan(context.Background(), "s")
	defer s.End()
	got := testing.AllocsPerRun(100, func() {
		s.SetAttr("source", "assertion")
		s.SetAttr("instance", "pushing pm--asg")
		s.SetAttr("step", "step7")
		s.SetAttr("assertion", "asg-version-count")
		s.SetAttr("op", "op-1")
		s.SetAttr("conclusion", "identified")
		s.SetAttr("tests", "3")
		s.SetDuration("simDuration", 2500*time.Millisecond)
	})
	if got != 0 {
		t.Errorf("eight attributes: %.0f allocations, want 0", got)
	}
}

// A span is its own context: opening one with a live tracer is one
// allocation, the span and the context it is carried in together.
func TestStartSpanAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	tr := NewTracer(16)
	ctx, root := tr.StartSpan(context.Background(), "root")
	defer root.End()
	for i := 0; i < 16; i++ { // fill the ring: recording then copies in place
		_, s := tr.StartSpan(ctx, "fill")
		s.End()
	}
	got := testing.AllocsPerRun(100, func() {
		_, s := tr.StartSpan(ctx, "child")
		s.End()
	})
	if got != 1 {
		t.Errorf("StartSpan + End: %.0f allocations, want 1", got)
	}
}

// A context.WithCancel child of a span context must find the cancelCtx
// above the span through Value and register with it, as it does under a
// context.WithValue: a thousand such children start no goroutine, and
// cancelling the parent still reaches every one.
func TestCancelUnderSpanStartsNoGoroutine(t *testing.T) {
	tr := NewTracer(16)
	parent, cancelParent := context.WithCancel(context.Background())
	defer cancelParent()
	sctx, span := tr.StartSpan(parent, "s")
	defer span.End()
	before := runtime.NumGoroutine()
	children := make([]context.Context, 0, 1000)
	cancels := make([]context.CancelFunc, 0, 1000)
	for i := 0; i < 1000; i++ {
		child, cancel := context.WithCancel(sctx)
		children = append(children, child)
		cancels = append(cancels, cancel)
	}
	// Allow for a few goroutines other tests left exiting, against the
	// thousand a goroutine per child would add.
	if after := runtime.NumGoroutine(); after > before+5 {
		t.Errorf("1000 cancellable children of a span: %d goroutines, was %d", after, before)
	}
	cancelParent()
	for i, child := range children {
		select {
		case <-child.Done():
		default:
			t.Fatalf("child %d not cancelled with its span's parent", i)
		}
	}
	for _, cancel := range cancels {
		cancel()
	}
}

// The span context answers for its span and passes everything else —
// deadline, done channel, error and other values — through to its parent.
func TestSpanContextDelegatesToParent(t *testing.T) {
	type key struct{}
	tr := NewTracer(16)
	deadline := time.Now().Add(time.Hour)
	parent, cancel := context.WithDeadline(context.WithValue(context.Background(), key{}, "v"), deadline)
	sctx, span := tr.StartSpan(parent, "s")
	defer span.End()
	if got, ok := sctx.Deadline(); !ok || !got.Equal(deadline) {
		t.Errorf("Deadline() = %v, %v; want %v, true", got, ok, deadline)
	}
	if sctx.Done() != parent.Done() {
		t.Error("Done() is not the parent's channel")
	}
	if sctx.Value(key{}) != "v" {
		t.Errorf("Value(parent key) = %v, want v", sctx.Value(key{}))
	}
	if SpanFromContext(sctx) != span {
		t.Error("SpanFromContext does not return the span")
	}
	if sctx.Err() != nil {
		t.Errorf("Err() = %v before cancel", sctx.Err())
	}
	cancel()
	if sctx.Err() != context.Canceled {
		t.Errorf("Err() = %v after the parent's cancel, want %v", sctx.Err(), context.Canceled)
	}
}

func TestTracerRingGrowsToCapacity(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 5; i++ {
		_, s := tr.StartSpan(context.Background(), "s")
		s.End()
	}
	if n := len(tr.Spans()); n != 5 {
		t.Fatalf("got %d spans, want 5", n)
	}
	tr.Reset()
	if n := len(tr.Spans()); n != 0 {
		t.Fatalf("got %d spans after Reset, want 0", n)
	}
	tr.Resize(20)
	for i := 0; i < 25; i++ {
		_, s := tr.StartSpan(context.Background(), "s")
		s.End()
	}
	spans := tr.Spans()
	if len(spans) != 20 || spans[19].SpanID != spans[0].SpanID+19 {
		t.Fatalf("after Resize(20) and 25 spans: %d spans, ids %d..%d", len(spans), spans[0].SpanID, spans[len(spans)-1].SpanID)
	}
}
