package obs

import (
	"context"
	"flag"
	"net/http/httptest"
	"os"
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
