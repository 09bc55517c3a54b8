package clock

import (
	"context"
	"runtime"
	"testing"
	"time"
)

func TestContextWithTimeoutCancelsOnClockTime(t *testing.T) {
	c := NewScaled(1000, time.Unix(0, 0))
	ctx, cancel := ContextWithTimeout(context.Background(), c, time.Second) // 1ms wall
	defer cancel()
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("ContextWithTimeout(1s sim) at 1000x not done within 2s wall")
	}
	if ctx.Err() != context.Canceled {
		t.Fatalf("Err() = %v, want context.Canceled", ctx.Err())
	}
}

func TestContextWithTimeoutCancelStopsTimer(t *testing.T) {
	c := NewScaled(1000, time.Unix(0, 0))
	ctx, cancel := ContextWithTimeout(context.Background(), c, time.Hour)
	if ctx.Err() != nil {
		t.Fatalf("fresh context Err() = %v", ctx.Err())
	}
	cancel()
	cancel() // idempotent
	if ctx.Err() != context.Canceled {
		t.Fatalf("Err() after cancel = %v, want context.Canceled", ctx.Err())
	}
}

func TestContextWithTimeoutNonPositiveHasNoDeadline(t *testing.T) {
	c := NewScaled(1000, time.Unix(0, 0))
	ctx, cancel := ContextWithTimeout(context.Background(), c, 0)
	defer cancel()
	time.Sleep(5 * time.Millisecond)
	if ctx.Err() != nil {
		t.Fatalf("Err() = %v on a context with no deadline", ctx.Err())
	}
}

// contextWithTimeoutAllocs is what one ContextWithTimeout call and its
// cancel allocate: the cancelCtx and its CancelFunc (2), the wall timer
// (1), and the cancel closure that stops it (1). The timer's Stop method
// value (1) went when the scaled and real clocks began keeping the timer
// itself.
const contextWithTimeoutAllocs = 4

// goroutineSlack bounds the goroutines unrelated to the code under test
// that a goroutine count may catch exiting.
const goroutineSlack = 5

// A deadline is a clock timer, not a goroutine: a thousand live deadlines
// leave the goroutine count where it was.
func TestContextWithTimeoutStartsNoGoroutine(t *testing.T) {
	c := NewScaled(1, time.Unix(0, 0))
	before := runtime.NumGoroutine()
	cancels := make([]context.CancelFunc, 0, 1000)
	for i := 0; i < 1000; i++ {
		_, cancel := ContextWithTimeout(context.Background(), c, time.Hour)
		cancels = append(cancels, cancel)
	}
	// Goroutines other tests left exiting (a stopped ticker's) may still be
	// counted: allow a few, against the thousand a goroutine per deadline
	// would add.
	if after := runtime.NumGoroutine(); after > before+goroutineSlack {
		t.Errorf("1000 live deadlines: %d goroutines, was %d", after, before)
	}
	for _, cancel := range cancels {
		cancel()
	}
	if raceEnabled {
		return // the race detector adds allocations of its own
	}
	got := testing.AllocsPerRun(100, func() {
		_, cancel := ContextWithTimeout(context.Background(), c, time.Hour)
		cancel()
	})
	t.Logf("%.0f allocations per deadline", got)
	if got > contextWithTimeoutAllocs {
		t.Errorf("ContextWithTimeout + cancel: %.0f allocations, want ≤ %d", got, contextWithTimeoutAllocs)
	}
}
