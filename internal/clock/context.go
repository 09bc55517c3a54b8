package clock

import (
	"context"
	"time"
)

// ContextWithTimeout derives a context that is cancelled after d of clock
// time. Unlike context.WithTimeout — which counts wall time — the deadline
// follows the (possibly scaled) clock, so simulated-time budgets translate
// correctly at any scale factor. A non-positive d yields a plain
// cancellable context with no deadline. The deadline is a clock timer, not
// a goroutine; the returned CancelFunc stops it and must be called.
func ContextWithTimeout(parent context.Context, clk Clock, d time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	if d <= 0 {
		return ctx, cancel
	}
	if w, ok := clk.(wallTimed); ok {
		// Keeping the timer itself saves the Stop method value AfterFunc
		// would allocate.
		t := time.AfterFunc(w.toWall(d), cancel)
		return ctx, func() {
			t.Stop()
			cancel()
		}
	}
	stop := clk.AfterFunc(d, cancel)
	return ctx, func() {
		stop()
		cancel()
	}
}

// wallTimed is a Clock whose AfterFunc(d) is a wall-clock timer firing
// after toWall(d).
type wallTimed interface {
	toWall(d time.Duration) time.Duration
}
