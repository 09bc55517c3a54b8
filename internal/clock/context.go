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
	stop := clk.AfterFunc(d, cancel)
	return ctx, func() {
		stop()
		cancel()
	}
}
