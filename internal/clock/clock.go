// Package clock provides an abstraction over time so that the entire
// POD-Diagnosis stack — the simulated cloud, the upgrade orchestrator, the
// log pipeline, timers for assertion evaluation, and the diagnosis engine —
// can run either against the real wall clock or against a scaled clock.
//
// The scaled clock is the key to reproducing the paper's evaluation offline:
// a rolling upgrade of a 20-instance cluster takes tens of minutes of
// simulated time, but with a scale factor of, say, 100, it executes in
// seconds of wall time while every observed duration (diagnosis time, API
// latency, step duration) is still reported in simulated units that are
// directly comparable to the paper's Figure 6.
package clock

import (
	"context"
	"sync"
	"time"
)

// Clock is the time source used throughout the repository. Implementations
// must be safe for concurrent use.
type Clock interface {
	// Now returns the current (possibly simulated) time.
	Now() time.Time
	// Sleep blocks for d of clock time or until ctx is done, returning
	// ctx.Err() in the latter case.
	Sleep(ctx context.Context, d time.Duration) error
	// AfterFunc waits for d of clock time and then calls f in its own
	// goroutine, like time.AfterFunc. stop cancels the call; it reports
	// false when f has already been started (or stop was called before).
	AfterFunc(d time.Duration, f func()) (stop func() bool)
	// Since returns the clock time elapsed since t.
	Since(t time.Time) time.Duration
}

// Real is a Clock backed directly by the time package.
type Real struct{}

var _ Clock = Real{}

// NewReal returns a Clock that uses the real wall clock.
func NewReal() Real { return Real{} }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(ctx context.Context, d time.Duration) error {
	return sleepWall(ctx, d)
}

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) (stop func() bool) {
	return time.AfterFunc(d, f).Stop
}

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// Scaled is a Clock whose time advances scale times faster than the wall
// clock. A duration d of scaled time corresponds to d/scale of wall time.
// The zero value is not usable; construct with NewScaled.
type Scaled struct {
	scale     float64
	wallEpoch time.Time
	simEpoch  time.Time

	mu sync.Mutex // guards nothing mutable today; reserved for pause support
}

var _ Clock = (*Scaled)(nil)

// NewScaled returns a Clock running scale times faster than real time.
// Simulated time starts at simEpoch. A scale of 1 behaves like the real
// clock but with a controlled epoch; scale must be positive.
func NewScaled(scale float64, simEpoch time.Time) *Scaled {
	if scale <= 0 {
		panic("clock: scale must be positive")
	}
	return &Scaled{
		scale:     scale,
		wallEpoch: time.Now(),
		simEpoch:  simEpoch,
	}
}

// Scale returns the speed-up factor of the clock.
func (c *Scaled) Scale() float64 { return c.scale }

// Now implements Clock.
func (c *Scaled) Now() time.Time {
	wall := time.Since(c.wallEpoch)
	return c.simEpoch.Add(time.Duration(float64(wall) * c.scale))
}

// Sleep implements Clock. It blocks for d of simulated time, i.e. d/scale
// of wall time.
func (c *Scaled) Sleep(ctx context.Context, d time.Duration) error {
	return sleepWall(ctx, c.toWall(d))
}

// AfterFunc implements Clock: f runs after d of simulated time, i.e.
// d/scale of wall time.
func (c *Scaled) AfterFunc(d time.Duration, f func()) (stop func() bool) {
	return time.AfterFunc(c.toWall(d), f).Stop
}

// Since implements Clock.
func (c *Scaled) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func (c *Scaled) toWall(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	wall := time.Duration(float64(d) / c.scale)
	if wall <= 0 {
		wall = time.Nanosecond
	}
	return wall
}

func sleepWall(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		// Still honour cancellation to keep semantics uniform. Err, unlike
		// a select on Done, does not make a cancelCtx allocate its channel.
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
