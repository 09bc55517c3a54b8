package resilience

import (
	"context"
	"sync"
	"testing"
	"time"
)

// manualClock is a hand-advanced clock; Sleep advances it, so backoff
// waits are instantaneous and observable.
type manualClock struct {
	mu    sync.Mutex
	t     time.Time
	slept time.Duration
}

func newManualClock() *manualClock {
	return &manualClock{t: time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func (c *manualClock) Sleep(ctx context.Context, d time.Duration) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.slept += d
	c.mu.Unlock()
	return nil
}

// AfterFunc fires at once: the call runs without waiting for the clock.
func (c *manualClock) AfterFunc(_ time.Duration, f func()) func() bool {
	go f()
	return func() bool { return false }
}

func (c *manualClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func (c *manualClock) Slept() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slept
}

func TestRetryableClassification(t *testing.T) {
	for _, s := range []string{
		"RequestLimitExceeded: request limit exceeded for account",
		"Throttling: rate exceeded",
		"ServiceUnavailable: try again",
		"consistentapi: API timeout after 20s",
		"context deadline exceeded",
		"dial tcp 127.0.0.1:8077: connection refused",
	} {
		if !Retryable(s) {
			t.Errorf("Retryable(%q) = false", s)
		}
	}
	for _, s := range []string{"", "NotFound: no such group", "validation error"} {
		if Retryable(s) {
			t.Errorf("Retryable(%q) = true", s)
		}
	}
}

// fail is a call that always fails retryably.
func fail(context.Context) Verdict { return VerdictRetryable }

// openBreaker opens key's breaker: one call fails every attempt, and the
// last attempt reaches the failure threshold.
func openBreaker(t *testing.T, x *Executor, key string) {
	t.Helper()
	if out := x.Do(context.Background(), key, fail); out.Attempts != maxAttempts {
		t.Fatalf("opening call: outcome = %+v, want %d attempts", out, maxAttempts)
	}
	if st := x.Snapshot(); st.Breakers[0].State != BreakerOpen {
		t.Fatalf("breaker = %+v after %d failures", st.Breakers[0], failureThreshold)
	}
}

func TestDoRetriesUntilOK(t *testing.T) {
	clk := newManualClock()
	x := NewExecutor(clk)
	calls := 0
	out := x.Do(context.Background(), "check", func(context.Context) Verdict {
		calls++
		if calls < 3 {
			return VerdictRetryable
		}
		return VerdictOK
	})
	if out.Attempts != 3 || out.Retries != 2 || out.ShortCircuited {
		t.Fatalf("outcome = %+v", out)
	}
	// Two full-jitter back-offs: at most the initial delay, then double.
	if slept := clk.Slept(); slept == 0 || slept > 3*initialBackoff {
		t.Errorf("slept %v between retries, want (0, %v]", slept, 3*initialBackoff)
	}
	if st := x.Snapshot(); len(st.Breakers) != 1 || st.Breakers[0].State != BreakerClosed {
		t.Errorf("breaker state = %+v", st.Breakers)
	}
}

func TestDoStopsAtMaxAttempts(t *testing.T) {
	clk := newManualClock()
	x := NewExecutor(clk)
	calls := 0
	out := x.Do(context.Background(), "check", func(context.Context) Verdict {
		calls++
		return VerdictRetryable
	})
	if calls != maxAttempts || out.Attempts != maxAttempts || out.Retries != maxAttempts-1 {
		t.Fatalf("calls = %d, outcome = %+v, want %d attempts", calls, out, maxAttempts)
	}
}

func TestBreakerOpensThenHalfOpenProbeCloses(t *testing.T) {
	clk := newManualClock()
	x := NewExecutor(clk)
	// Retryable failures one short of the threshold, then a fatal answer
	// that ends the call without judging the breaker.
	calls := 0
	x.Do(context.Background(), "check", func(context.Context) Verdict {
		if calls++; calls < failureThreshold {
			return VerdictRetryable
		}
		return VerdictFatal
	})
	if st := x.Snapshot(); st.Breakers[0].State != BreakerClosed || st.Breakers[0].ConsecutiveFailures != failureThreshold-1 {
		t.Fatalf("breaker = %+v below the threshold", st.Breakers[0])
	}
	// The next failure reaches it: the breaker opens, and the call's
	// retry finds it open.
	if out := x.Do(context.Background(), "check", fail); out.Attempts != 1 || !out.ShortCircuited {
		t.Fatalf("outcome at the threshold = %+v", out)
	}
	if st := x.Snapshot(); st.Breakers[0].State != BreakerOpen {
		t.Fatalf("breaker = %+v after %d failures", st.Breakers[0], failureThreshold)
	}
	// Open inside the cooldown: short-circuited without running the call.
	out := x.Do(context.Background(), "check", fail)
	if !out.ShortCircuited || out.Attempts != 0 {
		t.Fatalf("outcome during cooldown = %+v", out)
	}
	if !x.Open("check") {
		t.Error("Open = false during cooldown")
	}
	clk.Advance(cooldown - time.Second)
	if !x.Open("check") {
		t.Error("Open = false a second before the cooldown elapsed")
	}
	// After the cooldown a single probe is admitted; success closes.
	clk.Advance(2 * time.Second)
	if x.Open("check") {
		t.Error("Open = true after cooldown elapsed")
	}
	out = x.Do(context.Background(), "check", func(context.Context) Verdict { return VerdictOK })
	if out.ShortCircuited || out.Attempts != 1 {
		t.Fatalf("probe outcome = %+v", out)
	}
	if st := x.Snapshot(); st.Breakers[0].State != BreakerClosed {
		t.Errorf("breaker = %+v after successful probe", st.Breakers[0])
	}
}

func TestHalfOpenProbeFailureReopens(t *testing.T) {
	clk := newManualClock()
	x := NewExecutor(clk)
	openBreaker(t, x, "check")
	clk.Advance(cooldown + time.Second)
	// The probe fails, and its retry finds the breaker open again.
	if out := x.Do(context.Background(), "check", fail); out.Attempts != 1 || !out.ShortCircuited {
		t.Fatalf("probe outcome = %+v, want one attempt, then short-circuited", out)
	}
	st := x.Snapshot()
	if st.Breakers[0].State != BreakerOpen {
		t.Fatalf("breaker = %+v after failed probe", st.Breakers[0])
	}
	// The cooldown restarts from the probe failure.
	if x.Do(context.Background(), "check", fail); !x.Open("check") {
		t.Error("breaker not holding after reopen")
	}
}

func TestOpenDoesNotConsumeProbeSlot(t *testing.T) {
	clk := newManualClock()
	x := NewExecutor(clk)
	openBreaker(t, x, "check")
	clk.Advance(cooldown + time.Second)
	// Read-only checks after the cooldown never claim the half-open probe.
	for i := 0; i < 3; i++ {
		if x.Open("check") {
			t.Fatal("Open = true after cooldown")
		}
	}
	out := x.Do(context.Background(), "check", func(context.Context) Verdict { return VerdictOK })
	if out.ShortCircuited {
		t.Fatalf("probe was consumed by Open: %+v", out)
	}
}

func TestFatalNeitherRetriesNorTrips(t *testing.T) {
	clk := newManualClock()
	x := NewExecutor(clk)
	// As many fatal calls as the failure threshold: none retries, and
	// none counts toward opening the breaker.
	for i := 0; i < failureThreshold; i++ {
		calls := 0
		out := x.Do(context.Background(), "check", func(context.Context) Verdict {
			calls++
			return VerdictFatal
		})
		if calls != 1 || out.Attempts != 1 || out.Retries != 0 {
			t.Fatalf("call %d: calls = %d, outcome = %+v", i, calls, out)
		}
	}
	if st := x.Snapshot(); st.Breakers[0].State != BreakerClosed || st.Breakers[0].ConsecutiveFailures != 0 {
		t.Errorf("fatal verdicts moved the breaker: %+v", st.Breakers[0])
	}
}

func TestRetryBudgetBoundsRetries(t *testing.T) {
	clk := newManualClock()
	x := NewExecutor(clk)
	// Spend all but one retry of the budget on calls that succeed on
	// their first retry, so no breaker moves.
	for i := 0; i < retryBudget-1; i++ {
		first := true
		out := x.Do(context.Background(), "warm", func(context.Context) Verdict {
			if first {
				first = false
				return VerdictRetryable
			}
			return VerdictOK
		})
		if out.Retries != 1 {
			t.Fatalf("warm-up call %d: outcome = %+v, want one retry", i, out)
		}
	}
	if st := x.Snapshot(); st.BudgetRemaining != 1 {
		t.Fatalf("budget remaining = %d after %d retries, want 1", st.BudgetRemaining, retryBudget-1)
	}
	calls := 0
	counted := func(context.Context) Verdict { calls++; return VerdictRetryable }
	// 1 try + the last budgeted retry, then the budget is dry: the call
	// stops short of maxAttempts.
	if out := x.Do(context.Background(), "a", counted); out.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (budget exhausted)", out.Attempts)
	}
	// Budget dry: the next failing call gets no retries at all.
	calls = 0
	x.Do(context.Background(), "b", counted)
	if calls != 1 {
		t.Fatalf("calls = %d with dry budget, want 1", calls)
	}
	if st := x.Snapshot(); st.BudgetRemaining != 0 {
		t.Errorf("budget remaining = %d", st.BudgetRemaining)
	}
	// The window rolls over and the budget refills.
	clk.Advance(budgetWindow + time.Minute)
	calls = 0
	x.Do(context.Background(), "c", counted)
	if calls != maxAttempts {
		t.Fatalf("calls = %d after budget refill, want %d", calls, maxAttempts)
	}
}

func TestContextCancelStopsRetries(t *testing.T) {
	clk := newManualClock()
	x := NewExecutor(clk)
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	out := x.Do(ctx, "check", func(context.Context) Verdict {
		calls++
		cancel()
		return VerdictRetryable
	})
	if calls != 1 || out.Attempts != 1 {
		t.Fatalf("calls = %d, outcome = %+v after cancel", calls, out)
	}
}

func TestSnapshotSorted(t *testing.T) {
	clk := newManualClock()
	x := NewExecutor(clk)
	ok := func(context.Context) Verdict { return VerdictOK }
	for _, key := range []string{"zeta", "alpha", "mid"} {
		x.Do(context.Background(), key, ok)
	}
	st := x.Snapshot()
	if len(st.Breakers) != 3 {
		t.Fatalf("breakers = %d", len(st.Breakers))
	}
	for i := 1; i < len(st.Breakers); i++ {
		if st.Breakers[i-1].Key > st.Breakers[i].Key {
			t.Fatalf("breakers unsorted: %+v", st.Breakers)
		}
	}
}
