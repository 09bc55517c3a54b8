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

func TestDoRetriesUntilOK(t *testing.T) {
	clk := newManualClock()
	x := NewExecutor(clk, Options{})
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
	if clk.Slept() == 0 {
		t.Error("no backoff slept between retries")
	}
	if st := x.Snapshot(); len(st.Breakers) != 1 || st.Breakers[0].State != BreakerClosed {
		t.Errorf("breaker state = %+v", st.Breakers)
	}
}

func TestDoStopsAtMaxAttempts(t *testing.T) {
	clk := newManualClock()
	x := NewExecutor(clk, Options{MaxAttempts: 2, FailureThreshold: 100})
	calls := 0
	out := x.Do(context.Background(), "check", func(context.Context) Verdict {
		calls++
		return VerdictRetryable
	})
	if calls != 2 || out.Attempts != 2 {
		t.Fatalf("calls = %d, outcome = %+v", calls, out)
	}
}

func TestBreakerOpensThenHalfOpenProbeCloses(t *testing.T) {
	clk := newManualClock()
	x := NewExecutor(clk, Options{MaxAttempts: 1, FailureThreshold: 3, Cooldown: 30 * time.Second})
	fail := func(context.Context) Verdict { return VerdictRetryable }
	for i := 0; i < 3; i++ {
		x.Do(context.Background(), "check", fail)
	}
	if st := x.Snapshot(); st.Breakers[0].State != BreakerOpen {
		t.Fatalf("breaker = %+v after threshold failures", st.Breakers[0])
	}
	// Open inside the cooldown: short-circuited without running the call.
	out := x.Do(context.Background(), "check", fail)
	if !out.ShortCircuited || out.Attempts != 0 {
		t.Fatalf("outcome during cooldown = %+v", out)
	}
	if !x.Open("check") {
		t.Error("Open = false during cooldown")
	}
	// After the cooldown a single probe is admitted; success closes.
	clk.Advance(31 * time.Second)
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
	x := NewExecutor(clk, Options{MaxAttempts: 1, FailureThreshold: 2, Cooldown: 10 * time.Second})
	fail := func(context.Context) Verdict { return VerdictRetryable }
	x.Do(context.Background(), "check", fail)
	x.Do(context.Background(), "check", fail)
	clk.Advance(11 * time.Second)
	x.Do(context.Background(), "check", fail) // the probe fails
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
	x := NewExecutor(clk, Options{MaxAttempts: 1, FailureThreshold: 1, Cooldown: 10 * time.Second})
	x.Do(context.Background(), "check", func(context.Context) Verdict { return VerdictRetryable })
	clk.Advance(11 * time.Second)
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
	x := NewExecutor(clk, Options{FailureThreshold: 1})
	calls := 0
	out := x.Do(context.Background(), "check", func(context.Context) Verdict {
		calls++
		return VerdictFatal
	})
	if calls != 1 || out.Attempts != 1 || out.Retries != 0 {
		t.Fatalf("calls = %d, outcome = %+v", calls, out)
	}
	if st := x.Snapshot(); st.Breakers[0].State != BreakerClosed {
		t.Errorf("fatal verdict moved the breaker: %+v", st.Breakers[0])
	}
}

func TestRetryBudgetBoundsRetries(t *testing.T) {
	clk := newManualClock()
	x := NewExecutor(clk, Options{
		MaxAttempts: 5, RetryBudget: 3, BudgetWindow: 5 * time.Minute,
		FailureThreshold: 100,
	})
	calls := 0
	fail := func(context.Context) Verdict { calls++; return VerdictRetryable }
	// First call: 1 try + 3 budgeted retries, then the budget is dry.
	out := x.Do(context.Background(), "a", fail)
	if out.Attempts != 4 {
		t.Fatalf("attempts = %d, want 4 (budget exhausted)", out.Attempts)
	}
	// Budget dry: the next failing call gets no retries at all.
	calls = 0
	x.Do(context.Background(), "b", fail)
	if calls != 1 {
		t.Fatalf("calls = %d with dry budget, want 1", calls)
	}
	if st := x.Snapshot(); st.BudgetRemaining != 0 {
		t.Errorf("budget remaining = %d", st.BudgetRemaining)
	}
	// The window rolls over and the budget refills.
	clk.Advance(6 * time.Minute)
	calls = 0
	x.Do(context.Background(), "c", fail)
	if calls <= 1 {
		t.Fatalf("calls = %d after budget refill, want retries", calls)
	}
}

func TestContextCancelStopsRetries(t *testing.T) {
	clk := newManualClock()
	x := NewExecutor(clk, Options{MaxAttempts: 10})
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
	x := NewExecutor(clk, Options{})
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
