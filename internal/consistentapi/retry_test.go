package consistentapi

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"poddiagnosis/internal/simaws"
)

// sleepClock is a simulated clock that advances only when slept on and
// records every non-zero sleep. The fast profile's API latency is zero,
// so the recorded sleeps are exactly the retry layer's back-offs.
type sleepClock struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []time.Duration
}

func (c *sleepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *sleepClock) Sleep(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.sleeps = append(c.sleeps, d)
		c.now = c.now.Add(d)
	}
	return ctx.Err()
}

// AfterFunc fires at once: the call runs without waiting for the clock.
func (c *sleepClock) AfterFunc(_ time.Duration, f func()) func() bool {
	go f()
	return func() bool { return false }
}

func (c *sleepClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func (c *sleepClock) slept() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.sleeps)
}

// retryEnv is an unstarted cloud on a sleepClock holding one image, and a
// counter of the reads a call makes.
type retryEnv struct {
	clk   *sleepClock
	cloud *simaws.Cloud
	ami   string
	reads int
}

func newRetryEnv(t *testing.T) *retryEnv {
	t.Helper()
	e := &retryEnv{clk: &sleepClock{now: time.Unix(0, 0)}}
	e.cloud = simaws.New(e.clk, simaws.FastProfile(), simaws.WithSeed(11))
	ami, err := e.cloud.RegisterImage(context.Background(), "x", "v1", nil)
	if err != nil {
		t.Fatal(err)
	}
	e.ami = ami
	return e
}

// describe reads image id through the retry layer, counting cloud reads.
func (e *retryEnv) describe(cfg Config, id string, pred func(simaws.Image) bool) (bool, error) {
	e.reads = 0
	_, ok, err := Eventually(context.Background(), New(e.cloud, cfg), func(ctx context.Context) (simaws.Image, error) {
		e.reads++
		return e.cloud.DescribeImage(ctx, id)
	}, pred)
	return ok, err
}

func never(simaws.Image) bool { return false }

// TestFailingCallSleepsOnlyBetweenAttempts: n attempts whose expectation
// is never met sleep n-1 back-offs, doubling from InitialBackoff and
// capped at MaxBackoff; none follows the last attempt.
func TestFailingCallSleepsOnlyBetweenAttempts(t *testing.T) {
	for _, tc := range []struct {
		attempts int
		want     []time.Duration
	}{
		{1, nil},
		{2, []time.Duration{100 * time.Millisecond}},
		{5, []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond, 300 * time.Millisecond}},
	} {
		e := newRetryEnv(t)
		ok, err := e.describe(Config{
			MaxAttempts: tc.attempts, InitialBackoff: 100 * time.Millisecond,
			MaxBackoff: 300 * time.Millisecond, CallTimeout: time.Hour,
		}, e.ami, never)
		if ok || !errors.Is(err, ErrAPITimeout) {
			t.Fatalf("%d attempts: ok=%v err=%v, want ErrAPITimeout", tc.attempts, ok, err)
		}
		if !strings.Contains(err.Error(), "attempts") {
			t.Errorf("%d attempts: err = %v, want the attempt-count form", tc.attempts, err)
		}
		if e.reads != tc.attempts {
			t.Errorf("%d attempts: %d cloud reads", tc.attempts, e.reads)
		}
		if got := e.clk.slept(); !slices.Equal(got, tc.want) {
			t.Errorf("%d attempts: slept %v, want %v", tc.attempts, got, tc.want)
		}
	}
}

// TestBackoffPastDeadlineIsNotSlept: a back-off that would end after the
// call's CallTimeout deadline is not slept; the call times out at once.
func TestBackoffPastDeadlineIsNotSlept(t *testing.T) {
	e := newRetryEnv(t)
	ok, err := e.describe(Config{
		MaxAttempts: 10, InitialBackoff: 100 * time.Millisecond,
		MaxBackoff: 10 * time.Second, CallTimeout: 250 * time.Millisecond,
	}, e.ami, never)
	if ok || !errors.Is(err, ErrAPITimeout) {
		t.Fatalf("ok=%v err=%v, want ErrAPITimeout", ok, err)
	}
	// Attempt 1 at 0, back-off 100ms, attempt 2 at 100ms; the next
	// back-off (200ms) would end at 300ms, past the 250ms deadline.
	if e.reads != 2 {
		t.Errorf("%d cloud reads, want 2", e.reads)
	}
	if got, want := e.clk.slept(), []time.Duration{100 * time.Millisecond}; !slices.Equal(got, want) {
		t.Errorf("slept %v, want %v", got, want)
	}
}

// TestGiveUpErrorGolden pins the text of a call that gives up, for either
// limit, byte for byte; the error matches ErrAPITimeout and its last
// cause. The texts are those the fmt.Errorf-built error had.
func TestGiveUpErrorGolden(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{MaxAttempts: 3, InitialBackoff: 100 * time.Millisecond, CallTimeout: time.Hour},
			"consistentapi: API timeout after 3 attempts: expectation not met"},
		{Config{MaxAttempts: 10, InitialBackoff: 100 * time.Millisecond, MaxBackoff: 10 * time.Second, CallTimeout: 250 * time.Millisecond},
			"consistentapi: API timeout after 250ms: expectation not met"},
	} {
		e := newRetryEnv(t)
		_, err := e.describe(tc.cfg, e.ami, never)
		if err == nil || err.Error() != tc.want {
			t.Errorf("err = %v, want %q", err, tc.want)
			continue
		}
		if !errors.Is(err, ErrAPITimeout) || !errors.Is(err, ErrExpectationNotMet) {
			t.Errorf("%v: errors.Is ErrAPITimeout %v, ErrExpectationNotMet %v", err,
				errors.Is(err, ErrAPITimeout), errors.Is(err, ErrExpectationNotMet))
		}
	}
}

// TestNotFoundSleepsOnce: a stable NotFound is trusted after its one
// retry — two reads, one back-off between them.
func TestNotFoundSleepsOnce(t *testing.T) {
	e := newRetryEnv(t)
	ok, err := e.describe(Config{MaxAttempts: 5, InitialBackoff: 100 * time.Millisecond}, "ami-ghost", nil)
	if ok || simaws.ErrorCode(err) != simaws.ErrCodeInvalidAMINotFound {
		t.Fatalf("ok=%v err=%v, want NotFound", ok, err)
	}
	if e.reads != 2 {
		t.Errorf("%d cloud reads, want 2", e.reads)
	}
	if got, want := e.clk.slept(), []time.Duration{100 * time.Millisecond}; !slices.Equal(got, want) {
		t.Errorf("slept %v, want %v", got, want)
	}
}

// TestFirstTrySuccessSleepsNothing: a read that meets its expectation at
// once returns without waiting.
func TestFirstTrySuccessSleepsNothing(t *testing.T) {
	e := newRetryEnv(t)
	ok, err := e.describe(Config{}, e.ami, func(i simaws.Image) bool { return i.Available })
	if !ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if e.reads != 1 {
		t.Errorf("%d cloud reads, want 1", e.reads)
	}
	if got := e.clk.slept(); len(got) != 0 {
		t.Errorf("slept %v, want nothing", got)
	}
}
