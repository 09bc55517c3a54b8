package diagnosis

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"poddiagnosis/internal/assertion"
)

// manualClock is a hand-advanced clock.Clock for deterministic TTL tests.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func newManualClock() *manualClock {
	return &manualClock{now: time.Date(2013, 11, 19, 11, 48, 0, 0, time.UTC)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *manualClock) Sleep(ctx context.Context, d time.Duration) error {
	c.Advance(d)
	return ctx.Err()
}

// AfterFunc fires at once: the call runs without waiting for the clock.
func (c *manualClock) AfterFunc(_ time.Duration, f func()) func() bool {
	go f()
	return func() bool { return false }
}

func (c *manualClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func passResult(msg string) assertion.Result {
	return assertion.Result{CheckID: "c", Status: assertion.StatusPass, Message: msg}
}

// Regression for the old '|'/'=' delimited cacheKey: these two parameter
// sets are distinct but encoded identically ("c|a=b|c=d"), so a run could
// reuse the wrong test result.
func TestCacheKeyInjective(t *testing.T) {
	a := cacheKey("c", assertion.Params{"a": "b|c=d"})
	b := cacheKey("c", assertion.Params{"a": "b", "c": "d"})
	if a == b {
		t.Fatalf("cacheKey collision: %q", a)
	}
	// Check-id/param boundary must also be unambiguous.
	if cacheKey("c|a", assertion.Params{"b": "x"}) == cacheKey("c", assertion.Params{"a|b": "x"}) {
		t.Fatal("cacheKey collision across checkID/param boundary")
	}
	if cacheKey("c", assertion.Params{"a": "b"}) != cacheKey("c", assertion.Params{"a": "b"}) {
		t.Fatal("cacheKey not deterministic")
	}
}

func TestSharedCacheCoalescesConcurrentCallers(t *testing.T) {
	clk := newManualClock()
	c := NewSharedCache(clk, time.Minute)
	var evals atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	const n = 8
	var wg sync.WaitGroup
	outcomes := make([]Outcome, n)
	results := make([]assertion.Result, n)
	leaderReady := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i > 0 {
				<-leaderReady // ensure the leader's entry is in flight first
			}
			results[i], outcomes[i] = c.Do("k", nil, func() assertion.Result {
				close(started)
				<-release
				evals.Add(1)
				return passResult("one evaluation")
			})
		}(i)
	}
	<-started
	close(leaderReady)
	// Give the joiners a moment to reach the in-flight entry, then let the
	// leader finish.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := evals.Load(); got != 1 {
		t.Fatalf("eval ran %d times, want 1", got)
	}
	var evaluated, joined int
	for i := range outcomes {
		if results[i].Message != "one evaluation" {
			t.Fatalf("caller %d got %+v", i, results[i])
		}
		switch outcomes[i] {
		case OutcomeEvaluated:
			evaluated++
		case OutcomeCoalesced, OutcomeHit:
			joined++
		default:
			t.Fatalf("caller %d outcome %v", i, outcomes[i])
		}
	}
	if evaluated != 1 || joined != n-1 {
		t.Fatalf("evaluated=%d joined=%d, want 1 and %d", evaluated, joined, n-1)
	}
	st := c.Stats()
	if st.Evaluations != 1 || st.Hits+st.Coalesced != n-1 {
		t.Fatalf("stats = %+v", st)
	}
}

// Single flight without a channel: while the leader's evaluation blocks,
// every other caller of the key joins the in-flight entry and reads the
// leader's result once it is done. A sweep meanwhile keeps the entry
// however old it is, and with no TTL the entry is gone once the leader
// is done.
func TestSharedCacheCoalescesWithoutChannel(t *testing.T) {
	for _, ttl := range []time.Duration{0, time.Minute} {
		clk := newManualClock()
		c := NewSharedCache(clk, ttl)
		var evals atomic.Int64
		started, release := make(chan struct{}), make(chan struct{})
		const n = 8
		var wg sync.WaitGroup
		outcomes := make([]Outcome, n)
		results := make([]assertion.Result, n)
		call := func(i int) {
			defer wg.Done()
			results[i], outcomes[i] = c.Do("k", nil, func() assertion.Result {
				evals.Add(1)
				close(started)
				<-release
				return passResult("leader")
			})
		}
		wg.Add(n)
		go call(0)
		<-started
		for i := 1; i < n; i++ {
			go call(i)
		}
		for c.Stats().Coalesced < n-1 { // every joiner holds the entry
			time.Sleep(time.Millisecond)
		}
		clk.Advance(2 * time.Minute)
		c.mu.Lock()
		c.sweepLocked()
		_, kept := c.entries["k"]
		c.mu.Unlock()
		if !kept {
			t.Fatalf("ttl %v: a sweep evicted the in-flight entry", ttl)
		}
		close(release)
		wg.Wait()

		if got := evals.Load(); got != 1 {
			t.Fatalf("ttl %v: eval ran %d times, want 1", ttl, got)
		}
		for i := range outcomes {
			want := OutcomeCoalesced
			if i == 0 {
				want = OutcomeEvaluated
			}
			if outcomes[i] != want || results[i].Message != "leader" {
				t.Errorf("ttl %v: caller %d: outcome %v, result %q; want %v, %q", ttl, i, outcomes[i], results[i].Message, want, "leader")
			}
		}
		st := c.Stats()
		if st.Evaluations != 1 || st.Coalesced != n-1 || st.Evictions != 0 {
			t.Errorf("ttl %v: stats = %+v", ttl, st)
		}
		wantSize := 1 // the finished entry stays for reuse
		if ttl == 0 {
			wantSize = 0
		}
		if st.Size != wantSize {
			t.Errorf("ttl %v: %d entries after the evaluation, want %d", ttl, st.Size, wantSize)
		}
	}
}

// TTL freshness is inclusive at the consistency-window edge: an answer
// exactly window-old is still one the cloud itself could have served.
func TestSharedCacheTTLExpiryAtWindowEdge(t *testing.T) {
	clk := newManualClock()
	const window = 10 * time.Second
	c := NewSharedCache(clk, window)
	evals := 0
	do := func() (assertion.Result, Outcome) {
		return c.Do("k", nil, func() assertion.Result {
			evals++
			return passResult("v")
		})
	}

	if _, out := do(); out != OutcomeEvaluated {
		t.Fatalf("first call outcome %v", out)
	}
	clk.Advance(window) // exactly at the edge: still fresh
	if _, out := do(); out != OutcomeHit {
		t.Fatalf("at-edge outcome %v, want hit", out)
	}
	clk.Advance(time.Nanosecond) // past the edge: stale
	if _, out := do(); out != OutcomeEvaluated {
		t.Fatalf("past-edge outcome %v, want re-evaluation", out)
	}
	if evals != 2 {
		t.Fatalf("evals = %d, want 2", evals)
	}
	if st := c.Stats(); st.Evictions != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// With a zero TTL (no staleness permitted by the cloud) the cache must
// not reuse results across time, only coalesce concurrent callers.
func TestSharedCacheZeroTTLNeverReuses(t *testing.T) {
	clk := newManualClock()
	c := NewSharedCache(clk, 0)
	evals := 0
	for i := 0; i < 3; i++ {
		_, out := c.Do("k", nil, func() assertion.Result { evals++; return passResult("v") })
		if out != OutcomeEvaluated {
			t.Fatalf("call %d outcome %v", i, out)
		}
	}
	if evals != 3 {
		t.Fatalf("evals = %d, want 3", evals)
	}
	if st := c.Stats(); st.Size != 0 {
		t.Fatalf("zero-TTL cache retained %d entries", st.Size)
	}
}

func TestSharedCacheReserveRejected(t *testing.T) {
	clk := newManualClock()
	c := NewSharedCache(clk, time.Minute)
	res, out := c.Do("k", func() bool { return false }, func() assertion.Result {
		t.Fatal("eval ran despite rejected reservation")
		return assertion.Result{}
	})
	if out != OutcomeRejected {
		t.Fatalf("outcome %v, want rejected", out)
	}
	if res.CheckID != "" {
		t.Fatalf("rejected call returned a result: %+v", res)
	}
	if st := c.Stats(); st.Size != 0 || st.Evaluations != 0 {
		t.Fatalf("stats after rejection = %+v", st)
	}
	// The key must not be poisoned: a funded caller evaluates normally.
	if _, out := c.Do("k", func() bool { return true }, func() assertion.Result { return passResult("v") }); out != OutcomeEvaluated {
		t.Fatalf("post-rejection outcome %v", out)
	}
}

// Regression for unbounded growth: one-off keys are never requested
// again, so lazy same-key eviction alone kept them for the life of the
// Manager. The opportunistic sweep must reclaim them within one TTL
// period even when the map never reaches sweepThreshold, and a later
// request on an unrelated key is enough to trigger it.
func TestSharedCacheSweepsOneOffKeysAfterTTL(t *testing.T) {
	clk := newManualClock()
	c := NewSharedCache(clk, time.Minute)
	for i := 0; i < 100; i++ {
		key := "one-off-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		c.Do(key, nil, func() assertion.Result { return passResult("v") })
	}
	if got := c.Stats().Size; got != 100 {
		t.Fatalf("size before TTL = %d, want 100", got)
	}
	clk.Advance(2 * time.Minute)
	c.Do("fresh", nil, func() assertion.Result { return passResult("v") })
	if got := c.Stats().Size; got != 1 {
		t.Fatalf("size after TTL sweep = %d, want 1 (only the fresh entry)", got)
	}
	if ev := c.Stats().Evictions; ev < 100 {
		t.Fatalf("evictions = %d, want >= 100", ev)
	}
}
