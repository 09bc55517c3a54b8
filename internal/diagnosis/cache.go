package diagnosis

import (
	"sync"
	"sync/atomic"
	"time"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/obs"
)

// Shared-cache metrics. The per-run cache keeps its historical
// pod_diagnosis_cache_hits_total counter; these cover the cross-run layer.
var (
	mSharedCacheHits = obs.Default.Counter("pod_diagnosis_shared_cache_hits_total",
		"Diagnosis tests answered from the cross-run shared result cache.")
	mSharedCacheEvictions = obs.Default.Counter("pod_diagnosis_shared_cache_evictions_total",
		"Shared-cache entries evicted after their consistency-window TTL elapsed.")
	mCoalesced = obs.Default.Counter("pod_diagnosis_singleflight_coalesced_total",
		"Diagnosis tests coalesced onto an identical in-flight evaluation.")
)

// Outcome classifies how SharedCache.Do answered a request.
type Outcome int

// Do outcomes.
const (
	// OutcomeEvaluated means this caller ran the evaluation itself.
	OutcomeEvaluated Outcome = iota
	// OutcomeHit means a fresh cached result was reused without evaluating.
	OutcomeHit
	// OutcomeCoalesced means the caller joined an identical in-flight
	// evaluation started by another walk and waited for its result.
	OutcomeCoalesced
	// OutcomeRejected means the reserve callback refused the evaluation
	// (the caller's test budget is exhausted); no result is available.
	OutcomeRejected
)

// sweepThreshold is the entry count above which Do opportunistically
// sweeps expired entries while it already holds the lock.
const sweepThreshold = 1024

// entry is one cached (or in-flight) evaluation. done, guarded by the
// cache's mu, is set once res is valid; callers that find the entry in
// flight wait on wg, which the leader releases after setting done. at is
// stamped when the evaluation STARTS, so an entry's age conservatively
// includes the evaluation latency itself.
type entry struct {
	wg   sync.WaitGroup
	done bool
	res  assertion.Result
	at   time.Time
}

// SharedCache is a cross-run diagnosis test-result cache with single-flight
// deduplication: concurrent walks asking the same (checkID, params)
// question run one evaluation, and completed answers are reused until
// their TTL elapses. The engine's TTL is the simulated cloud's eventual-
// consistency window (see NewEngine), so a cached answer can never be staler
// than an answer the cloud itself might have served; with a zero TTL the
// cache still coalesces concurrent identical evaluations but performs no
// cross-time reuse. It is safe for concurrent use.
type SharedCache struct {
	clk clock.Clock
	ttl time.Duration

	mu      sync.Mutex
	entries map[string]*entry
	// lastSweep is when the last full expiry sweep ran. Lazy same-key
	// eviction alone lets one-off (check, params) keys accumulate for
	// the life of the Manager; the periodic sweep bounds that growth.
	lastSweep time.Time

	hits      atomic.Uint64
	coalesced atomic.Uint64
	evals     atomic.Uint64
	evictions atomic.Uint64
}

// NewSharedCache returns an empty cache over the given clock. Results stay
// reusable for ttl of clock time; ttl <= 0 disables cross-time reuse (the
// cache then only coalesces concurrent identical evaluations).
func NewSharedCache(clk clock.Clock, ttl time.Duration) *SharedCache {
	if ttl < 0 {
		ttl = 0
	}
	return &SharedCache{clk: clk, ttl: ttl, entries: make(map[string]*entry), lastSweep: clk.Now()}
}

// TTL returns the cache's effective time-to-live.
func (c *SharedCache) TTL() time.Duration { return c.ttl }

// Do answers the keyed evaluation: from a fresh cached result, by joining
// an identical in-flight evaluation, or by running eval itself. reserve
// (optional) is consulted once before a new evaluation starts — it is how
// callers charge their per-run test budget; returning false yields
// OutcomeRejected with a zero Result and eval is not run.
func (c *SharedCache) Do(key string, reserve func() bool, eval func() assertion.Result) (assertion.Result, Outcome) {
	c.mu.Lock()
	c.sweepLocked()
	if en, ok := c.entries[key]; ok {
		if !en.done {
			// In flight: wait for the leader's result.
			c.mu.Unlock()
			c.coalesced.Add(1)
			mCoalesced.Inc()
			en.wg.Wait()
			return en.res, OutcomeCoalesced
		}
		if c.ttl > 0 && c.clk.Since(en.at) <= c.ttl {
			c.mu.Unlock()
			c.hits.Add(1)
			mSharedCacheHits.Inc()
			return en.res, OutcomeHit
		}
		// Older than the consistency window: evict and re-evaluate.
		delete(c.entries, key)
		c.evictions.Add(1)
		mSharedCacheEvictions.Inc()
	}
	if reserve != nil && !reserve() {
		c.mu.Unlock()
		return assertion.Result{}, OutcomeRejected
	}
	en := &entry{at: c.clk.Now()}
	en.wg.Add(1)
	c.entries[key] = en
	c.mu.Unlock()

	en.res = eval()
	c.evals.Add(1)
	c.mu.Lock()
	en.done = true
	if c.ttl <= 0 && c.entries[key] == en {
		// No cross-time reuse permitted: drop the entry; the waiters
		// coalesced onto it already hold it.
		delete(c.entries, key)
	}
	c.mu.Unlock()
	en.wg.Done()
	return en.res, OutcomeEvaluated
}

// sweepLocked drops expired completed entries. It runs opportunistically
// from Do: always once the map grows past sweepThreshold, and otherwise
// at most once per TTL period, so a burst of one-off keys (which lazy
// same-key eviction never revisits) is reclaimed within one consistency
// window instead of accumulating for the life of the Manager. Caller
// must hold mu.
func (c *SharedCache) sweepLocked() {
	if len(c.entries) == 0 {
		return
	}
	if len(c.entries) < sweepThreshold && (c.ttl <= 0 || c.clk.Since(c.lastSweep) < c.ttl) {
		return
	}
	c.lastSweep = c.clk.Now()
	for key, en := range c.entries {
		// An entry in flight is kept.
		if en.done && (c.ttl <= 0 || c.clk.Since(en.at) > c.ttl) {
			delete(c.entries, key)
			c.evictions.Add(1)
			mSharedCacheEvictions.Inc()
		}
	}
}

// CacheStats is a point-in-time view of a SharedCache.
type CacheStats struct {
	// Size is the number of cached or in-flight entries.
	Size int `json:"size"`
	// Hits counts answers served from a fresh cached result.
	Hits uint64 `json:"hits"`
	// Coalesced counts callers that joined an in-flight evaluation.
	Coalesced uint64 `json:"coalesced"`
	// Evaluations counts evaluations actually run through the cache.
	Evaluations uint64 `json:"evaluations"`
	// Evictions counts entries dropped after their TTL elapsed.
	Evictions uint64 `json:"evictions"`
	// TTL is the effective time-to-live.
	TTL time.Duration `json:"ttl"`
}

// Stats snapshots the cache counters.
func (c *SharedCache) Stats() CacheStats {
	c.mu.Lock()
	size := len(c.entries)
	c.mu.Unlock()
	return CacheStats{
		Size:        size,
		Hits:        c.hits.Load(),
		Coalesced:   c.coalesced.Load(),
		Evaluations: c.evals.Load(),
		Evictions:   c.evictions.Load(),
		TTL:         c.ttl,
	}
}
