// Package resilience hardens the monitoring plane's own cloud calls. The
// paper pitches POD-Diagnosis as non-intrusive (§III): it observes only
// logs and cloud APIs — but that makes the diagnoser a cloud API client
// itself, subject to the same RequestLimitExceeded storms, timeouts and
// latency spikes it diagnoses in the operation plane. This package wraps
// diagnosis-test evaluations in:
//
//   - jittered exponential backoff with a bounded retry budget for
//     throttle/timeout-class errors,
//   - a per-test circuit breaker with half-open probing on the shared
//     (possibly simulated) clock, so a persistently failing test stops
//     burning budget and API quota, and
//   - context propagation: every sleep honours the caller's deadline.
//
// A breaker-open call is not an error and not a fault signal: it surfaces
// as a "result unknown" outcome the fault-tree walk continues past.
package resilience

import (
	"context"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/obs"
)

// Resilience metrics.
var (
	mRetries = obs.Default.CounterVec("pod_resilience_retries_total",
		"Diagnosis-test retries after retryable failures, by test key.", "key")
	mShortCircuits = obs.Default.Counter("pod_resilience_short_circuits_total",
		"Calls answered 'unknown' without attempting because the breaker was open.")
	mTransitions = obs.Default.CounterVec("pod_resilience_breaker_transitions_total",
		"Circuit breaker state transitions, by new state.", "to")
	mOpenBreakers = obs.Default.Gauge("pod_resilience_breakers_open",
		"Circuit breakers currently open or half-open.")
	mBudgetSpent = obs.Default.Counter("pod_resilience_retry_budget_spent_total",
		"Retries charged against the shared retry budget.")
)

// The executor's policy.
const (
	// maxAttempts bounds the attempts of one call (first try included).
	maxAttempts = 3
	// initialBackoff is the first retry delay; it doubles per retry up to
	// maxBackoff, with full jitter.
	initialBackoff = 200 * time.Millisecond
	maxBackoff     = 5 * time.Second
	// retryBudget bounds total retries across all calls — a safety valve
	// so a storm cannot multiply the monitoring plane's own API load. It
	// refills fully every budgetWindow.
	retryBudget  = 64
	budgetWindow = 5 * time.Minute
	// failureThreshold is how many consecutive retryable-class failures
	// open a test's breaker.
	failureThreshold = 3
	// cooldown is how long an open breaker waits before admitting one
	// half-open probe.
	cooldown = 30 * time.Second
	// jitterSeed fixes the jitter source, so runs are reproducible.
	jitterSeed = 1
)

// Verdict classifies one attempt of a guarded call.
type Verdict int

const (
	// VerdictOK means the call produced a usable answer (pass or fail —
	// an assertion failing is an answer, not an infrastructure failure).
	VerdictOK Verdict = iota
	// VerdictRetryable means a throttle/timeout-class infrastructure
	// failure worth backing off and retrying.
	VerdictRetryable
	// VerdictFatal means an error retrying cannot fix (bad parameters,
	// unknown check). It neither retries nor trips the breaker.
	VerdictFatal
)

// Retryable classifies an error string as throttle/timeout-class. The
// monitoring plane renders errors to text at the assertion boundary, so
// classification is by the well-known code substrings.
func Retryable(errText string) bool {
	if errText == "" {
		return false
	}
	for _, marker := range []string{
		"RequestLimitExceeded",
		"Throttling",
		"ServiceUnavailable",
		"API timeout",
		"deadline exceeded",
		"connection refused",
	} {
		if strings.Contains(errText, marker) {
			return true
		}
	}
	return false
}

// BreakerState is a circuit breaker's position.
type BreakerState string

const (
	// BreakerClosed admits every call.
	BreakerClosed BreakerState = "closed"
	// BreakerOpen short-circuits every call until the cooldown elapses.
	BreakerOpen BreakerState = "open"
	// BreakerHalfOpen admits a single probe; its outcome closes or
	// re-opens the breaker.
	BreakerHalfOpen BreakerState = "half-open"
)

// breaker is one test's circuit breaker. Guarded by the Executor's mutex.
type breaker struct {
	state    BreakerState
	failures int       // consecutive retryable-class failures
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight
	shorted  uint64    // calls short-circuited while open
}

// Outcome summarizes one guarded call.
type Outcome struct {
	// Attempts is how many times the call ran (0 when short-circuited).
	Attempts int
	// Retries is Attempts minus one, floored at zero.
	Retries int
	// ShortCircuited means the breaker was open and the call never ran.
	ShortCircuited bool
}

// LabelPairs renders the outcome as annotations for evidence timelines
// and spans — attempts, retries, and the breaker disposition — as key,
// value, key, value, ...
func (o Outcome) LabelPairs() [6]string {
	breaker := "closed"
	if o.ShortCircuited {
		breaker = "open"
	}
	return [6]string{"attempts", strconv.Itoa(o.Attempts), "retries", strconv.Itoa(o.Retries), "breaker", breaker}
}

// Executor runs calls under retry, budget and breaker policies. It is
// safe for concurrent use.
type Executor struct {
	clk clock.Clock

	mu          sync.Mutex
	rng         *rand.Rand
	breakers    map[string]*breaker
	budgetLeft  int
	budgetReset time.Time
}

// NewExecutor returns an Executor on the given clock.
func NewExecutor(clk clock.Clock) *Executor {
	return &Executor{
		clk:        clk,
		rng:        rand.New(rand.NewSource(jitterSeed)),
		breakers:   make(map[string]*breaker),
		budgetLeft: retryBudget,
	}
}

// Do runs call under the policies, keyed by the test's identity (breakers
// are per key). The call is invoked with ctx and must honour its
// cancellation; between attempts the executor sleeps a jittered
// exponential backoff on the clock, also bounded by ctx.
func (x *Executor) Do(ctx context.Context, key string, call func(context.Context) Verdict) Outcome {
	if !x.admit(key) {
		mShortCircuits.Inc()
		return Outcome{ShortCircuited: true}
	}
	var out Outcome
	backoff := initialBackoff
	for {
		out.Attempts++
		v := call(ctx)
		switch v {
		case VerdictOK:
			x.settle(key, true)
			return out
		case VerdictFatal:
			// Not an infrastructure failure: release any half-open probe
			// without moving the breaker.
			x.release(key)
			return out
		}
		// Retryable-class failure.
		x.settle(key, false)
		if out.Attempts >= maxAttempts || ctx.Err() != nil || !x.takeBudget() {
			return out
		}
		if err := x.clk.Sleep(ctx, x.jitter(backoff)); err != nil {
			return out
		}
		backoff *= 2
		if backoff > maxBackoff {
			backoff = maxBackoff
		}
		if !x.admit(key) {
			// The breaker opened on the failure we are retrying past (or a
			// concurrent call's); stop burning attempts.
			out.ShortCircuited = true
			return out
		}
		out.Retries++
		mRetries.With(key).Inc()
	}
}

// Open reports whether a call for key would be short-circuited right now:
// the breaker is open inside its cooldown, or a half-open probe is already
// in flight. A true answer is itself recorded as a short-circuit (the
// caller is expected to skip the call), but the breaker is not advanced —
// in particular it never consumes the half-open probe slot.
func (x *Executor) Open(key string) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	br, ok := x.breakers[key]
	if !ok {
		return false
	}
	blocked := (br.state == BreakerOpen && x.clk.Since(br.openedAt) < cooldown) ||
		(br.state == BreakerHalfOpen && br.probing)
	if blocked {
		br.shorted++
		mShortCircuits.Inc()
	}
	return blocked
}

// admit consults (and advances) the key's breaker: closed admits, open
// admits nothing until the cooldown elapses, half-open admits one probe.
func (x *Executor) admit(key string) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	br := x.breakerLocked(key)
	switch br.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if x.clk.Since(br.openedAt) < cooldown {
			br.shorted++
			return false
		}
		br.state = BreakerHalfOpen
		br.probing = true
		mTransitions.With(string(BreakerHalfOpen)).Inc()
		return true
	default: // half-open
		if br.probing {
			br.shorted++
			return false
		}
		br.probing = true
		return true
	}
}

// settle records an attempt outcome against the key's breaker.
func (x *Executor) settle(key string, ok bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	br := x.breakerLocked(key)
	wasTracked := br.state != BreakerClosed
	br.probing = false
	if ok {
		br.failures = 0
		if br.state != BreakerClosed {
			br.state = BreakerClosed
			mTransitions.With(string(BreakerClosed)).Inc()
			mOpenBreakers.Dec()
		}
		return
	}
	br.failures++
	if br.state == BreakerHalfOpen || br.failures >= failureThreshold {
		if br.state != BreakerOpen {
			br.state = BreakerOpen
			mTransitions.With(string(BreakerOpen)).Inc()
			if !wasTracked {
				mOpenBreakers.Inc()
			}
		}
		br.openedAt = x.clk.Now()
	}
}

// release clears a half-open probe slot without judging the breaker
// (fatal outcomes are not infrastructure signals).
func (x *Executor) release(key string) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.breakerLocked(key).probing = false
}

func (x *Executor) breakerLocked(key string) *breaker {
	br, ok := x.breakers[key]
	if !ok {
		br = &breaker{state: BreakerClosed}
		x.breakers[key] = br
	}
	return br
}

// takeBudget charges one retry against the shared budget, refilling it
// when the window rolled over.
func (x *Executor) takeBudget() bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	now := x.clk.Now()
	if x.budgetReset.IsZero() || now.Sub(x.budgetReset) >= budgetWindow {
		x.budgetReset = now
		x.budgetLeft = retryBudget
	}
	if x.budgetLeft <= 0 {
		return false
	}
	x.budgetLeft--
	mBudgetSpent.Inc()
	return true
}

// jitter draws a full-jitter delay in (0, d].
func (x *Executor) jitter(d time.Duration) time.Duration {
	x.mu.Lock()
	f := x.rng.Float64()
	x.mu.Unlock()
	j := time.Duration(f * float64(d))
	if j <= 0 {
		j = time.Millisecond
	}
	return j
}

// BreakerStatus is the serializable view of one breaker.
type BreakerStatus struct {
	Key                 string       `json:"key"`
	State               BreakerState `json:"state"`
	ConsecutiveFailures int          `json:"consecutiveFailures"`
	ShortCircuited      uint64       `json:"shortCircuited"`
	OpenedAt            *time.Time   `json:"openedAt,omitempty"`
}

// Status is the serializable view of an Executor (/diagnosis/resilience).
type Status struct {
	MaxAttempts      int             `json:"maxAttempts"`
	InitialBackoff   time.Duration   `json:"initialBackoff"`
	MaxBackoff       time.Duration   `json:"maxBackoff"`
	FailureThreshold int             `json:"failureThreshold"`
	Cooldown         time.Duration   `json:"cooldown"`
	RetryBudget      int             `json:"retryBudget"`
	BudgetRemaining  int             `json:"budgetRemaining"`
	Breakers         []BreakerStatus `json:"breakers,omitempty"`
}

// Snapshot reports configuration plus every breaker's state, sorted by
// key for stable output.
func (x *Executor) Snapshot() Status {
	x.mu.Lock()
	defer x.mu.Unlock()
	st := Status{
		MaxAttempts:      maxAttempts,
		InitialBackoff:   initialBackoff,
		MaxBackoff:       maxBackoff,
		FailureThreshold: failureThreshold,
		Cooldown:         cooldown,
		RetryBudget:      retryBudget,
		BudgetRemaining:  x.budgetLeft,
	}
	for key, br := range x.breakers {
		bs := BreakerStatus{
			Key: key, State: br.state,
			ConsecutiveFailures: br.failures,
			ShortCircuited:      br.shorted,
		}
		if br.state != BreakerClosed {
			at := br.openedAt
			bs.OpenedAt = &at
		}
		st.Breakers = append(st.Breakers, bs)
	}
	sortBreakers(st.Breakers)
	return st
}

func sortBreakers(bs []BreakerStatus) {
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && bs[j].Key < bs[j-1].Key; j-- {
			bs[j], bs[j-1] = bs[j-1], bs[j]
		}
	}
}
