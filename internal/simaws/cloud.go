package simaws

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/logging"
)

// Cloud is the simulated AWS account. All state is guarded by mu; every
// public API method models latency and throttling before touching state.
// Construct with New, then Start the reconciler; Stop before discarding.
type Cloud struct {
	clk     clock.Clock
	profile Profile
	bus     *logging.Bus  // may be nil
	inject  FaultInjector // may be nil

	mu  sync.Mutex
	rng *rand.Rand
	resources

	elbDisrupted  bool
	externalUsage int // live instances held by the co-tenant team
	nextNum       int
	bucket        *tokenBucket
	snapshots     []snapshot
	launchBackoff map[string]time.Time
	audit         AuditTrail

	stop chan struct{}
	wg   sync.WaitGroup
}

// Option customizes a Cloud.
type Option func(*Cloud)

// WithBus attaches a log bus; the cloud publishes infrastructure events
// (scaling activities, disruptions) to it with type logging.TypeCloud.
func WithBus(bus *logging.Bus) Option {
	return func(c *Cloud) { c.bus = bus }
}

// WithSeed fixes the random seed, making latency/staleness sampling
// reproducible.
func WithSeed(seed int64) Option {
	return func(c *Cloud) { c.rng = rand.New(rand.NewSource(seed)) }
}

// FaultInjector is consulted before every API call; a non-nil error is
// returned to the caller in place of the real operation. Chaos harnesses
// use it to synthesize RequestLimitExceeded storms and latency spikes
// (which the injector models by sleeping on the clock before returning
// nil). It must be safe for concurrent use.
type FaultInjector func(ctx context.Context, op string) error

// PlaneMonitoring tags API calls issued by POD-Diagnosis's own monitoring
// plane (the consistent-API layer under assertion evaluation and
// diagnosis tests), as opposed to untagged operation-plane calls from the
// upgrade orchestrator. Fault injectors use the tag to attack one plane
// selectively.
const PlaneMonitoring = "monitoring"

// planeKey carries the calling-plane tag through a context.
type planeKey struct{}

// WithPlane returns ctx tagged with the calling plane name. The
// monitoring plane, tagged on every consistent-API read, is stored as the
// constant, which boxes without allocating.
func WithPlane(ctx context.Context, plane string) context.Context {
	if plane == PlaneMonitoring {
		return context.WithValue(ctx, planeKey{}, PlaneMonitoring)
	}
	return context.WithValue(ctx, planeKey{}, plane)
}

// PlaneFrom returns ctx's plane tag; untagged calls report "".
func PlaneFrom(ctx context.Context) string {
	p, _ := ctx.Value(planeKey{}).(string)
	return p
}

// WithFaultInjector installs a chaos fault injector on the API plane.
func WithFaultInjector(f FaultInjector) Option {
	return func(c *Cloud) { c.inject = f }
}

// New returns a Cloud with the given clock and profile. The reconciler is
// not running until Start is called.
func New(clk clock.Clock, profile Profile, opts ...Option) *Cloud {
	c := &Cloud{
		clk:     clk,
		profile: profile,
		rng:     rand.New(rand.NewSource(1)),
		resources: resources{
			images:    make(map[string]*Image),
			keyPairs:  make(map[string]*KeyPair),
			sgs:       make(map[string]*SecurityGroup),
			lcs:       make(map[string]*LaunchConfig),
			asgs:      make(map[string]*ASG),
			elbs:      make(map[string]*LoadBalancer),
			instances: make(map[string]*Instance),
		},
		launchBackoff: make(map[string]time.Time),
		stop:          make(chan struct{}),
	}
	c.bucket = newTokenBucket(profile.RatePerSecond, profile.RateBurst, clk)
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Start launches the background reconciler goroutine.
func (c *Cloud) Start() {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		ticker := clock.NewTicker(c.clk, c.profile.TickInterval)
		defer ticker.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-ticker.C:
				c.tick()
			}
		}
	}()
}

// Stop halts the reconciler and waits for it to exit. Stop must be called
// exactly once, after Start.
func (c *Cloud) Stop() {
	close(c.stop)
	c.wg.Wait()
}

// Clock returns the cloud's time source.
func (c *Cloud) Clock() clock.Clock { return c.clk }

// ConsistencyWindow reports the maximum staleness a describe call may
// observe under the cloud's profile; see Profile.ConsistencyWindow.
func (c *Cloud) ConsistencyWindow() time.Duration { return c.profile.ConsistencyWindow() }

// now returns the current simulated time.
func (c *Cloud) now() time.Time { return c.clk.Now() }

// newID generates an AWS-style id with the given prefix, e.g. "i-04a1b2c3".
// Caller must hold mu.
func (c *Cloud) newID(prefix string) string {
	c.nextNum++
	return fmt.Sprintf("%s-%04x%04x", prefix, c.nextNum, c.rng.Intn(1<<16))
}

// publish emits a cloud infrastructure log event.
func (c *Cloud) publish(message string, fields map[string]string) {
	if c.bus == nil {
		return
	}
	c.bus.Publish(logging.Event{
		Timestamp:  c.now(),
		Source:     "cloud.log",
		SourceHost: "aws-sim",
		Type:       logging.TypeCloud,
		Fields:     fields,
		Message:    message,
	})
}

// apiCall models the cost of one API operation: account-level throttling,
// then jittered latency. It returns an APIError on throttle and ctx.Err()
// on cancellation.
func (c *Cloud) apiCall(ctx context.Context, op string) error {
	mAPICalls.With(op).Inc()
	if c.inject != nil {
		if err := c.inject(ctx, op); err != nil {
			return err
		}
	}
	if !c.bucket.allow(1) {
		mAPIThrottled.With(op).Inc()
		return newErr(op, ErrCodeRequestLimitExceeded, "request limit exceeded for account")
	}
	c.mu.Lock()
	d := c.profile.APILatency.Sample(c.rng)
	c.mu.Unlock()
	mAPILatency.Observe(d.Seconds())
	if err := c.clk.Sleep(ctx, d); err != nil {
		return fmt.Errorf("%s: %w", op, err)
	}
	return nil
}

// SetELBServiceDisruption toggles an ELB control-plane outage: while
// disrupted, every ELB API call fails with ServiceUnavailable and the
// reconciler cannot register new instances. This models the December 2012
// ELB service event the paper cites (§V.C).
func (c *Cloud) SetELBServiceDisruption(disrupted bool) {
	c.mu.Lock()
	c.elbDisrupted = disrupted
	c.mu.Unlock()
	if disrupted {
		c.publish("ELB service disruption started: missing ELB state data", nil)
	} else {
		c.publish("ELB service disruption ended", nil)
	}
}

// ELBServiceDisrupted reports whether the ELB control plane is down.
func (c *Cloud) ELBServiceDisrupted() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.elbDisrupted
}

// SetExternalUsage sets the number of live instances consumed by the
// independent co-tenant team sharing the account (§VI.A). These count
// against the account instance limit but are otherwise invisible.
func (c *Cloud) SetExternalUsage(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 0 {
		n = 0
	}
	c.externalUsage = n
}

// ExternalUsage returns the co-tenant instance count.
func (c *Cloud) ExternalUsage() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.externalUsage
}

// liveInstanceCount counts instances against the account limit. Caller
// must hold mu.
func (c *Cloud) liveInstanceCount() int {
	n := c.externalUsage
	for _, inst := range c.instances {
		if inst.Live() {
			n++
		}
	}
	return n
}

// atLimit reports whether launching one more instance would exceed the
// account limit. Caller must hold mu.
func (c *Cloud) atLimit() bool {
	return c.profile.InstanceLimit > 0 && c.liveInstanceCount() >= c.profile.InstanceLimit
}

// tokenBucket is a simple clock-driven token bucket.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
	clk    clock.Clock
}

func newTokenBucket(rate, burst float64, clk clock.Clock) *tokenBucket {
	return &tokenBucket{rate: rate, burst: burst, tokens: burst, clk: clk, last: clk.Now()}
}

// allow consumes n tokens if available. A zero rate always allows.
func (b *tokenBucket) allow(n float64) bool {
	if b.rate <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.clk.Now()
	elapsed := now.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.tokens += elapsed * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}
