package diagnosis

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/consistentapi"
	"poddiagnosis/internal/diagplan"
	"poddiagnosis/internal/simaws"
)

// sleepLog is a clock that records every non-zero Sleep made on it while
// recording is on, then sleeps on the clock it wraps.
type sleepLog struct {
	clock.Clock
	mu     sync.Mutex
	on     bool
	sleeps []time.Duration
}

func (c *sleepLog) Sleep(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	if c.on && d > 0 {
		c.sleeps = append(c.sleeps, d)
	}
	c.mu.Unlock()
	return c.Clock.Sleep(ctx, d)
}

// record turns recording on (true) or off, returning what was recorded.
func (c *sleepLog) record(on bool) []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.on = on
	out := c.sleeps
	c.sleeps = nil
	return out
}

// TestWrongAMIDiagnosisSleepsOnlyBetweenAttempts runs diagnose_storm's
// wrong-AMI diagnosis with three attempts per read. Its three tests are
// asg-uses-sg and asg-uses-keypair, which pass on their first read and
// sleep nothing, and asg-uses-ami, which confirms the fault after three
// reads and sleeps the two back-offs between them (200ms, 400ms), none
// after its last. The fast profile's API calls take no time, so these
// are all the diagnosis waits.
func TestWrongAMIDiagnosisSleepsOnlyBetweenAttempts(t *testing.T) {
	// The wrapper hides the scaled clock from clock.NewTicker, so the
	// reconciler ticks on its TickInterval in wall time: FastProfile's 1ms.
	clk := &sleepLog{Clock: clock.NewScaled(1000, time.Date(2013, 11, 19, 11, 48, 0, 0, time.UTC))}
	cloud := simaws.New(clk, simaws.FastProfile(), simaws.WithSeed(1))
	cloud.Start()
	defer cloud.Stop()
	req := wrongAMIRequest(t, cloud)
	client := consistentapi.New(cloud, consistentapi.Config{MaxAttempts: 3})
	engine := NewEngine(diagplan.DefaultCatalog(), assertion.NewEvaluator(client, assertion.DefaultRegistry(), nil), nil, Options{})

	clk.record(true)
	d := engine.Diagnose(context.Background(), req)
	slept := clk.record(false)
	if !d.HasCause("wrong-ami") || len(d.TestsRun) != 3 {
		t.Fatalf("diagnosis %s after %d tests, want wrong-ami confirmed after 3", d.Conclusion, len(d.TestsRun))
	}
	if want := []time.Duration{200 * time.Millisecond, 400 * time.Millisecond}; !slices.Equal(slept, want) {
		t.Errorf("the diagnosis slept %v, want %v", slept, want)
	}
}
