package simaws

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"
	"time"
)

// stepClock is a hand-advanced clock whose Sleep moves simulated time, so
// API latency and ticks are a pure function of the call sequence.
type stepClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *stepClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *stepClock) Sleep(_ context.Context, d time.Duration) error {
	c.Advance(d)
	return nil
}

// AfterFunc steps the clock past d and fires at once.
func (c *stepClock) AfterFunc(d time.Duration, f func()) func() bool {
	c.Advance(d)
	go f()
	return func() bool { return false }
}

func (c *stepClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// steppedCloud builds the canonical fixture on a stepClock without starting
// the reconciler; the caller ticks by hand.
func steppedCloud(t *testing.T, profile Profile, size int) (*Cloud, *stepClock, *fixture) {
	t.Helper()
	clk := &stepClock{now: time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC)}
	c := New(clk, profile, WithSeed(42))
	return c, clk, populate(t, c, size)
}

// TestStaleReadsGolden pins the eventual-consistency model: on a seeded
// PaperProfile cloud driven by hand, which of 500 reads are served stale,
// and the exact value every read returns, must not change. The golden was
// generated before live reads stopped copying the whole account, so it
// proves the rng is drawn in the same order and the same snapshot is
// selected. The digest was regenerated once, when DescribeAutoScalingGroup
// stopped returning the group's scaling history: the old transcript with
// that field blanked hashes to the current digest.
func TestStaleReadsGolden(t *testing.T) {
	const (
		wantStale  = "[2 5 9 30 36 66 76 79 100 102 130 141 164 190 219 223 235 236 262 275 301 319 330 339 343 354 377 384 387 403 408 409 426 435 445 453 455 477 479 481 487 493 495 496]"
		wantDigest = "8f7dfe0d44c92349d8266b2e6c1ca6300e97b7451d7e9ab8920dcb530779b7a2"
	)
	c, clk, f := steppedCloud(t, PaperProfile(), 2)
	ctx := f.ctx
	step := func() {
		clk.Advance(time.Second)
		c.tick()
	}
	for i := 0; i < 200; i++ { // past the boot time: both members in service
		step()
	}
	var instanceID string
	c.mu.Lock()
	for id := range c.instances {
		if instanceID == "" || id < instanceID {
			instanceID = id
		}
	}
	c.mu.Unlock()

	reads := []func() (any, error){
		func() (any, error) { return c.DescribeAutoScalingGroup(ctx, f.asgName) },
		func() (any, error) { return c.DescribeLaunchConfiguration(ctx, f.lcName) },
		func() (any, error) { return c.DescribeImage(ctx, f.amiV1) },
		func() (any, error) { return c.DescribeKeyPair(ctx, f.keyName) },
		func() (any, error) { return c.DescribeSecurityGroup(ctx, f.sgName) },
		func() (any, error) { return c.DescribeInstance(ctx, instanceID) },
		func() (any, error) { return c.DescribeInstances(ctx) },
		func() (any, error) { return c.DescribeLoadBalancer(ctx, f.elbName) },
		func() (any, error) { return c.DescribeInstanceHealth(ctx, f.elbName) },
		func() (any, error) { return c.DescribeScalingActivities(ctx, f.asgName) },
		func() (any, error) { return c.DescribeAutoScalingGroup(ctx, "no-such-asg") },
	}
	digest := sha256.New()
	var stale []int
	for i := 0; i < 500; i++ {
		step()
		switch {
		case i%7 == 3:
			// Keep live state moving so a stale answer differs from a live one.
			if err := c.SetDesiredCapacity(ctx, f.asgName, 2+(i/7)%2); err != nil {
				t.Fatal(err)
			}
		case i == 250:
			c.SetELBServiceDisruption(true)
		case i == 260:
			c.SetELBServiceDisruption(false)
		}
		before := mStaleReads.Value()
		v, err := reads[i%len(reads)]()
		if mStaleReads.Value() != before {
			stale = append(stale, i)
		}
		fmt.Fprintf(digest, "%d %#v %v\n", i, v, err)
	}
	if got := fmt.Sprint(stale); got != wantStale {
		t.Errorf("stale reads = %s\nwant %s", got, wantStale)
	}
	if got := hex.EncodeToString(digest.Sum(nil)); got != wantDigest {
		t.Errorf("read transcript digest = %s, want %s", got, wantDigest)
	}
}
