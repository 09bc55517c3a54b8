package simaws

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"poddiagnosis/internal/clock"
)

// TestTokenBucketNeverExceedsBudget: over any sequence of allow calls the
// bucket grants at most burst + rate*elapsed tokens.
func TestTokenBucketNeverExceedsBudget(t *testing.T) {
	f := func(calls uint8) bool {
		clk := clock.NewScaled(10000, time.Unix(0, 0))
		b := newTokenBucket(10, 5, clk)
		start := clk.Now()
		granted := 0
		for i := 0; i < int(calls); i++ {
			if b.allow(1) {
				granted++
			}
		}
		elapsed := clk.Since(start).Seconds()
		budget := 5 + 10*elapsed + 1 // +1 slack for boundary sampling
		return float64(granted) <= budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The clock only moves when the test advances it: on a scaled clock a slow
// instruction between two calls is already a refill.
func TestTokenBucketRefills(t *testing.T) {
	clk := &stepClock{now: time.Unix(0, 0)}
	b := newTokenBucket(100, 2, clk)
	if !b.allow(1) || !b.allow(1) {
		t.Fatal("burst not granted")
	}
	if b.allow(1) {
		t.Fatal("over-burst granted instantly")
	}
	clk.Advance(100 * time.Millisecond) // 10 tokens at 100/s, capped at the burst
	if !b.allow(1) {
		t.Fatal("no refill")
	}
}

func TestZeroRateBucketAlwaysAllows(t *testing.T) {
	clk := clock.NewReal()
	b := newTokenBucket(0, 0, clk)
	for i := 0; i < 1000; i++ {
		if !b.allow(1) {
			t.Fatal("zero-rate bucket denied")
		}
	}
}

// TestSnapshotHistoryBounded: the eventual-consistency ring never retains
// snapshots older than the window.
func TestSnapshotHistoryBounded(t *testing.T) {
	clk := clock.NewScaled(5000, time.Unix(0, 0))
	profile := FastProfile()
	profile.TickInterval = 50 * time.Millisecond
	profile.StaleProb = 0.05 // snapshots are recorded only while a read could be served one
	profile.StaleLag = clock.Fixed(time.Second)
	c := New(clk, profile, WithSeed(1))
	c.Start()
	defer c.Stop()
	// Run long enough (in sim time) that pruning must happen.
	time.Sleep(50 * time.Millisecond) // = 250s sim, >> 30s window
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.snapshots) == 0 {
		t.Fatal("no snapshots recorded")
	}
	// Pruning happens per tick; under scheduler contention a tick can be
	// late by many simulated seconds, so allow a generous margin.
	oldest := c.snapshots[0].at
	if clk.Since(oldest) > maxSnapshotAge+90*time.Second {
		t.Fatalf("oldest snapshot is %v old", clk.Since(oldest))
	}
}

// TestNoSnapshotsWithoutStaleReads: a profile that can never serve a stale
// read retains no account copies, however long the reconciler runs.
func TestNoSnapshotsWithoutStaleReads(t *testing.T) {
	c, _, _ := steppedCloud(t, FastProfile(), 2)
	for i := 0; i < 100; i++ {
		c.tick()
	}
	if n := len(c.snapshots); n != 0 {
		t.Fatalf("FastProfile cloud retains %d snapshots, want 0", n)
	}
}

// TestDescribeReturnsCopies: mutating a describe result must not affect
// cloud state — live state, or the recorded snapshots stale reads share.
func TestDescribeReturnsCopies(t *testing.T) {
	for _, tc := range []struct {
		name      string
		staleProb float64
	}{{"live", 0}, {"stale", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			profile := FastProfile()
			profile.StaleProb = tc.staleProb
			c, clk, f := steppedCloud(t, profile, 2)
			ctx := f.ctx
			for i := 0; i < 3; i++ { // launch, boot, register with the ELB
				clk.Advance(time.Second)
				c.tick()
			}
			ids := c.asgs[f.asgName].Instances
			if len(ids) != 2 || len(c.asgs[f.asgName].Activities) == 0 || len(c.elbs[f.elbName].Instances) != 2 {
				t.Fatalf("fixture not settled: %+v", c.asgs[f.asgName])
			}
			// Each read is taken twice; scribbling over every slice and field of
			// the first result must leave the second identical to a pristine one.
			reads := map[string]func() (any, error){
				"DescribeImage":               func() (any, error) { return c.DescribeImage(ctx, f.amiV1) },
				"DescribeKeyPair":             func() (any, error) { return c.DescribeKeyPair(ctx, f.keyName) },
				"DescribeSecurityGroup":       func() (any, error) { return c.DescribeSecurityGroup(ctx, f.sgName) },
				"DescribeLaunchConfiguration": func() (any, error) { return c.DescribeLaunchConfiguration(ctx, f.lcName) },
				"DescribeAutoScalingGroup":    func() (any, error) { return c.DescribeAutoScalingGroup(ctx, f.asgName) },
				"DescribeScalingActivities":   func() (any, error) { return c.DescribeScalingActivities(ctx, f.asgName) },
				"DescribeInstance":            func() (any, error) { return c.DescribeInstance(ctx, ids[0]) },
				"DescribeInstances":           func() (any, error) { return c.DescribeInstances(ctx) },
				"DescribeLoadBalancer":        func() (any, error) { return c.DescribeLoadBalancer(ctx, f.elbName) },
				"DescribeInstanceHealth":      func() (any, error) { return c.DescribeInstanceHealth(ctx, f.elbName) },
			}
			for name, read := range reads {
				first, err := read()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want := fmt.Sprintf("%#v", first)
				if n := scribble(reflect.ValueOf(&first).Elem()); n == 0 {
					t.Fatalf("%s: nothing to mutate in %s", name, want)
				}
				again, err := read()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := fmt.Sprintf("%#v", again); got != want {
					t.Errorf("%s leaked internal state:\n got %s\nwant %s", name, got, want)
				}
			}
		})
	}
}

// scribble overwrites every string and int reachable from v — through
// interfaces, structs and slice elements — and reports how many it changed.
func scribble(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Interface:
		// An interface's dynamic value is not addressable: mutate a copy's
		// slices (they alias the original's backing arrays, which is the leak
		// under test) and ignore its scalar fields.
		cp := reflect.New(v.Elem().Type()).Elem()
		cp.Set(v.Elem())
		return scribble(cp)
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += scribble(v.Field(i))
		}
		return n
	case reflect.Slice:
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += scribble(v.Index(i))
		}
		return n
	case reflect.String:
		if v.CanSet() {
			v.SetString("mutated")
			return 1
		}
	case reflect.Int:
		if v.CanSet() {
			v.SetInt(-1)
			return 1
		}
	}
	return 0
}

// TestActivityHistoryCapped: the scaling activity log stays bounded even
// under perpetual launch failures.
func TestActivityHistoryCapped(t *testing.T) {
	clk := clock.NewScaled(20000, time.Unix(0, 0))
	profile := FastProfile()
	profile.TickInterval = 100 * time.Millisecond
	c := New(clk, profile, WithSeed(1))
	c.Start()
	defer c.Stop()
	ctx := context.Background()
	ami, _ := c.RegisterImage(ctx, "x", "v1", nil)
	_ = c.ImportKeyPair(ctx, "k")
	_, _ = c.CreateSecurityGroup(ctx, "s", nil)
	_ = c.CreateLaunchConfiguration(ctx, LaunchConfig{Name: "lc", ImageID: ami, KeyName: "k", SecurityGroups: []string{"s"}})
	_ = c.CreateAutoScalingGroup(ctx, ASG{Name: "g", LaunchConfigName: "lc", Min: 0, Max: 4, Desired: 2})
	// Break launches forever.
	_ = c.DeregisterImage(ctx, ami)
	time.Sleep(100 * time.Millisecond) // huge sim-time span of failures
	acts, err := c.DescribeScalingActivities(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	if len(acts) > 200 {
		t.Fatalf("activity history unbounded: %d", len(acts))
	}
	if len(acts) == 0 {
		t.Fatal("no failure activities recorded")
	}
}

// TestDescribeCostIndependentOfAccountSize: a live single-resource read
// copies that resource, not the account, so it allocates the same on a
// 2-instance and a 200-instance account.
func TestDescribeCostIndependentOfAccountSize(t *testing.T) {
	measure := func(size int) (asg, lc float64) {
		c, clk, f := steppedCloud(t, FastProfile(), size)
		for i := 0; i < 3; i++ {
			clk.Advance(time.Second)
			c.tick()
		}
		if got := len(c.instances); got != size {
			t.Fatalf("account has %d instances, want %d", got, size)
		}
		asg = testing.AllocsPerRun(100, func() {
			if _, err := c.DescribeAutoScalingGroup(f.ctx, f.asgName); err != nil {
				t.Fatal(err)
			}
		})
		lc = testing.AllocsPerRun(100, func() {
			if _, err := c.DescribeLaunchConfiguration(f.ctx, f.lcName); err != nil {
				t.Fatal(err)
			}
		})
		return asg, lc
	}
	smallASG, smallLC := measure(2)
	largeASG, largeLC := measure(200)
	if smallASG != largeASG || smallLC != largeLC {
		t.Fatalf("allocs per describe grow with the account: ASG %v -> %v, LC %v -> %v", smallASG, largeASG, smallLC, largeLC)
	}
	t.Logf("allocs per read: DescribeAutoScalingGroup %v, DescribeLaunchConfiguration %v", largeASG, largeLC)
}

// TestDescribeCostIndependentOfActivityHistory: a describe copies the
// group, not its scaling history, so it costs the same allocations and
// bytes after 250 activities as after 1; DescribeScalingActivities still
// serves the newest 200, newest first.
func TestDescribeCostIndependentOfActivityHistory(t *testing.T) {
	const runs = 100
	measure := func(activities int) (allocs float64, bytes uint64, acts []Activity) {
		c, _, f := steppedCloud(t, FastProfile(), 2)
		for i := 0; i < activities; i++ {
			if err := c.SetDesiredCapacity(f.ctx, f.asgName, 1+i%3); err != nil {
				t.Fatal(err)
			}
		}
		describe := func() {
			if _, err := c.DescribeAutoScalingGroup(f.ctx, f.asgName); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(runs, describe)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			describe()
		}
		runtime.ReadMemStats(&after)
		acts, err := c.DescribeScalingActivities(f.ctx, f.asgName)
		if err != nil {
			t.Fatal(err)
		}
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs, acts
	}
	one, oneBytes, _ := measure(1)
	many, manyBytes, acts := measure(250)
	if one != many {
		t.Errorf("allocs per describe grow with the history: %v after 1 activity, %v after 250", one, many)
	}
	// A copied history of 200 activities would be tens of kilobytes; allow
	// for the odd runtime allocation counted alongside.
	if manyBytes > oneBytes+256 {
		t.Errorf("bytes per describe grow with the history: %d after 1 activity, %d after 250", oneBytes, manyBytes)
	}
	if len(acts) != 200 {
		t.Fatalf("DescribeScalingActivities returned %d activities, want the newest 200", len(acts))
	}
	// Activity i set the capacity to 1+i%3; the newest is activity 249.
	for j, a := range acts {
		want := fmt.Sprintf("Setting desired capacity to %d", 1+(249-j)%3)
		if a.Description != want {
			t.Fatalf("activity %d (newest first) = %q, want %q", j, a.Description, want)
		}
		// An id's first eight bytes are "act-" and a fixed-width counter.
		if j > 0 && a.ID[:8] >= acts[j-1].ID[:8] {
			t.Fatalf("activity %d (%s) is not older than activity %d (%s)", j, a.ID, j-1, acts[j-1].ID)
		}
	}
	t.Logf("per DescribeAutoScalingGroup: %v allocations, %d bytes", many, manyBytes)
}

// TestWithPlaneMonitoringDoesNotBox: tagging a read with the monitoring
// plane, as every consistent-API read is, allocates the context and not a
// boxed copy of the plane name; the tag reads back unchanged.
func TestWithPlaneMonitoringDoesNotBox(t *testing.T) {
	ctx := context.Background()
	plane := string([]byte(PlaneMonitoring)) // not the constant itself
	var tagged context.Context
	got := testing.AllocsPerRun(100, func() { tagged = WithPlane(ctx, plane) })
	if got > 1 {
		t.Errorf("WithPlane(monitoring): %.0f allocations, want 1 (the context)", got)
	}
	if p := PlaneFrom(tagged); p != PlaneMonitoring {
		t.Errorf("PlaneFrom = %q, want %q", p, PlaneMonitoring)
	}
	if p := PlaneFrom(WithPlane(ctx, "operation")); p != "operation" {
		t.Errorf("PlaneFrom = %q, want %q", p, "operation")
	}
}
