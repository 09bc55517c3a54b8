package simaws

import (
	"context"
	"errors"
	"testing"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/logging"
)

// testCloud builds a started cloud with a fast profile and registers the
// canonical fixture: one AMI (v1), key pair, security group, launch config,
// ELB, and an ASG of size n. It returns the cloud plus the fixture ids.
type fixture struct {
	cloud   *Cloud
	ctx     context.Context
	amiV1   string
	keyName string
	sgName  string
	lcName  string
	elbName string
	asgName string
}

func newFixture(t *testing.T, n int, profile Profile) *fixture {
	t.Helper()
	clk := clock.NewScaled(200, time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC))
	c := New(clk, profile, WithSeed(42))
	c.Start()
	t.Cleanup(c.Stop)
	return populate(t, c, n)
}

// populate registers the canonical fixture on c.
func populate(t *testing.T, c *Cloud, n int) *fixture {
	t.Helper()
	ctx := context.Background()
	f := &fixture{
		cloud: c, ctx: ctx,
		keyName: "pod-key", sgName: "pod-sg",
		lcName: "pod-lc-v1", elbName: "pod-elb", asgName: "pod-asg",
	}
	ami, err := c.RegisterImage(ctx, "monitor-v1", "v1", []string{"redis", "logstash", "elasticsearch", "kibana"})
	if err != nil {
		t.Fatalf("RegisterImage: %v", err)
	}
	f.amiV1 = ami
	if err := c.ImportKeyPair(ctx, f.keyName); err != nil {
		t.Fatalf("ImportKeyPair: %v", err)
	}
	if _, err := c.CreateSecurityGroup(ctx, f.sgName, []int{22, 80}); err != nil {
		t.Fatalf("CreateSecurityGroup: %v", err)
	}
	if err := c.CreateLaunchConfiguration(ctx, LaunchConfig{
		Name: f.lcName, ImageID: ami, KeyName: f.keyName,
		SecurityGroups: []string{f.sgName}, InstanceType: "m1.small",
	}); err != nil {
		t.Fatalf("CreateLaunchConfiguration: %v", err)
	}
	if err := c.CreateLoadBalancer(ctx, f.elbName); err != nil {
		t.Fatalf("CreateLoadBalancer: %v", err)
	}
	if err := c.CreateAutoScalingGroup(ctx, ASG{
		Name: f.asgName, LaunchConfigName: f.lcName,
		Min: 0, Max: n * 2, Desired: n,
		LoadBalancers: []string{f.elbName},
	}); err != nil {
		t.Fatalf("CreateAutoScalingGroup: %v", err)
	}
	return f
}

// waitFor polls until pred succeeds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func (f *fixture) inService(t *testing.T) []Instance {
	t.Helper()
	instances, err := f.cloud.DescribeInstances(f.ctx)
	if err != nil {
		t.Fatalf("DescribeInstances: %v", err)
	}
	var out []Instance
	for _, inst := range instances {
		if inst.State == StateInService && inst.ASGName == f.asgName {
			out = append(out, inst)
		}
	}
	return out
}

func TestASGLaunchesToDesiredCapacity(t *testing.T) {
	f := newFixture(t, 4, FastProfile())
	waitFor(t, 5*time.Second, "4 in-service instances", func() bool {
		return len(f.inService(t)) == 4
	})
	for _, inst := range f.inService(t) {
		if inst.ImageID != f.amiV1 || inst.Version != "v1" {
			t.Errorf("instance %s has image %s version %s", inst.ID, inst.ImageID, inst.Version)
		}
		if inst.KeyName != f.keyName || inst.InstanceType != "m1.small" {
			t.Errorf("instance %s has wrong launch settings", inst.ID)
		}
	}
}

func TestASGRegistersInstancesWithELB(t *testing.T) {
	f := newFixture(t, 3, FastProfile())
	waitFor(t, 5*time.Second, "3 registered instances", func() bool {
		elb, err := f.cloud.DescribeLoadBalancer(f.ctx, f.elbName)
		return err == nil && len(elb.Instances) == 3
	})
	health, err := f.cloud.DescribeInstanceHealth(f.ctx, f.elbName)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range health {
		if h.State != "InService" {
			t.Errorf("instance %s health = %s (%s)", h.InstanceID, h.State, h.Description)
		}
	}
}

func TestASGReplacesTerminatedInstance(t *testing.T) {
	f := newFixture(t, 2, FastProfile())
	waitFor(t, 5*time.Second, "2 in-service", func() bool { return len(f.inService(t)) == 2 })
	victim := f.inService(t)[0].ID
	if err := f.cloud.TerminateInstance(f.ctx, victim); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "replacement instance", func() bool {
		insts := f.inService(t)
		if len(insts) != 2 {
			return false
		}
		for _, inst := range insts {
			if inst.ID == victim {
				return false
			}
		}
		return true
	})
}

func TestTerminateInASGWithoutDecrementReplaces(t *testing.T) {
	f := newFixture(t, 2, FastProfile())
	waitFor(t, 5*time.Second, "2 in-service", func() bool { return len(f.inService(t)) == 2 })
	victim := f.inService(t)[0].ID
	if err := f.cloud.TerminateInstanceInAutoScalingGroup(f.ctx, victim, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "replacement", func() bool {
		insts := f.inService(t)
		for _, inst := range insts {
			if inst.ID == victim {
				return false
			}
		}
		return len(insts) == 2
	})
	asg, err := f.cloud.DescribeAutoScalingGroup(f.ctx, f.asgName)
	if err != nil {
		t.Fatal(err)
	}
	if asg.Desired != 2 {
		t.Fatalf("desired = %d after non-decrement terminate", asg.Desired)
	}
}

func TestTerminateInASGWithDecrementShrinks(t *testing.T) {
	f := newFixture(t, 3, FastProfile())
	waitFor(t, 5*time.Second, "3 in-service", func() bool { return len(f.inService(t)) == 3 })
	victim := f.inService(t)[0].ID
	if err := f.cloud.TerminateInstanceInAutoScalingGroup(f.ctx, victim, true); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "shrink to 2", func() bool { return len(f.inService(t)) == 2 })
	asg, _ := f.cloud.DescribeAutoScalingGroup(f.ctx, f.asgName)
	if asg.Desired != 2 {
		t.Fatalf("desired = %d, want 2", asg.Desired)
	}
}

func TestScaleInPrefersOldLaunchConfig(t *testing.T) {
	f := newFixture(t, 2, FastProfile())
	waitFor(t, 5*time.Second, "2 in-service", func() bool { return len(f.inService(t)) == 2 })

	amiV2, err := f.cloud.RegisterImage(f.ctx, "monitor-v2", "v2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.cloud.CreateLaunchConfiguration(f.ctx, LaunchConfig{
		Name: "pod-lc-v2", ImageID: amiV2, KeyName: f.keyName,
		SecurityGroups: []string{f.sgName}, InstanceType: "m1.small",
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.cloud.UpdateAutoScalingGroup(f.ctx, f.asgName, "pod-lc-v2", -1, -1, 3); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "one v2 instance", func() bool {
		for _, inst := range f.inService(t) {
			if inst.Version == "v2" {
				return true
			}
		}
		return false
	})
	// Scale back to 2: the remaining v1 (old LC) instance must go first.
	if err := f.cloud.SetDesiredCapacity(f.ctx, f.asgName, 2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "scale-in drops a v1 instance", func() bool {
		insts := f.inService(t)
		if len(insts) != 2 {
			return false
		}
		v1 := 0
		for _, inst := range insts {
			if inst.Version == "v1" {
				v1++
			}
		}
		return v1 == 1
	})
}

func TestLaunchFailsWhenAMIDeregistered(t *testing.T) {
	f := newFixture(t, 2, FastProfile())
	waitFor(t, 5*time.Second, "2 in-service", func() bool { return len(f.inService(t)) == 2 })
	if err := f.cloud.DeregisterImage(f.ctx, f.amiV1); err != nil {
		t.Fatal(err)
	}
	victim := f.inService(t)[0].ID
	if err := f.cloud.TerminateInstance(f.ctx, victim); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "failed launch activity", func() bool {
		acts, err := f.cloud.DescribeScalingActivities(f.ctx, f.asgName)
		if err != nil {
			return false
		}
		for _, a := range acts {
			if a.Status == ActivityFailed && containsString([]string{a.StatusMessage}, a.StatusMessage) &&
				a.StatusMessage != "" {
				return true
			}
		}
		return false
	})
	acts, _ := f.cloud.DescribeScalingActivities(f.ctx, f.asgName)
	found := false
	for _, a := range acts {
		if a.Status == ActivityFailed {
			if want := ErrCodeInvalidAMINotFound; len(a.StatusMessage) > 0 && a.StatusMessage[:len(want)] == want {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no failed activity mentioning %s: %+v", ErrCodeInvalidAMINotFound, acts)
	}
}

func TestLaunchFailsWhenKeyPairDeleted(t *testing.T) {
	f := newFixture(t, 1, FastProfile())
	waitFor(t, 5*time.Second, "1 in-service", func() bool { return len(f.inService(t)) == 1 })
	if err := f.cloud.DeleteKeyPair(f.ctx, f.keyName); err != nil {
		t.Fatal(err)
	}
	if err := f.cloud.TerminateInstance(f.ctx, f.inService(t)[0].ID); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "failed launch on key pair", func() bool {
		acts, err := f.cloud.DescribeScalingActivities(f.ctx, f.asgName)
		if err != nil {
			return false
		}
		for _, a := range acts {
			if a.Status == ActivityFailed && len(a.StatusMessage) >= len(ErrCodeInvalidKeyPair) &&
				a.StatusMessage[:len(ErrCodeInvalidKeyPair)] == ErrCodeInvalidKeyPair {
				return true
			}
		}
		return false
	})
}

func TestInstanceLimitBlocksLaunch(t *testing.T) {
	profile := FastProfile()
	profile.InstanceLimit = 3
	f := newFixture(t, 2, profile)
	waitFor(t, 5*time.Second, "2 in-service", func() bool { return len(f.inService(t)) == 2 })
	f.cloud.SetExternalUsage(2) // 2 ours + 2 external > 3
	if err := f.cloud.SetDesiredCapacity(f.ctx, f.asgName, 3); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "limit-exceeded activity", func() bool {
		acts, err := f.cloud.DescribeScalingActivities(f.ctx, f.asgName)
		if err != nil {
			return false
		}
		for _, a := range acts {
			if a.Status == ActivityFailed &&
				len(a.StatusMessage) >= len(ErrCodeInstanceLimitExceeded) &&
				a.StatusMessage[:len(ErrCodeInstanceLimitExceeded)] == ErrCodeInstanceLimitExceeded {
				return true
			}
		}
		return false
	})
	f.cloud.SetExternalUsage(0)
	waitFor(t, 5*time.Second, "third instance after limit lifted", func() bool {
		return len(f.inService(t)) == 3
	})
}

func TestELBDisruptionFailsAPIsAndRecovers(t *testing.T) {
	f := newFixture(t, 1, FastProfile())
	waitFor(t, 5*time.Second, "1 in-service", func() bool { return len(f.inService(t)) == 1 })
	f.cloud.SetELBServiceDisruption(true)
	_, err := f.cloud.DescribeLoadBalancer(f.ctx, f.elbName)
	if ErrorCode(err) != ErrCodeServiceUnavailable {
		t.Fatalf("DescribeLoadBalancer during disruption = %v", err)
	}
	if !IsRetryable(err) {
		t.Error("ServiceUnavailable should be retryable")
	}
	f.cloud.SetELBServiceDisruption(false)
	if _, err := f.cloud.DescribeLoadBalancer(f.ctx, f.elbName); err != nil {
		t.Fatalf("DescribeLoadBalancer after recovery: %v", err)
	}
}

func TestAPIErrorCodesAndHelpers(t *testing.T) {
	f := newFixture(t, 1, FastProfile())
	cases := []struct {
		name string
		err  error
		code string
	}{
		{"missing ami", func() error { _, err := f.cloud.DescribeImage(f.ctx, "ami-none"); return err }(), ErrCodeInvalidAMINotFound},
		{"missing key", func() error { _, err := f.cloud.DescribeKeyPair(f.ctx, "nope"); return err }(), ErrCodeInvalidKeyPair},
		{"missing sg", func() error { _, err := f.cloud.DescribeSecurityGroup(f.ctx, "nope"); return err }(), ErrCodeInvalidGroupNotFound},
		{"missing lc", func() error { _, err := f.cloud.DescribeLaunchConfiguration(f.ctx, "nope"); return err }(), ErrCodeLaunchConfigNotFound},
		{"missing asg", func() error { _, err := f.cloud.DescribeAutoScalingGroup(f.ctx, "nope"); return err }(), ErrCodeASGNotFound},
		{"missing elb", func() error { _, err := f.cloud.DescribeLoadBalancer(f.ctx, "nope"); return err }(), ErrCodeLoadBalancerNotFound},
		{"missing instance", func() error { _, err := f.cloud.DescribeInstance(f.ctx, "i-none"); return err }(), ErrCodeInvalidInstance},
	}
	for _, tc := range cases {
		if got := ErrorCode(tc.err); got != tc.code {
			t.Errorf("%s: code = %q, want %q", tc.name, got, tc.code)
		}
		if !IsNotFound(tc.err) {
			t.Errorf("%s: IsNotFound = false", tc.name)
		}
	}
	if ErrorCode(errors.New("plain")) != "" {
		t.Error("ErrorCode of non-API error should be empty")
	}
}

func TestCreateLaunchConfigurationValidation(t *testing.T) {
	f := newFixture(t, 1, FastProfile())
	cases := []struct {
		name string
		lc   LaunchConfig
		code string
	}{
		{"empty name", LaunchConfig{ImageID: f.amiV1, KeyName: f.keyName}, ErrCodeValidationError},
		{"duplicate", LaunchConfig{Name: f.lcName, ImageID: f.amiV1, KeyName: f.keyName}, ErrCodeAlreadyExists},
		{"bad ami", LaunchConfig{Name: "x1", ImageID: "ami-none", KeyName: f.keyName}, ErrCodeInvalidAMINotFound},
		{"bad key", LaunchConfig{Name: "x2", ImageID: f.amiV1, KeyName: "nope"}, ErrCodeInvalidKeyPair},
		{"bad sg", LaunchConfig{Name: "x3", ImageID: f.amiV1, KeyName: f.keyName, SecurityGroups: []string{"nope"}}, ErrCodeInvalidGroupNotFound},
	}
	for _, tc := range cases {
		err := f.cloud.CreateLaunchConfiguration(f.ctx, tc.lc)
		if got := ErrorCode(err); got != tc.code {
			t.Errorf("%s: code = %q, want %q", tc.name, got, tc.code)
		}
	}
}

func TestASGCapacityValidation(t *testing.T) {
	f := newFixture(t, 1, FastProfile())
	err := f.cloud.CreateAutoScalingGroup(f.ctx, ASG{
		Name: "bad", LaunchConfigName: f.lcName, Min: 5, Max: 2, Desired: 3,
	})
	if ErrorCode(err) != ErrCodeValidationError {
		t.Fatalf("invalid bounds accepted: %v", err)
	}
	err = f.cloud.SetDesiredCapacity(f.ctx, f.asgName, 1000)
	if ErrorCode(err) != ErrCodeValidationError {
		t.Fatalf("desired beyond max accepted: %v", err)
	}
}

func TestThrottlingKicksIn(t *testing.T) {
	profile := FastProfile()
	profile.RatePerSecond = 0.0001 // effectively: only the burst is usable
	profile.RateBurst = 5
	clk := clock.NewScaled(100, time.Unix(0, 0))
	c := New(clk, profile, WithSeed(1))
	c.Start()
	defer c.Stop()
	ctx := context.Background()
	var throttled bool
	for i := 0; i < 20; i++ {
		_, err := c.DescribeInstances(ctx)
		if ErrorCode(err) == ErrCodeRequestLimitExceeded {
			throttled = true
			break
		}
	}
	if !throttled {
		t.Fatal("no throttling after exhausting burst")
	}
}

func TestEventualConsistencyServesStaleReads(t *testing.T) {
	profile := FastProfile()
	profile.StaleProb = 1.0 // every read is stale
	profile.StaleLag = clock.Fixed(500 * time.Millisecond)
	profile.TickInterval = 5 * time.Millisecond
	f := newFixture(t, 1, profile)
	waitFor(t, 5*time.Second, "1 in-service", func() bool {
		// Live state check via scaling activities is also stale; poll
		// until the stale view catches up.
		insts, err := f.cloud.DescribeInstances(f.ctx)
		if err != nil {
			return false
		}
		n := 0
		for _, inst := range insts {
			if inst.State == StateInService {
				n++
			}
		}
		return n == 1
	})
	// Deregister the image; a stale read may still see it available.
	if err := f.cloud.DeregisterImage(f.ctx, f.amiV1); err != nil {
		t.Fatal(err)
	}
	img, err := f.cloud.DescribeImage(f.ctx, f.amiV1)
	if err != nil {
		t.Fatalf("stale DescribeImage: %v", err)
	}
	if !img.Available {
		t.Skip("stale window already passed on this machine")
	}
	// Eventually the deregistration becomes visible.
	waitFor(t, 5*time.Second, "deregistration visible", func() bool {
		img, err := f.cloud.DescribeImage(f.ctx, f.amiV1)
		return err == nil && !img.Available
	})
}

func TestCloudPublishesEventsToBus(t *testing.T) {
	bus := logging.NewBus()
	defer bus.Close()
	sink := logging.NewMemorySink()
	sub := bus.Subscribe(1024, logging.TypeFilter(logging.TypeCloud))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for e := range sub.C {
			sink.Write(e)
		}
	}()

	clk := clock.NewScaled(200, time.Unix(0, 0))
	c := New(clk, FastProfile(), WithSeed(3), WithBus(bus))
	c.Start()
	ctx := context.Background()
	ami, _ := c.RegisterImage(ctx, "x", "v1", nil)
	_ = c.ImportKeyPair(ctx, "k")
	_, _ = c.CreateSecurityGroup(ctx, "s", nil)
	_ = c.CreateLaunchConfiguration(ctx, LaunchConfig{Name: "lc", ImageID: ami, KeyName: "k", SecurityGroups: []string{"s"}})
	_ = c.CreateAutoScalingGroup(ctx, ASG{Name: "g", LaunchConfigName: "lc", Min: 0, Max: 2, Desired: 1})
	waitFor(t, 5*time.Second, "cloud events on bus", func() bool { return sink.Len() > 0 })
	c.Stop()
	sub.Cancel()
	<-done
}

func TestTerminateIsIdempotent(t *testing.T) {
	f := newFixture(t, 1, FastProfile())
	waitFor(t, 5*time.Second, "1 in-service", func() bool { return len(f.inService(t)) == 1 })
	id := f.inService(t)[0].ID
	if err := f.cloud.TerminateInstance(f.ctx, id); err != nil {
		t.Fatal(err)
	}
	if err := f.cloud.TerminateInstance(f.ctx, id); err != nil {
		t.Fatalf("second terminate: %v", err)
	}
}

func TestDeleteASGTerminatesMembers(t *testing.T) {
	f := newFixture(t, 2, FastProfile())
	waitFor(t, 5*time.Second, "2 in-service", func() bool { return len(f.inService(t)) == 2 })
	if err := f.cloud.DeleteAutoScalingGroup(f.ctx, f.asgName); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "members terminated", func() bool {
		insts, err := f.cloud.DescribeInstances(f.ctx)
		if err != nil {
			return false
		}
		for _, inst := range insts {
			if inst.Live() {
				return false
			}
		}
		return true
	})
}

func TestInstanceStateString(t *testing.T) {
	want := map[InstanceState]string{
		StatePending:      "pending",
		StateInService:    "in-service",
		StateTerminating:  "terminating",
		StateTerminated:   "terminated",
		InstanceState(99): "unknown",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), str)
		}
	}
}
