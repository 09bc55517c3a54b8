package faultinject

import (
	"context"
	"strings"
	"testing"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/simaws"
	"poddiagnosis/internal/upgrade"
)

type injEnv struct {
	cloud   *simaws.Cloud
	cluster *upgrade.Cluster
	inj     *Injector
	ctx     context.Context
}

func newInjEnv(t *testing.T, n int) *injEnv {
	t.Helper()
	clk := clock.NewScaled(1000, time.Unix(0, 0))
	profile := simaws.FastProfile()
	profile.BootTime = clock.Fixed(time.Second)
	profile.TickInterval = 200 * time.Millisecond
	cloud := simaws.New(clk, profile, simaws.WithSeed(31))
	cloud.Start()
	t.Cleanup(cloud.Stop)
	ctx := context.Background()
	cluster, err := upgrade.Deploy(ctx, cloud, "pm", n, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.WaitReady(ctx, cloud, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	return &injEnv{cloud: cloud, cluster: cluster, inj: NewInjector(cloud, cluster, 99), ctx: ctx}
}

func (e *injEnv) currentLC(t *testing.T) simaws.LaunchConfig {
	t.Helper()
	asg, err := e.cloud.DescribeAutoScalingGroup(e.ctx, e.cluster.ASGName)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := e.cloud.DescribeLaunchConfiguration(e.ctx, asg.LaunchConfigName)
	if err != nil {
		t.Fatal(err)
	}
	return lc
}

func TestConfigurationFaultsFlipOneDimension(t *testing.T) {
	cases := []struct {
		kind  Kind
		check func(t *testing.T, before, after simaws.LaunchConfig)
	}{
		{KindAMIChanged, func(t *testing.T, b, a simaws.LaunchConfig) {
			if a.ImageID == b.ImageID {
				t.Error("AMI unchanged")
			}
			if a.KeyName != b.KeyName || a.InstanceType != b.InstanceType {
				t.Error("other dimensions changed")
			}
		}},
		{KindKeyPairChanged, func(t *testing.T, b, a simaws.LaunchConfig) {
			if a.KeyName == b.KeyName {
				t.Error("key unchanged")
			}
			if a.ImageID != b.ImageID {
				t.Error("AMI changed")
			}
		}},
		{KindSGChanged, func(t *testing.T, b, a simaws.LaunchConfig) {
			if len(a.SecurityGroups) == len(b.SecurityGroups) && a.SecurityGroups[0] == b.SecurityGroups[0] {
				t.Error("SG unchanged")
			}
		}},
		{KindInstanceTypeChanged, func(t *testing.T, b, a simaws.LaunchConfig) {
			if a.InstanceType == b.InstanceType {
				t.Error("type unchanged")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			e := newInjEnv(t, 1)
			before := e.currentLC(t)
			if err := e.inj.Inject(e.ctx, tc.kind, 0, "", ""); err != nil {
				t.Fatal(err)
			}
			after := e.currentLC(t)
			tc.check(t, before, after)
			if !tc.kind.ConfigurationFault() {
				t.Error("kind should be a configuration fault")
			}
		})
	}
}

func TestResourceUnavailableFaults(t *testing.T) {
	e := newInjEnv(t, 1)
	if err := e.inj.Inject(e.ctx, KindAMIUnavailable, 0, "", e.cluster.ImageID); err != nil {
		t.Fatal(err)
	}
	img, err := e.cloud.DescribeImage(e.ctx, e.cluster.ImageID)
	if err != nil || img.Available {
		t.Errorf("AMI still available: %v %v", img.Available, err)
	}

	e2 := newInjEnv(t, 1)
	if err := e2.inj.Inject(e2.ctx, KindKeyPairUnavailable, 0, "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.cloud.DescribeKeyPair(e2.ctx, e2.cluster.KeyName); !simaws.IsNotFound(err) {
		t.Errorf("key pair still there: %v", err)
	}

	e3 := newInjEnv(t, 1)
	if err := e3.inj.Inject(e3.ctx, KindSGUnavailable, 0, "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := e3.cloud.DescribeSecurityGroup(e3.ctx, e3.cluster.SGName); !simaws.IsNotFound(err) {
		t.Errorf("SG still there: %v", err)
	}
}

func TestELBUnavailableAndHeal(t *testing.T) {
	e := newInjEnv(t, 1)
	if err := e.inj.Inject(e.ctx, KindELBUnavailable, 0, "", ""); err != nil {
		t.Fatal(err)
	}
	if !e.cloud.ELBServiceDisrupted() {
		t.Fatal("ELB not disrupted")
	}
	e.inj.Heal()
	if e.cloud.ELBServiceDisrupted() {
		t.Fatal("Heal did not clear disruption")
	}
}

func TestWaitThenWaitsForLC(t *testing.T) {
	e := newInjEnv(t, 1)
	done := make(chan error, 1)
	go func() {
		done <- e.inj.Inject(e.ctx, KindAMIUnavailable, 0, "upcoming-lc", e.cluster.ImageID)
	}()
	// The injector should wait for the LC; create it shortly after.
	time.Sleep(10 * time.Millisecond)
	if err := e.cloud.CreateLaunchConfiguration(e.ctx, simaws.LaunchConfig{
		Name: "upcoming-lc", ImageID: e.cluster.ImageID, KeyName: e.cluster.KeyName,
		SecurityGroups: []string{e.cluster.SGName}, InstanceType: "m1.small",
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("injector never finished")
	}
	img, _ := e.cloud.DescribeImage(e.ctx, e.cluster.ImageID)
	if img.Available {
		t.Error("AMI still available after injection")
	}
}

// TestFlipWaitsForGroupSwitch: a configuration flip waits until the
// group runs on the upgrade's launch configuration, not merely until that
// configuration exists; a flip between the two would be overwritten by
// the upgrade's own switch and never manifest.
func TestFlipWaitsForGroupSwitch(t *testing.T) {
	e := newInjEnv(t, 1)
	if err := e.cloud.CreateLaunchConfiguration(e.ctx, simaws.LaunchConfig{
		Name: "upcoming-lc", ImageID: e.cluster.ImageID, KeyName: e.cluster.KeyName,
		SecurityGroups: []string{e.cluster.SGName}, InstanceType: "m1.medium",
	}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- e.inj.Inject(e.ctx, KindKeyPairChanged, 0, "upcoming-lc", "")
	}()
	// The launch configuration exists from the start; give the injector
	// several polls (10s of simulated time) before the group switches.
	time.Sleep(10 * time.Millisecond)
	if err := e.cloud.UpdateAutoScalingGroup(e.ctx, e.cluster.ASGName, "upcoming-lc", -1, -1, -1); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("injector never finished")
	}
	lc := e.currentLC(t)
	if lc.Name == "upcoming-lc" || lc.KeyName == e.cluster.KeyName {
		t.Fatalf("group runs %s (key %s): the flip was overwritten by the switch", lc.Name, lc.KeyName)
	}
	if lc.InstanceType != "m1.medium" {
		t.Errorf("flip copied instance type %s, want the switched-to configuration's m1.medium", lc.InstanceType)
	}
}

func TestInterferenceScaleIn(t *testing.T) {
	e := newInjEnv(t, 3)
	if err := e.inj.Interfere(e.ctx, InterferenceScaleIn, 0); err != nil {
		t.Fatal(err)
	}
	asg, _ := e.cloud.DescribeAutoScalingGroup(e.ctx, e.cluster.ASGName)
	if asg.Desired != 2 {
		t.Fatalf("desired = %d", asg.Desired)
	}
}

func TestInterferenceRandomTermination(t *testing.T) {
	e := newInjEnv(t, 2)
	if err := e.inj.Interfere(e.ctx, InterferenceRandomTermination, 0); err != nil {
		t.Fatal(err)
	}
	instances, _ := e.cloud.DescribeInstances(e.ctx)
	terminating := 0
	for _, inst := range instances {
		if inst.State == simaws.StateTerminating || inst.State == simaws.StateTerminated {
			terminating++
		}
	}
	if terminating == 0 {
		t.Fatal("nothing terminated")
	}
}

func TestInterferenceAccountPressure(t *testing.T) {
	e := newInjEnv(t, 1)
	if err := e.inj.Interfere(e.ctx, InterferenceAccountPressure, 0); err != nil {
		t.Fatal(err)
	}
	if e.cloud.ExternalUsage() == 0 {
		t.Fatal("no external usage set")
	}
	e.inj.Heal()
	if e.cloud.ExternalUsage() != 0 {
		t.Fatal("Heal did not clear usage")
	}
}

func TestKindMetadata(t *testing.T) {
	if len(AllKinds()) != 8 {
		t.Fatalf("AllKinds = %d", len(AllKinds()))
	}
	for _, k := range AllKinds() {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
		if len(k.ExpectedRootCauses()) == 0 {
			t.Errorf("kind %s has no expected root causes", k)
		}
	}
	if Kind(99).String() != "unknown" || Kind(99).ExpectedRootCauses() != nil {
		t.Error("unknown kind metadata wrong")
	}
	conf := 0
	for _, k := range AllKinds() {
		if k.ConfigurationFault() {
			conf++
		}
	}
	if conf != 4 {
		t.Errorf("configuration faults = %d, want 4", conf)
	}
	for _, i := range []Interference{InterferenceScaleIn, InterferenceRandomTermination, InterferenceAccountPressure} {
		if i.String() == "unknown" {
			t.Errorf("interference %d has no name", i)
		}
	}
}

func TestInjectUnknownKind(t *testing.T) {
	e := newInjEnv(t, 1)
	if err := e.inj.Inject(e.ctx, Kind(99), 0, "", ""); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if err := e.inj.Interfere(e.ctx, Interference(99), 0); err == nil {
		t.Fatal("unknown interference accepted")
	}
}

// TestFlipClonesTheConfigurationSeenInUse: on a cloud that serves stale
// reads, the key, security-group and instance-type flips copy the launch
// configuration the upgrade switched the group onto, so the rogue one
// keeps the upgrade's new AMI. A flip that re-described the group could
// read the old configuration and clone the old AMI, which the diagnosis
// then rightly names wrong-ami instead of the injected fault.
func TestFlipClonesTheConfigurationSeenInUse(t *testing.T) {
	ctx := context.Background()
	for _, kind := range []Kind{KindKeyPairChanged, KindSGChanged, KindInstanceTypeChanged} {
		failed := 0
		for seed := int64(1); seed <= 20; seed++ {
			clk := clock.NewScaled(1000, time.Unix(0, 0))
			profile := simaws.FastProfile()
			profile.BootTime = clock.Fixed(time.Second)
			profile.TickInterval = 200 * time.Millisecond
			profile.StaleProb = 0.5
			profile.StaleLag = clock.Fixed(5 * time.Second)
			cloud := simaws.New(clk, profile, simaws.WithSeed(seed))
			cloud.Start()
			cluster, err := upgrade.Deploy(ctx, cloud, "pm", 1, "v1")
			if err != nil {
				t.Fatal(err)
			}
			// Let the stale-read history fill with the group on its old
			// configuration.
			if err := clk.Sleep(ctx, 10*time.Second); err != nil {
				t.Fatal(err)
			}
			// The upgrade's own switch: a new image, a launch configuration
			// launching it, and the group moved onto that configuration.
			newAMI, err := cloud.RegisterImage(ctx, "pm-release", "v2", upgrade.AppServices)
			if err != nil {
				t.Fatal(err)
			}
			newLC := simaws.LaunchConfig{Name: "pm-lc-v2", ImageID: newAMI, KeyName: cluster.KeyName,
				SecurityGroups: []string{cluster.SGName}, InstanceType: "m1.small"}
			if err := cloud.CreateLaunchConfiguration(ctx, newLC); err != nil {
				t.Fatal(err)
			}
			if err := cloud.UpdateAutoScalingGroup(ctx, cluster.ASGName, newLC.Name, -1, -1, -1); err != nil {
				t.Fatal(err)
			}
			if err := NewInjector(cloud, cluster, seed).Inject(ctx, kind, 0, newLC.Name, newAMI); err != nil {
				t.Fatal(err)
			}
			rogue := freshRogueLC(t, ctx, cloud, cluster.ASGName)
			cloud.Stop()
			if rogue.ImageID != newAMI {
				failed++
				t.Errorf("%s seed %d: rogue configuration %s launches %s, want the upgrade's %s",
					kind, seed, rogue.Name, rogue.ImageID, newAMI)
			}
		}
		t.Logf("%s: %d of 20 seeds cloned the old configuration", kind, failed)
	}
}

// freshRogueLC reads the group's rogue launch configuration through stale
// reads: it retries until the group names a rogue configuration and that
// configuration is visible.
func freshRogueLC(t *testing.T, ctx context.Context, cloud *simaws.Cloud, asgName string) simaws.LaunchConfig {
	t.Helper()
	for i := 0; i < 1000; i++ {
		asg, err := cloud.DescribeAutoScalingGroup(ctx, asgName)
		if err != nil || !strings.HasPrefix(asg.LaunchConfigName, "rogue-") {
			continue
		}
		if lc, err := cloud.DescribeLaunchConfiguration(ctx, asg.LaunchConfigName); err == nil {
			return lc
		}
	}
	t.Fatal("the group never showed a readable rogue launch configuration")
	return simaws.LaunchConfig{}
}
