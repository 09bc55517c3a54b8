package poddiagnosis

import (
	"context"
	"testing"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/simaws"
)

// TestPublicAPIEndToEnd drives the whole library exactly as the package
// documentation advertises: simulated cloud, deployed cluster, monitor,
// rolling upgrade, detections.
func TestPublicAPIEndToEnd(t *testing.T) {
	clk := clock.NewScaled(1200, time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC))
	bus := NewLogBus()
	defer bus.Close()
	profile := FastProfile()
	profile.BootTime = clock.Fixed(30 * time.Second)
	profile.TickInterval = time.Second
	cloud := simaws.New(clk, profile, simaws.WithSeed(2), simaws.WithBus(bus))
	cloud.Start()
	defer cloud.Stop()

	ctx := context.Background()
	cluster, err := Deploy(ctx, cloud, "pm", 2, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.WaitReady(ctx, cloud, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	newAMI, err := cloud.RegisterImage(ctx, "pm-v2", "v2", nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := cluster.UpgradeSpec("pushing pm--asg", newAMI)
	spec.NewLCName = cluster.ASGName + "-lc-" + newAMI

	mgr, err := NewManager(ManagerConfig{
		Cloud: cloud,
		Bus:   bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := mgr.Watch(Expectation{
		ASGName:      cluster.ASGName,
		ELBName:      cluster.ELBName,
		NewImageID:   newAMI,
		NewVersion:   "v2",
		NewLCName:    spec.NewLCName,
		KeyName:      cluster.KeyName,
		SGName:       cluster.SGName,
		InstanceType: "m1.small",
		ClusterSize:  2,
	}, MatchAnyInstance())
	if err != nil {
		t.Fatal(err)
	}
	mgr.Start()
	rep := NewUpgrader(cloud, bus).Run(ctx, spec)
	mgr.Drain(ctx, 2*time.Minute)
	mgr.Stop()

	if rep.Err != nil {
		t.Fatalf("upgrade: %v", rep.Err)
	}
	if !sess.Checker().Completed("pushing pm--asg") {
		t.Error("process did not complete per conformance")
	}
	for _, d := range sess.Detections() {
		if d.Diagnosis != nil && d.Diagnosis.Conclusion == "root cause identified" {
			t.Errorf("spurious root cause on clean run: %+v", d)
		}
	}
}

func TestFacadeConstructors(t *testing.T) {
	if Version == "" {
		t.Error("no version")
	}
	if NewScaledClock(10) == nil || NewRealClock() == nil {
		t.Error("clock constructors returned nil")
	}
	if RollingUpgradeModel() == nil {
		t.Error("no model")
	}
	if DefaultAssertions() == nil || len(DefaultAssertions().IDs()) < 15 {
		t.Error("assertion library incomplete")
	}
	if DefaultDiagnosisPlans() == nil || len(DefaultDiagnosisPlans().All()) < 6 {
		t.Error("diagnosis plans incomplete")
	}
	bus := NewLogBus()
	defer bus.Close()
	c := NewSimulatedCloud(NewScaledClock(100), FastProfile(), bus, 1)
	if c == nil {
		t.Fatal("no cloud")
	}
	if PaperProfile().APILatency.IsZero() {
		t.Error("paper profile has no latency")
	}
}
