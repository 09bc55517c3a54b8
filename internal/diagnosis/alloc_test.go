package diagnosis

import (
	"context"
	"testing"
	"time"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/consistentapi"
	"poddiagnosis/internal/faulttree"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/obs/flight"
	"poddiagnosis/internal/process"
	"poddiagnosis/internal/simaws"
	"poddiagnosis/internal/upgrade"
)

// Allocation budgets of one Engine.Diagnose on the request the benchmark's
// diagnose_storm workload issues: asg-version-count failed at step7 on a
// 2-instance cluster whose group points at a launch configuration with the
// wrong AMI; three tests run, the third confirms wrong-ami. Measured 224
// (sequential) and 252 (Workers=2) allocations; the budgets are those plus
// 5%. When every run cloned its plans and every cloud read copied the
// account, the same calls allocated 682 and 710.
const (
	diagnoseAllocBudget         = 235
	diagnoseAllocBudgetParallel = 264
)

func TestDiagnoseAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	clk := clock.NewScaled(1000, time.Date(2013, 11, 19, 11, 48, 0, 0, time.UTC))
	profile := simaws.FastProfile()
	profile.TickInterval = time.Second
	cloud := simaws.New(clk, profile, simaws.WithSeed(1))
	cloud.Start()
	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			cloud.Stop()
		}
	}
	defer stop()
	ctx := context.Background()
	cluster, err := upgrade.Deploy(ctx, cloud, "pm", 2, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.WaitReady(ctx, cloud, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	intended, err := cloud.RegisterImage(ctx, "pm-v2", "v2", upgrade.AppServices)
	if err != nil {
		t.Fatal(err)
	}
	rogue, err := cloud.RegisterImage(ctx, "rogue", "v9", nil)
	if err != nil {
		t.Fatal(err)
	}
	newLC := cluster.ASGName + "-lc-" + intended
	for name, image := range map[string]string{newLC: intended, "rogue-lc": rogue} {
		if err := cloud.CreateLaunchConfiguration(ctx, simaws.LaunchConfig{
			Name: name, ImageID: image, KeyName: cluster.KeyName,
			SecurityGroups: []string{cluster.SGName}, InstanceType: "m1.small",
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cloud.UpdateAutoScalingGroup(ctx, cluster.ASGName, "rogue-lc", -1, -1, -1); err != nil {
		t.Fatal(err)
	}
	// The reconciler's garbage is not the walk's: count with it stopped.
	stop()

	req := Request{
		AssertionID: assertion.CheckASGVersionCount, Source: SourceAssertion,
		ProcessInstanceID: "pushing " + cluster.ASGName, StepID: process.StepNewReady,
		Detail: "ASG pm--asg has 0 of 1 instances with version v2.",
		Params: assertion.Params{
			assertion.ParamASG: cluster.ASGName, assertion.ParamELB: cluster.ELBName,
			assertion.ParamAMI: intended, assertion.ParamVersion: "v2",
			assertion.ParamLC: newLC, assertion.ParamKeyPair: cluster.KeyName,
			assertion.ParamSG: cluster.SGName, assertion.ParamInstanceType: "m1.small",
			assertion.ParamWant: "1",
		},
	}
	for _, tc := range []struct {
		name    string
		workers int
		budget  float64
	}{
		{"sequential", 1, diagnoseAllocBudget},
		{"workers=2", 2, diagnoseAllocBudgetParallel},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bus := logging.NewBus()
			defer bus.Close()
			client := consistentapi.New(cloud, consistentapi.Config{MaxAttempts: 1})
			eval := assertion.NewEvaluator(client, assertion.DefaultRegistry(), bus)
			engine := NewEngine(faulttree.DefaultCatalog(), eval, bus, Options{Workers: tc.workers})
			ring := flight.NewRecorder(clk, 0).Op("op")
			anchor := ring.Record(flight.Entry{Kind: flight.KindLogEvent, Message: "trigger"})
			dctx := flight.WithParent(flight.NewContext(ctx, ring), anchor)
			var d *Diagnosis
			got := testing.AllocsPerRun(50, func() { d = engine.Diagnose(dctx, req) })
			if !d.HasCause("wrong-ami") || len(d.TestsRun) < 3 {
				t.Fatalf("diagnosis %s after %d tests, want wrong-ami confirmed after 3", d.Conclusion, len(d.TestsRun))
			}
			t.Logf("%.0f allocations per diagnosis", got)
			if got > tc.budget {
				t.Errorf("%.0f allocations per diagnosis, budget %.0f", got, tc.budget)
			}
		})
	}
}
