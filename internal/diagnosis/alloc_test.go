package diagnosis

import (
	"context"
	"slices"
	"testing"
	"time"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/consistentapi"
	"poddiagnosis/internal/diagplan"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/obs/flight"
	"poddiagnosis/internal/process"
	"poddiagnosis/internal/simaws"
	"poddiagnosis/internal/upgrade"
)

// Allocation budget of one Engine.Diagnose on the request the benchmark's
// diagnose_storm workload issues: asg-version-count failed at step7 on a
// 2-instance cluster whose group points at a launch configuration with the
// wrong AMI; three tests run, the third confirms wrong-ami. Measured 73
// allocations; the budget is that plus 5%. A memory profile of the walk
// names what is left per call:
//   - per test, 15 (45 over the walk): the test's span and its
//     evaluation's span (2), the shared-cache entry and its key (2), the
//     rendered check parameters (1), the evidence message and its parent
//     list (2), the monitoring-plane context (1), the describe copies (3:
//     the group's balancer and instance lists, the launch configuration's
//     security groups), the pass or fail message (1), and the
//     evaluation's log line and its fields map (3),
//   - per walk, 28: the walk's span (1), the diagnosis log lines (8) and
//     their fields map (2), the Diagnosis, the run, the views and the
//     entries (4), the plan walk's evidence message and parents (2),
//     TestsRun (1), the claimed and excluded bitsets (2), the exclusions
//     (2), the confirmed cause's description, slice, evidence message,
//     parents and RootCauses entry (5) and the give-up error (1).
//
// The budget was 89 (measured 85) until a test ran under its caller's
// context: each test's clock deadline cost 4 (12 over the walk), the
// cancelCtx and its cancel, the wall timer and the closure that stopped
// it. The consistent API's CallTimeout bounds each cloud read instead.
//
// It was 126 (measured 120) until a walk stopped paying for scaffolding
// beside its tests:
//   - the parallel fan-out allocated a sub-branch slice, an atomic, a
//     WaitGroup and a branch and a closure per sibling at every level,
//   - a span and the context.WithValue carrying it (7 of the latter); the
//     span is now its own context,
//   - a ready channel per shared-cache entry (3); the entry's WaitGroup
//     and a done flag replace it,
//   - the run's test keys, first-test entries and TestsRun grown one at a
//     time (8); they are sized for four tests,
//   - pass and fail messages formatted twice through fmt.Sprintf with
//     boxed arguments (11); they are concatenated once,
//   - the Stop method value of each deadline's timer (3),
//   - the group's scaling history, copied by each describe (3); the
//     describe leaves it to DescribeScalingActivities.
//
// It was 179 (measured 170) until each evaluation stopped paying for
// bookkeeping beside its cloud reads (assertion log lines, span attribute
// maps, deadline goroutines, fmt.Errorf wrappers, boxed plane tags and
// joined label keys), and when every run cloned its plans and every cloud
// read copied the account, the same call allocated 682.
const diagnoseAllocBudget = 77

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
	req := wrongAMIRequest(t, cloud)
	// The reconciler's garbage is not the walk's: count with it stopped.
	stop()
	ctx := context.Background()

	// The walk runs on one goroutine; the subtest keeps the name it had
	// when a Workers=2 case ran beside it.
	t.Run("sequential", func(t *testing.T) {
		bus := logging.NewBus()
		defer bus.Close()
		client := consistentapi.New(cloud, consistentapi.Config{MaxAttempts: 1})
		eval := assertion.NewEvaluator(client, assertion.DefaultRegistry(), bus)
		engine := NewEngine(diagplan.DefaultCatalog(), eval, bus, Options{})
		ring := flight.NewRecorder(clk, 0).Op("op")
		anchor := ring.Record(flight.Entry{Kind: flight.KindLogEvent, Message: "trigger"})
		dctx := flight.WithParent(flight.NewContext(ctx, ring), anchor)
		var d *Diagnosis
		got := testing.AllocsPerRun(50, func() { d = engine.Diagnose(dctx, req) })
		var tests []string
		for _, res := range d.TestsRun {
			tests = append(tests, res.CheckID)
		}
		want := []string{assertion.CheckASGUsesSG, assertion.CheckASGUsesKeyPair, assertion.CheckASGUsesAMI}
		if !d.HasCause("wrong-ami") || !slices.Equal(tests, want) {
			t.Fatalf("diagnosis %s after tests %v, want wrong-ami confirmed after %v", d.Conclusion, tests, want)
		}
		t.Logf("%.0f allocations per diagnosis", got)
		if got > diagnoseAllocBudget {
			t.Errorf("%.0f allocations per diagnosis, budget %d", got, diagnoseAllocBudget)
		}
	})
}

// wrongAMIRequest deploys a 2-instance cluster on the cloud, points its
// group at a launch configuration with the wrong AMI, and returns the
// request diagnose_storm issues for it: asg-version-count failed at step7
// against the intended image.
func wrongAMIRequest(t *testing.T, cloud *simaws.Cloud) Request {
	t.Helper()
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
	return Request{
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
}
