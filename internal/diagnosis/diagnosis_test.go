package diagnosis

import (
	"context"
	"testing"
	"time"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/consistentapi"
	"poddiagnosis/internal/diagplan"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/process"
	"poddiagnosis/internal/simaws"
	"poddiagnosis/internal/upgrade"
)

type diagEnv struct {
	cloud   *simaws.Cloud
	cluster *upgrade.Cluster
	engine  *Engine
	eval    *assertion.Evaluator
	bus     *logging.Bus
	sink    *logging.MemorySink
	ctx     context.Context
}

func newDiagEnv(t *testing.T, size int, opts Options) *diagEnv {
	t.Helper()
	clk := clock.NewScaled(800, time.Date(2013, 11, 19, 11, 48, 0, 0, time.UTC))
	bus := logging.NewBus()
	profile := simaws.FastProfile()
	profile.BootTime = clock.Fixed(45 * time.Second)
	profile.TickInterval = 200 * time.Millisecond
	cloud := simaws.New(clk, profile, simaws.WithSeed(13), simaws.WithBus(bus))
	cloud.Start()
	t.Cleanup(func() { cloud.Stop(); bus.Close() })

	sink := logging.NewMemorySink()
	sub := bus.Subscribe(4096, logging.TypeFilter(logging.TypeDiagnosis))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for e := range sub.C {
			sink.Write(e)
		}
	}()
	t.Cleanup(func() { sub.Cancel(); <-done })

	ctx := context.Background()
	cluster, err := upgrade.Deploy(ctx, cloud, "dsn", size, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.WaitReady(ctx, cloud, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	client := consistentapi.New(cloud, consistentapi.Config{
		MaxAttempts:    3,
		InitialBackoff: 100 * time.Millisecond,
		MaxBackoff:     time.Second,
		CallTimeout:    20 * time.Second,
	})
	eval := assertion.NewEvaluator(client, assertion.DefaultRegistry(), bus)
	engine := NewEngine(diagplan.DefaultCatalog(), eval, bus, opts)
	return &diagEnv{cloud: cloud, cluster: cluster, engine: engine, eval: eval, bus: bus, sink: sink, ctx: ctx}
}

// request builds a version-count diagnosis request with full params, as the
// POD engine would after the step-7 assertion failed.
func (e *diagEnv) request(stepID string) Request {
	return Request{
		AssertionID:       assertion.CheckASGVersionCount,
		Source:            SourceAssertion,
		ProcessInstanceID: "pushing dsn--asg",
		StepID:            stepID,
		Detail:            "The ASG dsn--asg is using a correct version",
		Params: assertion.Params{
			assertion.ParamASG:          e.cluster.ASGName,
			assertion.ParamELB:          e.cluster.ELBName,
			assertion.ParamAMI:          e.cluster.ImageID,
			assertion.ParamKeyPair:      e.cluster.KeyName,
			assertion.ParamSG:           e.cluster.SGName,
			assertion.ParamInstanceType: "m1.small",
			assertion.ParamVersion:      e.cluster.Version,
			assertion.ParamWant:         "2",
			assertion.ParamLC:           e.cluster.LCName,
		},
	}
}

// waitMembers polls until the cluster ASG has exactly n in-service
// instances.
func (e *diagEnv) waitMembers(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		instances, err := e.cloud.DescribeInstances(e.ctx)
		if err == nil {
			live := 0
			for _, inst := range instances {
				if inst.ASGName == e.cluster.ASGName && inst.State == simaws.StateInService {
					live++
				}
			}
			if live == n {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("ASG never reached %d in-service instances", n)
}

func TestDiagnosesWrongAMI(t *testing.T) {
	e := newDiagEnv(t, 2, Options{})
	// Inject fault 1: a concurrent upgrade switched the ASG to another
	// AMI's launch configuration.
	wrongAMI, err := e.cloud.RegisterImage(e.ctx, "rogue", "v9", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.cloud.CreateLaunchConfiguration(e.ctx, simaws.LaunchConfig{
		Name: "rogue-lc", ImageID: wrongAMI, KeyName: e.cluster.KeyName,
		SecurityGroups: []string{e.cluster.SGName}, InstanceType: "m1.small",
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.cloud.UpdateAutoScalingGroup(e.ctx, e.cluster.ASGName, "rogue-lc", -1, -1, -1); err != nil {
		t.Fatal(err)
	}

	d := e.engine.Diagnose(e.ctx, e.request(process.StepNewReady))
	if d.Conclusion != ConclusionIdentified {
		t.Fatalf("conclusion = %s, suspected %v, tests %d", d.Conclusion, d.Suspected, len(d.TestsRun))
	}
	if !d.HasCause("wrong-ami") {
		t.Fatalf("root causes = %+v, want wrong-ami", d.RootCauses)
	}
	if d.PotentialFaults == 0 {
		t.Errorf("potential=%d", d.PotentialFaults)
	}
	// With the paper's probability ordering, SG and key pair are checked
	// (and excluded) before the AMI fault is confirmed.
	if d.Excluded < 2 {
		t.Errorf("excluded = %d, want >= 2", d.Excluded)
	}
	if d.Duration <= 0 {
		t.Error("no duration recorded")
	}
}

func TestDiagnosesWrongKeyPair(t *testing.T) {
	e := newDiagEnv(t, 1, Options{})
	_ = e.cloud.ImportKeyPair(e.ctx, "rogue-key")
	if err := e.cloud.CreateLaunchConfiguration(e.ctx, simaws.LaunchConfig{
		Name: "rogue-lc", ImageID: e.cluster.ImageID, KeyName: "rogue-key",
		SecurityGroups: []string{e.cluster.SGName}, InstanceType: "m1.small",
	}); err != nil {
		t.Fatal(err)
	}
	_ = e.cloud.UpdateAutoScalingGroup(e.ctx, e.cluster.ASGName, "rogue-lc", -1, -1, -1)
	d := e.engine.Diagnose(e.ctx, e.request(process.StepNewReady))
	if !d.HasCause("wrong-keypair") {
		t.Fatalf("causes = %+v", d.RootCauses)
	}
}

func TestDiagnosesAMIUnavailable(t *testing.T) {
	e := newDiagEnv(t, 2, Options{})
	// Fault 5: AMI deleted mid-upgrade; replacements cannot launch.
	if err := e.cloud.DeregisterImage(e.ctx, e.cluster.ImageID); err != nil {
		t.Fatal(err)
	}
	if err := e.cloud.SetDesiredCapacity(e.ctx, e.cluster.ASGName, 3); err != nil {
		t.Fatal(err)
	}
	// Wait for a failed launch activity.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		acts, err := e.cloud.DescribeScalingActivities(e.ctx, e.cluster.ASGName)
		if err == nil {
			for _, a := range acts {
				if a.Status == simaws.ActivityFailed {
					goto ready
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
ready:
	d := e.engine.Diagnose(e.ctx, e.request(process.StepWaitASG))
	if d.Conclusion != ConclusionIdentified {
		t.Fatalf("conclusion = %s (suspected %+v)", d.Conclusion, d.Suspected)
	}
	if !d.HasCause("launch-ami-unavailable") {
		t.Fatalf("causes = %+v", d.RootCauses)
	}
}

func TestDiagnosesELBUnavailable(t *testing.T) {
	e := newDiagEnv(t, 1, Options{})
	e.cloud.SetELBServiceDisruption(true)
	d := e.engine.Diagnose(e.ctx, e.request(process.StepDeregister))
	if !d.HasCause("elb-unreachable") {
		t.Fatalf("causes = %+v, suspected %+v, conclusion %s", d.RootCauses, d.Suspected, d.Conclusion)
	}
}

func TestDiagnosesScaleInInterference(t *testing.T) {
	e := newDiagEnv(t, 2, Options{})
	if err := e.cloud.SetDesiredCapacity(e.ctx, e.cluster.ASGName, 1); err != nil {
		t.Fatal(err)
	}
	e.waitMembers(t, 1)
	d := e.engine.Diagnose(e.ctx, e.request(process.StepNewReady))
	if !d.HasCause("simultaneous-scale-in") {
		t.Fatalf("causes = %+v", d.RootCauses)
	}
}

func TestNoRootCauseWhenHealthy(t *testing.T) {
	e := newDiagEnv(t, 2, Options{})
	d := e.engine.Diagnose(e.ctx, e.request(process.StepNewReady))
	if d.Conclusion != ConclusionNone {
		t.Fatalf("conclusion = %s, causes %+v, suspected %+v", d.Conclusion, d.RootCauses, d.Suspected)
	}
	if d.Excluded == 0 {
		t.Error("nothing excluded on healthy system")
	}
}

func TestRandomTerminationOnlySuspected(t *testing.T) {
	e := newDiagEnv(t, 2, Options{})
	// Terminate an instance outside the process (no scale-in activity).
	insts, err := e.cloud.DescribeInstances(e.ctx)
	if err != nil || len(insts) == 0 {
		t.Fatal(err)
	}
	if err := e.cloud.TerminateInstance(e.ctx, insts[0].ID); err != nil {
		t.Fatal(err)
	}
	e.waitMembers(t, 1)
	// Diagnose before the ASG replaces the victim. Count check uses
	// want=2; instance count dropped but no scale-in, no failed launch.
	req := e.request(process.StepNewReady)
	req.AssertionID = assertion.CheckASGInstanceCount
	d := e.engine.Diagnose(e.ctx, req)
	// The only live hypothesis is unexpected-termination — unconfirmable
	// without CloudTrail.
	if d.Conclusion == ConclusionIdentified {
		t.Fatalf("unexpectedly identified: %+v", d.RootCauses)
	}
	foundSuspect := false
	for _, c := range d.Suspected {
		if c.NodeID == "unexpected-termination-ic" {
			foundSuspect = true
		}
	}
	if !foundSuspect {
		t.Fatalf("suspected = %+v, want unexpected-termination-ic", d.Suspected)
	}
}

func TestTimerTriggeredDiagnosisLacksContext(t *testing.T) {
	e := newDiagEnv(t, 1, Options{})
	// Purely timer-based trigger: no step id, no assertion id, sparse
	// params (§VI.A wrong-diagnosis class 1).
	d := e.engine.Diagnose(e.ctx, Request{
		Source: SourceTimer,
		Params: assertion.Params{assertion.ParamASG: e.cluster.ASGName},
	})
	// With sparse params many tests are inconclusive; the engine must not
	// fabricate a confirmed cause on a healthy system.
	if d.Conclusion == ConclusionIdentified {
		t.Fatalf("identified on healthy system: %+v", d.RootCauses)
	}
}

func TestCachingReusesTestResults(t *testing.T) {
	e := newDiagEnv(t, 1, Options{ContinueAfterConfirm: true})
	d := e.engine.Diagnose(e.ctx, e.request("")) // no pruning by step
	seen := make(map[string]int)
	for _, res := range d.TestsRun {
		key := res.CheckID
		for _, k := range []string{assertion.ParamAMI, assertion.ParamKeyPair, assertion.ParamSG, assertion.ParamInstance} {
			key += "|" + res.Params[k]
		}
		seen[key]++
	}
	for key, n := range seen {
		if n > 1 {
			t.Errorf("test %s ran %d times despite caching", key, n)
		}
	}
}

func TestStopAtFirstConfirmation(t *testing.T) {
	e := newDiagEnv(t, 1, Options{})
	// Two faults: wrong AMI (via rogue LC) and ELB disruption.
	wrongAMI, _ := e.cloud.RegisterImage(e.ctx, "rogue", "v9", nil)
	_ = e.cloud.CreateLaunchConfiguration(e.ctx, simaws.LaunchConfig{
		Name: "rogue-lc", ImageID: wrongAMI, KeyName: e.cluster.KeyName,
		SecurityGroups: []string{e.cluster.SGName}, InstanceType: "m1.small",
	})
	_ = e.cloud.UpdateAutoScalingGroup(e.ctx, e.cluster.ASGName, "rogue-lc", -1, -1, -1)
	e.cloud.SetELBServiceDisruption(true)

	d := e.engine.Diagnose(e.ctx, e.request(process.StepNewReady))
	if len(d.RootCauses) != 1 {
		t.Fatalf("causes = %+v, want exactly one (stop at first)", d.RootCauses)
	}

	e2 := newDiagEnv(t, 1, Options{ContinueAfterConfirm: true})
	_ = e2.cloud.ImportKeyPair(e2.ctx, "zz")
	wrongAMI2, _ := e2.cloud.RegisterImage(e2.ctx, "rogue2", "v9", nil)
	_ = e2.cloud.CreateLaunchConfiguration(e2.ctx, simaws.LaunchConfig{
		Name: "rogue-lc2", ImageID: wrongAMI2, KeyName: "zz",
		SecurityGroups: []string{e2.cluster.SGName}, InstanceType: "m1.large",
	})
	_ = e2.cloud.UpdateAutoScalingGroup(e2.ctx, e2.cluster.ASGName, "rogue-lc2", -1, -1, -1)
	d2 := e2.engine.Diagnose(e2.ctx, e2.request(process.StepNewReady))
	if len(d2.RootCauses) < 2 {
		t.Fatalf("ContinueAfterConfirm found %d causes: %+v", len(d2.RootCauses), d2.RootCauses)
	}
}

func TestPruningAblationRunsMoreTests(t *testing.T) {
	e := newDiagEnv(t, 1, Options{ContinueAfterConfirm: true})
	dPruned := e.engine.Diagnose(e.ctx, e.request(process.StepUpdateLC))

	eNoPrune := NewEngine(diagplan.DefaultCatalog(), e.eval, nil,
		Options{DisablePruning: true, ContinueAfterConfirm: true})
	dFull := eNoPrune.Diagnose(e.ctx, e.request(process.StepUpdateLC))

	if dFull.PotentialFaults <= dPruned.PotentialFaults {
		t.Errorf("pruning did not reduce potential faults: %d vs %d",
			dPruned.PotentialFaults, dFull.PotentialFaults)
	}
	if len(dFull.TestsRun) < len(dPruned.TestsRun) {
		t.Errorf("unpruned ran fewer tests: %d vs %d", len(dFull.TestsRun), len(dPruned.TestsRun))
	}
}

func TestDiagnosisLogsMirrorPaperFormat(t *testing.T) {
	e := newDiagEnv(t, 1, Options{})
	wrongAMI, _ := e.cloud.RegisterImage(e.ctx, "rogue", "v9", nil)
	_ = e.cloud.CreateLaunchConfiguration(e.ctx, simaws.LaunchConfig{
		Name: "rogue-lc", ImageID: wrongAMI, KeyName: e.cluster.KeyName,
		SecurityGroups: []string{e.cluster.SGName}, InstanceType: "m1.small",
	})
	_ = e.cloud.UpdateAutoScalingGroup(e.ctx, e.cluster.ASGName, "rogue-lc", -1, -1, -1)
	e.engine.Diagnose(e.ctx, e.request(process.StepNewReady))

	// Wait until the final "root cause is identified" log has been
	// delivered (bus delivery is asynchronous).
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		delivered := false
		for _, ev := range e.sink.Events() {
			if contains(ev.Message, "root cause is identified") {
				delivered = true
			}
		}
		if delivered {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	var sawIntro, sawVerify, sawCause bool
	for _, ev := range e.sink.Events() {
		if ev.Type != logging.TypeDiagnosis {
			t.Errorf("non-diagnosis event on filter: %s", ev.Type)
		}
		switch {
		case contains(ev.Message, "potential faults in total"):
			sawIntro = true
		case contains(ev.Message, "Verifying"):
			sawVerify = true
		case contains(ev.Message, "root cause is identified"):
			sawCause = true
		}
	}
	if !sawIntro || !sawVerify || !sawCause {
		t.Errorf("log coverage: intro=%v verify=%v cause=%v", sawIntro, sawVerify, sawCause)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestTestBudgetBounds(t *testing.T) {
	e := newDiagEnv(t, 1, Options{MaxTests: 2, ContinueAfterConfirm: true})
	d := e.engine.Diagnose(e.ctx, e.request(""))
	if len(d.TestsRun) > 2 {
		t.Fatalf("ran %d tests with budget 2", len(d.TestsRun))
	}
}
