// Scenario lanes: evaluation runs for the operations beyond rolling
// upgrade. Each lane builds a Manager wired for its scenario — the
// scenario's process model, its assertion specification, and the full
// plan catalog (the rolling-upgrade plans plus the scenario plans) — and
// drives the corresponding orchestrator from internal/upgrade while
// injecting the scenario's ground truth.
package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"poddiagnosis/internal/core"
	"poddiagnosis/internal/diagplan"
	"poddiagnosis/internal/faultinject"
	"poddiagnosis/internal/process"
	"poddiagnosis/internal/upgrade"
)

// scenarioManager returns a ManagerConfig mutator selecting the
// scenario's model and spec, and widening the plan catalog to the full
// one. Step-context pruning keeps the catalogs from bleeding into each
// other: the rolling-upgrade plans scope their collectors to
// step2..step8, the scenario plans to bgstepN/ssstepN.
func scenarioManager(model *process.Model, specText string) func(*core.ManagerConfig) {
	return func(mc *core.ManagerConfig) {
		mc.Model = model
		mc.AssertionSpec = specText
		mc.Plans = diagplan.FullCatalog()
	}
}

// RunBlueGreenOne executes one blue/green evaluation run on a fresh
// lane: deploy the blue cluster, start a blue/green deploy to v2 with
// POD watching the green group, inject spec.Fault (and interferences)
// against the green resources, and classify the detections against the
// same ground truth as a rolling-upgrade run — the 8 fault kinds strike
// the green fleet through the identical cloud APIs.
func RunBlueGreenOne(ctx context.Context, spec RunSpec, cfg Config) (*RunResult, error) {
	l, err := newLane(cfg, spec.Seed, scenarioManager(process.BlueGreenModel(), process.BlueGreenSpecText))
	if err != nil {
		return nil, fmt.Errorf("experiment: blue/green run %d: %w", spec.ID, err)
	}
	defer l.close()
	return l.runBlueGreen(ctx, spec, "bg")
}

func (l *lane) runBlueGreen(ctx context.Context, spec RunSpec, appName string) (*RunResult, error) {
	runStart := l.clk.Now()
	rng := rand.New(rand.NewSource(spec.Seed ^ 0x5eed))

	cluster, err := upgrade.Deploy(ctx, l.cloud, appName, spec.ClusterSize, "v1")
	if err != nil {
		return nil, fmt.Errorf("experiment: blue/green run %d: %w", spec.ID, err)
	}
	if err := cluster.WaitReady(ctx, l.cloud, 10*time.Minute); err != nil {
		return nil, fmt.Errorf("experiment: blue/green run %d: %w", spec.ID, err)
	}
	newAMI, err := l.cloud.RegisterImage(ctx, appName+"-v2", "v2", upgrade.AppServices)
	if err != nil {
		return nil, fmt.Errorf("experiment: blue/green run %d: %w", spec.ID, err)
	}

	taskID := fmt.Sprintf("bluegreen %s run-%d", cluster.ASGName, spec.ID)
	bgSpec := upgrade.BlueGreenSpec{
		TaskID:      taskID,
		BlueASGName: cluster.ASGName,
		ELBName:     cluster.ELBName,
		NewImageID:  newAMI,
		NewVersion:  "v2",
		KeyName:     cluster.KeyName,
		SGName:      cluster.SGName,
		Size:        spec.ClusterSize,
		WaitTimeout: replacementBudget(l.profile),
	}
	green := bgSpec.GreenCluster(appName, "v2")

	sess, err := l.mgr.Watch(core.Expectation{
		ASGName:      green.ASGName,
		ELBName:      green.ELBName,
		NewImageID:   newAMI,
		NewVersion:   "v2",
		NewLCName:    green.LCName,
		KeyName:      green.KeyName,
		SGName:       green.SGName,
		InstanceType: "m1.small",
		ClusterSize:  spec.ClusterSize,
	}, core.BindInstance(taskID), core.WithSessionID(fmt.Sprintf("bg-run-%d", spec.ID)))
	if err != nil {
		return nil, fmt.Errorf("experiment: blue/green run %d: %w", spec.ID, err)
	}

	// The injectors target the GREEN resources: the configuration flips
	// rewrite the green group's launch configuration, the deletions pull
	// the resources the green fleet launches from.
	injector := faultinject.NewInjector(l.cloud, green, spec.Seed^0xfa17)
	injectDone := make(chan struct{})
	go func() {
		defer close(injectDone)
		if spec.Fault != 0 {
			delay := spec.InjectDelay
			if delay <= 0 {
				delay = time.Duration(5+rng.Intn(40)) * time.Second
			}
			_ = injector.Inject(ctx, spec.Fault, delay, green.LCName, newAMI)
		}
	}()
	interfDone := make(chan struct{})
	go func() {
		defer close(interfDone)
		for _, i := range spec.Interferences {
			delay := time.Duration(20+rng.Intn(120)) * time.Second
			_ = injector.Interfere(ctx, i, delay)
		}
	}()

	up := upgrade.NewUpgrader(l.cloud, l.bus)
	rep := up.RunBlueGreen(ctx, bgSpec)
	<-injectDone
	<-interfDone

	_ = l.clk.Sleep(ctx, 30*time.Second)
	l.mgr.Drain(ctx, 10*time.Minute)

	res := &RunResult{Spec: spec, SimDuration: l.clk.Since(runStart)}
	if rep.Err != nil {
		res.UpgradeErr = rep.Err.Error()
	}
	classify(res, sess.Detections())
	verifyEvidenceChains(res, sess.Timeline())

	l.mgr.Remove(sess.ID())
	injector.Heal()
	_ = l.cloud.DeleteAutoScalingGroup(ctx, green.ASGName)
	_ = l.cloud.DeleteAutoScalingGroup(ctx, cluster.ASGName)
	l.awaitTeardown(ctx)
	return res, nil
}

// RunSpotStormOne executes one spot-interruption evaluation run on a
// fresh lane: deploy a cluster, start a spot-rebalance watch with POD
// watching the group, reclaim spec.StormCount instances through the
// plain termination API (the "operator" audit principal), and require
// the drop to be diagnosed as unexpected-termination. The lane enables
// the cloud's audit trail — without it the no-external-termination test
// is inconclusive, exactly the paper's §V.B limitation.
func RunSpotStormOne(ctx context.Context, spec RunSpec, cfg Config) (*RunResult, error) {
	if len(spec.ExpectedCauses) == 0 {
		spec.ExpectedCauses = []string{"unexpected-termination"}
	}
	l, err := newLane(cfg, spec.Seed, scenarioManager(process.SpotRebalanceModel(), process.SpotRebalanceSpecText))
	if err != nil {
		return nil, fmt.Errorf("experiment: spot run %d: %w", spec.ID, err)
	}
	defer l.close()
	return l.runSpotStorm(ctx, spec, "spot")
}

// StormCount is carried in RunSpec metadata-free form: the storm size is
// derived from the cluster so campaigns stay a single spec type.
func stormSize(spec RunSpec) int {
	if spec.ClusterSize <= 2 {
		return 1
	}
	return spec.ClusterSize / 2
}

func (l *lane) runSpotStorm(ctx context.Context, spec RunSpec, appName string) (*RunResult, error) {
	runStart := l.clk.Now()

	// An idealized instant CloudTrail; the audit-staleness ablations live
	// in the assertion-library tests.
	l.cloud.EnableAuditTrail(0)

	cluster, err := upgrade.Deploy(ctx, l.cloud, appName, spec.ClusterSize, "v1")
	if err != nil {
		return nil, fmt.Errorf("experiment: spot run %d: %w", spec.ID, err)
	}
	if err := cluster.WaitReady(ctx, l.cloud, 10*time.Minute); err != nil {
		return nil, fmt.Errorf("experiment: spot run %d: %w", spec.ID, err)
	}

	taskID := fmt.Sprintf("spotwatch %s run-%d", cluster.ASGName, spec.ID)
	sess, err := l.mgr.Watch(core.Expectation{
		ASGName:      cluster.ASGName,
		ELBName:      cluster.ELBName,
		NewImageID:   cluster.ImageID,
		NewVersion:   cluster.Version,
		NewLCName:    cluster.LCName,
		KeyName:      cluster.KeyName,
		SGName:       cluster.SGName,
		InstanceType: "m1.small",
		ClusterSize:  spec.ClusterSize,
	}, core.BindInstance(taskID), core.WithSessionID(fmt.Sprintf("spot-run-%d", spec.ID)))
	if err != nil {
		return nil, fmt.Errorf("experiment: spot run %d: %w", spec.ID, err)
	}

	injector := faultinject.NewInjector(l.cloud, cluster, spec.Seed^0xfa17)
	stormDone := make(chan struct{})
	go func() {
		defer close(stormDone)
		delay := spec.InjectDelay
		if delay <= 0 {
			delay = 20 * time.Second
		}
		_ = injector.Storm(ctx, stormSize(spec), delay, 15*time.Second)
	}()

	// The rebalance watch window must outlast the worst-case replacement
	// of the storm's reclaimed instances; see replacementBudget.
	window := 4 * time.Minute
	if b := replacementBudget(l.profile); b > window {
		window = b
	}
	up := upgrade.NewUpgrader(l.cloud, l.bus)
	rep := up.RunSpotRebalance(ctx, upgrade.SpotRebalanceSpec{
		TaskID:  taskID,
		ASGName: cluster.ASGName,
		ELBName: cluster.ELBName,
		Size:    spec.ClusterSize,
		Window:  window,
	})
	<-stormDone

	_ = l.clk.Sleep(ctx, 30*time.Second)
	l.mgr.Drain(ctx, 10*time.Minute)

	res := &RunResult{Spec: spec, SimDuration: l.clk.Since(runStart)}
	if rep.Err != nil {
		res.UpgradeErr = rep.Err.Error()
	}
	classify(res, sess.Detections())
	verifyEvidenceChains(res, sess.Timeline())

	l.mgr.Remove(sess.ID())
	injector.Heal()
	_ = l.cloud.DeleteAutoScalingGroup(ctx, cluster.ASGName)
	l.awaitTeardown(ctx)
	return res, nil
}

// awaitTeardown waits until every instance of the lane's cloud is dead,
// freeing the account-wide instance limit for the next run.
func (l *lane) awaitTeardown(ctx context.Context) {
	deadline := l.clk.Now().Add(teardownBudget(l.profile))
	for l.clk.Now().Before(deadline) {
		insts, err := l.cloud.DescribeInstances(ctx)
		if err != nil {
			return
		}
		live := 0
		for i := range insts {
			if insts[i].Live() {
				live++
			}
		}
		if live == 0 {
			return
		}
		if l.clk.Sleep(ctx, 5*time.Second) != nil {
			return
		}
	}
}
