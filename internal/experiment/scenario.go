package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"poddiagnosis/internal/core"
	"poddiagnosis/internal/diagplan"
	"poddiagnosis/internal/process"
	"poddiagnosis/internal/remediate"
	"poddiagnosis/internal/upgrade"
)

// Scenario is one evaluation lane: the operation a run drives, the Manager
// that watches it, and the ground truth injected into it. The package
// exports one value per lane; the runner branches on the fields, never on
// which scenario it was handed.
type Scenario struct {
	// label names the run in errors; app names the cluster of a one-off run.
	label, app string
	// task and session are the formats of the process instance id (ASG
	// name, run id) and of the session id (run id).
	task, session string
	// manager adjusts the lane's ManagerConfig before each Manager is built.
	manager func(*core.ManagerConfig)
	// auditTrail enables the cloud's instant audit trail before deploying.
	auditTrail bool
	// expectedCauses stand in for RunSpec.ExpectedCauses when it is empty.
	expectedCauses []string
	// watched derives the group the session watches and the injector
	// strikes; drive runs (and, in the closed loop, re-runs) the operation.
	watched func(o *operation) *upgrade.Cluster
	drive   func(ctx context.Context, up *upgrade.Upgrader, o *operation) *upgrade.Report
	// storm replaces spec.Fault with a spot-interruption storm that always
	// fires. The injection waits delay plus a uniform draw of jitter whole
	// seconds after the operation starts (after the failover, in a
	// federated run), unless spec.InjectDelay pins it.
	storm  bool
	delay  time.Duration
	jitter int
	// closedLoop re-drives the operation on the remediation engine's retry
	// signal and requires convergence; the session then carries the
	// pre-upgrade launch configuration as the rollback target.
	closedLoop bool
	// members, when set, runs the lane as a federation of these members
	// behind one front, and crashes the operation's owner mid-run.
	members []string
}

var (
	// RollingUpgrade is the paper's §V run: a rolling upgrade to v2 with
	// spec.Fault and spec.Interferences injected at random points.
	RollingUpgrade = Scenario{
		label: "run", app: "pm", task: "pushing %s run-%d", session: "run-%d",
		watched: upgradedCluster, drive: rollingUpgrade,
		delay: 10 * time.Second, jitter: 80,
	}
	// Heal is the closed-loop run: the Manager runs the default action
	// catalog under the suggested auto policy (config/traffic/operation
	// repairs unattended, escalations held), and the run is Healed when
	// the task completes and the cluster converges onto the intended
	// launch configuration.
	Heal = Scenario{
		label: "heal run", app: "pm", task: "pushing %s heal-%d", session: "heal-%d",
		manager: closedLoopManager, watched: upgradedCluster, drive: rollingUpgrade,
		delay: time.Second, closedLoop: true,
	}
	// BlueGreen deploys a green fleet on v2 beside the blue one with POD
	// watching the green group; faults strike the green resources and are
	// classified against the same ground truth as a rolling upgrade.
	BlueGreen = Scenario{
		label: "blue/green run", app: "bg", task: "bluegreen %s run-%d", session: "bg-run-%d",
		manager: scenarioManager(process.BlueGreenModel, process.BlueGreenSpecText),
		watched: greenCluster, drive: blueGreen,
		delay: 5 * time.Second, jitter: 40,
	}
	// SpotStorm watches a spot-rebalance window while stormSize instances
	// are reclaimed through the plain termination API (the "operator"
	// audit principal); the drop must be diagnosed as
	// unexpected-termination. The audit trail is enabled — without it the
	// no-external-termination test is inconclusive, exactly the paper's
	// §V.B limitation.
	SpotStorm = Scenario{
		label: "spot run", app: "spot", task: "spotwatch %s run-%d", session: "spot-run-%d",
		manager:    scenarioManager(process.SpotRebalanceModel, process.SpotRebalanceSpecText),
		auditTrail: true, expectedCauses: []string{"unexpected-termination"},
		watched: deployedCluster, drive: spotRebalance,
		storm: true, delay: 20 * time.Second,
	}
	// MemberKill is the federation chaos run: three members watch a
	// closed-loop rolling upgrade, the owner is crashed after replicating
	// its session, and the fault strikes delay after the failover, so the
	// adopter must diagnose and heal it.
	MemberKill = Scenario{
		label: "member-kill run", app: "mk", task: "pushing %s mk-%d", session: "mk-%d",
		manager: closedLoopManager, watched: upgradedCluster, drive: rollingUpgrade,
		delay: 10 * time.Second, closedLoop: true,
		members: []string{"fed-a", "fed-b", "fed-c"},
	}
)

// closedLoopManager wires the default action catalog under the suggested
// auto policy. A closed-loop run outlives the default retention: the first
// (wrong) task completion ends the session, and the retry + convergence
// wait can run long past the sweep, which would retire the flight ring and
// drop the remediation audit before the run reads them. Sessions are
// removed explicitly at the end of the run.
func closedLoopManager(mc *core.ManagerConfig) {
	mc.Remediation = remediate.SuggestedPolicy(remediate.ModeAuto)
	mc.RemediationCatalog = remediate.DefaultCatalog()
	mc.Retention = 24 * time.Hour
}

// scenarioManager selects the scenario's model and spec and widens the
// plan catalog to the full one. Step-context pruning keeps the catalogs
// from bleeding into each other: the rolling-upgrade plans scope their
// collectors to step2..step8, the scenario plans to bgstepN/ssstepN.
func scenarioManager(model func() *process.Model, specText string) func(*core.ManagerConfig) {
	return func(mc *core.ManagerConfig) {
		mc.Model = model()
		mc.AssertionSpec = specText
		mc.Plans = diagplan.FullCatalog()
	}
}

// operation is one prepared run: the deployed cluster, the group the
// session watches, and the ids the session and the task carry.
type operation struct {
	id, task string
	newAMI   string
	budget   time.Duration
	deployed *upgrade.Cluster
	watched  *upgrade.Cluster
	expect   core.Expectation
	// sess is the session on a single-Manager lane; owner is the member
	// the front placed the operation on in a federation.
	sess  *core.Session
	owner string
}

// operation derives the run's ids, watched group and expectation from the
// deployed cluster and the registered v2 image.
func (sc Scenario) operation(deployed *upgrade.Cluster, newAMI string, spec RunSpec, budget time.Duration) *operation {
	o := &operation{
		id:     fmt.Sprintf(sc.session, spec.ID),
		task:   fmt.Sprintf(sc.task, deployed.ASGName, spec.ID),
		newAMI: newAMI, budget: budget, deployed: deployed,
	}
	w := sc.watched(o)
	o.watched = w
	o.expect = core.Expectation{
		ASGName:      w.ASGName,
		ELBName:      w.ELBName,
		NewImageID:   w.ImageID,
		NewVersion:   w.Version,
		NewLCName:    w.LCName,
		KeyName:      w.KeyName,
		SGName:       w.SGName,
		InstanceType: "m1.small",
		ClusterSize:  spec.ClusterSize,
	}
	if sc.closedLoop {
		o.expect.OldLCName = deployed.LCName
	}
	return o
}

// asgs lists the groups teardown deletes: the watched one, then the
// deployed one when the operation created a second group.
func (o *operation) asgs() []string {
	if o.watched.ASGName == o.deployed.ASGName {
		return []string{o.deployed.ASGName}
	}
	return []string{o.watched.ASGName, o.deployed.ASGName}
}

// upgradedCluster is the deployed group as the rolling upgrade leaves it.
func upgradedCluster(o *operation) *upgrade.Cluster {
	c := *o.deployed
	c.ImageID, c.Version = o.newAMI, "v2"
	c.LCName = fmt.Sprintf("%s-lc-%s", c.ASGName, o.newAMI)
	return &c
}

// greenCluster is the green group a blue/green deploy creates: the
// configuration flips rewrite its launch configuration, the deletions
// pull the resources it launches from.
func greenCluster(o *operation) *upgrade.Cluster {
	return o.blueGreenSpec().GreenCluster(o.deployed.AppName, "v2")
}

// deployedCluster watches the deployed group itself.
func deployedCluster(o *operation) *upgrade.Cluster { return o.deployed }

func rollingUpgrade(ctx context.Context, up *upgrade.Upgrader, o *operation) *upgrade.Report {
	s := o.deployed.UpgradeSpec(o.task, o.newAMI)
	s.NewLCName = o.watched.LCName
	s.WaitTimeout = o.budget
	s.PollInterval = 5 * time.Second
	return up.Run(ctx, s)
}

func (o *operation) blueGreenSpec() upgrade.BlueGreenSpec {
	return upgrade.BlueGreenSpec{
		TaskID:      o.task,
		BlueASGName: o.deployed.ASGName,
		ELBName:     o.deployed.ELBName,
		NewImageID:  o.newAMI,
		NewVersion:  "v2",
		KeyName:     o.deployed.KeyName,
		SGName:      o.deployed.SGName,
		Size:        o.deployed.Size,
		WaitTimeout: o.budget,
	}
}

func blueGreen(ctx context.Context, up *upgrade.Upgrader, o *operation) *upgrade.Report {
	return up.RunBlueGreen(ctx, o.blueGreenSpec())
}

// spotRebalance watches the group for a window that outlasts the
// worst-case replacement of the storm's reclaimed instances; see
// replacementBudget.
func spotRebalance(ctx context.Context, up *upgrade.Upgrader, o *operation) *upgrade.Report {
	window := 4 * time.Minute
	if o.budget > window {
		window = o.budget
	}
	return up.RunSpotRebalance(ctx, upgrade.SpotRebalanceSpec{
		TaskID:  o.task,
		ASGName: o.deployed.ASGName,
		ELBName: o.deployed.ELBName,
		Size:    o.deployed.Size,
		Window:  window,
	})
}

// stormSize derives the number of instances a spot storm reclaims from
// the cluster size, so campaigns stay a single spec type.
func stormSize(spec RunSpec) int {
	if spec.ClusterSize <= 2 {
		return 1
	}
	return spec.ClusterSize / 2
}

// delays draws the injection delay (zero when nothing is injected) and
// one delay per interference, in that order, from the run's seed: a pure
// function of the scenario and the spec.
func (sc Scenario) delays(spec RunSpec) (inject time.Duration, interfere []time.Duration) {
	rng := rand.New(rand.NewSource(spec.Seed ^ 0x5eed))
	if sc.storm || spec.Fault != 0 {
		inject = spec.InjectDelay
		if inject <= 0 {
			inject = sc.delay
			if sc.jitter > 0 {
				inject += time.Duration(rng.Intn(sc.jitter)) * time.Second
			}
		}
	}
	for range spec.Interferences {
		interfere = append(interfere, time.Duration(20+rng.Intn(120))*time.Second)
	}
	return inject, interfere
}
