package process

import (
	"sync"
	"time"
)

// Canonical node ids and step ids of the rolling-upgrade process model
// (paper Figure 2). The upgrade orchestrator emits log lines matching the
// patterns below; assertion triggers and fault trees key off the step ids.
const (
	RollingUpgradeModelID = "rolling-upgrade"

	NodeStartTask    = "start-task"     // step1: Start rolling upgrade task
	NodeUpdateLC     = "update-lc"      // step2: Update launch configuration
	NodeSortInst     = "sort-instances" // step3: Sort instances
	NodeDeregister   = "deregister-old" // step4: Remove and deregister old instance from ELB
	NodeTerminateOld = "terminate-old"  // step5: Terminate old instance
	NodeWaitASG      = "wait-asg"       // step6: Wait for ASG to start new instance
	NodeNewReady     = "new-ready"      // step7: New instance ready and registered with ELB
	NodeCompleted    = "task-completed" // step8: Rolling upgrade task completed
	NodeStatusInfo   = "status-info"    // recurring: Status info

	StepStartTask    = "step1"
	StepUpdateLC     = "step2"
	StepSortInst     = "step3"
	StepDeregister   = "step4"
	StepTerminateOld = "step5"
	StepWaitASG      = "step6"
	StepNewReady     = "step7"
	StepCompleted    = "step8"
)

// RollingUpgradeModel returns the process model of Figure 2: a linear
// prefix (start task, update launch configuration, sort instances), a
// replacement loop (deregister, terminate, wait for ASG, new instance
// ready) executed once per old instance, and a completion activity. The
// recurring "Status info" activity may appear at any point. Mean durations
// reflect the historical timing profile used to set timer timeouts.
//
// The model is built and compiled once per process and shared: a built
// Model is immutable, and its callers must leave its nodes as they are.
func RollingUpgradeModel() *Model { return rollingUpgradeModel() }

var rollingUpgradeModel = sync.OnceValue(buildRollingUpgradeModel)

func buildRollingUpgradeModel() *Model {
	b := NewBuilder(RollingUpgradeModelID, "Rolling Upgrade (Asgard)")
	start := b.Start("start")
	end := b.End("end")
	loopEntry := b.Gateway("g-loop-entry")
	loopExit := b.Gateway("g-loop-exit")

	b.Activity(NodeStartTask,
		WithName("Start rolling upgrade task"),
		WithStep(StepStartTask),
		WithPatterns(`Starting rolling upgrade of group \S+ to image \S+`),
		WithMeanDuration(2*time.Second),
	)
	b.Activity(NodeUpdateLC,
		WithName("Update launch configuration"),
		WithStep(StepUpdateLC),
		WithPatterns(
			`Created launch configuration \S+ with image \S+`,
			`Updated group \S+ to launch configuration \S+`,
		),
		WithMultiLine(),
		WithMeanDuration(4*time.Second),
	)
	b.Activity(NodeSortInst,
		WithName("Sort instances"),
		WithStep(StepSortInst),
		WithPatterns(`Sorted \d+ instances for replacement`),
		WithMeanDuration(2*time.Second),
	)
	b.Activity(NodeDeregister,
		WithName("Remove and deregister old instance from ELB"),
		WithStep(StepDeregister),
		WithPatterns(`Removed and deregistered instance \S+ from ELB \S+`),
		WithMeanDuration(5*time.Second),
	)
	b.Activity(NodeTerminateOld,
		WithName("Terminate old instance"),
		WithStep(StepTerminateOld),
		WithPatterns(`Terminating old instance \S+`),
		WithMeanDuration(25*time.Second),
	)
	b.Activity(NodeWaitASG,
		WithName("Wait for ASG to start new instance"),
		WithStep(StepWaitASG),
		WithPatterns(`Waiting for group \S+ to start a new instance`),
		WithMeanDuration(100*time.Second),
	)
	b.Activity(NodeNewReady,
		WithName("New instance ready and registered with ELB"),
		WithStep(StepNewReady),
		WithPatterns(`Instance \S+ on \S+ is ready for use\. \d+ of \d+ instance relaunches done\.`),
		WithMeanDuration(10*time.Second),
	)
	b.Activity(NodeCompleted,
		WithName("Rolling upgrade task completed"),
		WithStep(StepCompleted),
		WithPatterns(`Rolling upgrade task completed`),
		WithFinal(),
	)
	b.Activity(NodeStatusInfo,
		WithName("Status info"),
		WithPatterns(`Status: \d+ of \d+ instances replaced`),
		WithRecurring(),
	)

	b.Chain("start", NodeStartTask, NodeUpdateLC, NodeSortInst, "g-loop-entry", NodeDeregister,
		NodeTerminateOld, NodeWaitASG, NodeNewReady, "g-loop-exit")
	b.Flow(loopExit, loopEntry) // next old instance
	b.Flow(loopExit, NodeCompleted)
	b.Flow(NodeCompleted, end)
	_ = start
	_ = end
	_ = loopEntry

	b.Errors(
		`(?i)\berror\b`,
		`(?i)\bexception\b`,
		`(?i)\bfail(ed|ure)\b`,
		`(?i)\btimed? ?out\b`,
	)

	m, err := b.Build()
	if err != nil {
		// The canonical model is static; failure to build is a programming
		// error caught by the test suite.
		panic("process: canonical rolling upgrade model invalid: " + err.Error())
	}
	return m
}
