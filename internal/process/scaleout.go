package process

import (
	"sync"
	"time"
)

// Canonical node and step ids of the scale-out process model. Scale-out is
// the second sporadic operation shipped with the library, demonstrating
// the paper's generality claim (§III.C: "the approach is generalizable to
// other operations"): a new process model, an assertion specification, and
// the existing fault trees are all it takes to put a different operation
// under POD-Diagnosis.
const (
	ScaleOutModelID = "scale-out"

	NodeSOStart    = "so-start-task"  // sostep1: Start scale-out task
	NodeSORequest  = "so-request"     // sostep2: Request new desired capacity
	NodeSOWait     = "so-wait"        // sostep3: Wait for instances to join
	NodeSOJoined   = "so-joined"      // sostep4: Instance joined and in service
	NodeSOComplete = "so-completed"   // sostep5: Scale-out completed
	NodeSOStatus   = "so-status-info" // recurring status line

	StepSOStart    = "sostep1"
	StepSORequest  = "sostep2"
	StepSOWait     = "sostep3"
	StepSOJoined   = "sostep4"
	StepSOComplete = "sostep5"
)

// ScaleOutModel returns the process model of an ASG scale-out: request the
// new capacity, then loop waiting for each new instance to come in service
// and register, and complete.
//
// The model is built and compiled once per process and shared: a built
// Model is immutable, and its callers must leave its nodes as they are.
func ScaleOutModel() *Model { return scaleOutModel() }

var scaleOutModel = sync.OnceValue(buildScaleOutModel)

func buildScaleOutModel() *Model {
	b := NewBuilder(ScaleOutModelID, "Scale-Out (ASG)")
	b.Start("start")
	b.End("end")
	b.Gateway("g-so-entry")
	b.Gateway("g-so-exit")

	b.Activity(NodeSOStart,
		WithName("Start scale-out task"),
		WithStep(StepSOStart),
		WithPatterns(`Starting scale-out of group \S+ from \d+ to \d+ instances`),
		WithMeanDuration(2*time.Second),
	)
	b.Activity(NodeSORequest,
		WithName("Request new desired capacity"),
		WithStep(StepSORequest),
		WithPatterns(`Requested desired capacity \d+ for group \S+`),
		WithMeanDuration(3*time.Second),
	)
	b.Activity(NodeSOWait,
		WithName("Wait for a new instance to join"),
		WithStep(StepSOWait),
		WithPatterns(`Waiting for group \S+ to reach \d+ in-service instances`),
		WithMeanDuration(100*time.Second),
	)
	b.Activity(NodeSOJoined,
		WithName("New instance in service and registered"),
		WithStep(StepSOJoined),
		WithPatterns(`Instance \S+ joined group \S+\. \d+ of \d+ instances in service\.`),
		WithMeanDuration(10*time.Second),
	)
	b.Activity(NodeSOComplete,
		WithName("Scale-out completed"),
		WithStep(StepSOComplete),
		WithPatterns(`Scale-out of group \S+ completed`),
		WithFinal(),
	)
	b.Activity(NodeSOStatus,
		WithName("Status info"),
		WithPatterns(`Scale-out status: \d+ of \d+ instances in service`),
		WithRecurring(),
	)

	b.Chain("start", NodeSOStart, NodeSORequest, "g-so-entry", NodeSOWait, NodeSOJoined, "g-so-exit")
	b.Flow("g-so-exit", "g-so-entry")
	b.Flow("g-so-exit", NodeSOComplete)
	b.Flow(NodeSOComplete, "end")

	b.Errors(
		`(?i)\berror\b`,
		`(?i)\bexception\b`,
		`(?i)\bfail(ed|ure)\b`,
		`(?i)\btimed? ?out\b`,
	)

	m, err := b.Build()
	if err != nil {
		panic("process: canonical scale-out model invalid: " + err.Error())
	}
	return m
}

// ScaleOutSpecText is the assertion specification for the scale-out
// operation: capacity checks after the request and on completion, a
// periodic reachability check, and a stall timer on the waiting step.
const ScaleOutSpecText = `
on sostep4 assert asg-instance-count want={progress}
on sostep5 assert asg-instance-count want={n}
on sostep5 assert elb-instance-count want={n}
every 60s assert elb-reachable
after sostep3 timeout assert asg-instance-count want={next}
`
