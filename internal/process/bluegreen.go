package process

import (
	"sync"
	"time"
)

// Canonical node and step ids of the blue/green deploy process model.
// Blue/green is the third sporadic operation in the library: instead of
// replacing instances in place (rolling upgrade), a complete green fleet
// is launched next to the blue one, traffic is shifted at the load
// balancer, and the blue group is retired. Its diagnosis knowledge lives
// in the declarative plan documents plan-bluegreen, plan-bluegreen-lc and
// plan-bluegreen-elb, which reference the bgstepN ids below.
const (
	BlueGreenModelID = "blue-green"

	NodeBGStart       = "bg-start-task"   // bgstep1: Start blue/green deploy
	NodeBGCreateLC    = "bg-create-lc"    // bgstep2: Create green launch configuration
	NodeBGCreateGroup = "bg-create-group" // bgstep3: Create green group, launch fleet
	NodeBGJoined      = "bg-green-joined" // bgstep4: Green instance in service
	NodeBGCutover     = "bg-cutover"      // bgstep5: Shift load balancer to green
	NodeBGRetire      = "bg-retire-blue"  // bgstep6: Retire the blue group
	NodeBGComplete    = "bg-completed"    // bgstep7: Deploy completed
	NodeBGStatus      = "bg-status-info"  // recurring status line

	StepBGStart       = "bgstep1"
	StepBGCreateLC    = "bgstep2"
	StepBGCreateGroup = "bgstep3"
	StepBGJoined      = "bgstep4"
	StepBGCutover     = "bgstep5"
	StepBGRetire      = "bgstep6"
	StepBGComplete    = "bgstep7"
)

// BlueGreenModel returns the process model of a blue/green deploy: create
// the green launch configuration and group, wait for every green instance
// to come in service (the whole fleet boots in parallel, so the joins
// loop), shift the load balancer to the green set, retire the blue group,
// and complete.
//
// The model is built and compiled once per process and shared: a built
// Model is immutable, and its callers must leave its nodes as they are.
func BlueGreenModel() *Model { return blueGreenModel() }

var blueGreenModel = sync.OnceValue(buildBlueGreenModel)

func buildBlueGreenModel() *Model {
	b := NewBuilder(BlueGreenModelID, "Blue/Green Deploy")
	b.Start("start")
	b.End("end")
	b.Gateway("g-bg-entry")
	b.Gateway("g-bg-exit")

	b.Activity(NodeBGStart,
		WithName("Start blue/green deploy"),
		WithStep(StepBGStart),
		WithPatterns(`Starting blue/green deploy of group \S+ to version \S+`),
		WithMeanDuration(2*time.Second),
	)
	b.Activity(NodeBGCreateLC,
		WithName("Create green launch configuration"),
		WithStep(StepBGCreateLC),
		WithPatterns(`Created green launch configuration \S+`),
		WithMeanDuration(5*time.Second),
	)
	// The mean covers the green fleet's parallel boot up to the first
	// join, so the bgstep3 timer deadline has the paper's 95th-percentile
	// semantics for "green group created but nothing ever came up".
	b.Activity(NodeBGCreateGroup,
		WithName("Create green group and launch the fleet"),
		WithStep(StepBGCreateGroup),
		WithPatterns(`Created green group \S+ behind \S+`),
		WithMeanDuration(110*time.Second),
	)
	b.Activity(NodeBGJoined,
		WithName("Green instance in service"),
		WithStep(StepBGJoined),
		WithPatterns(`Instance \S+ joined green group \S+\. \d+ of \d+ instances in service\.`),
		WithMeanDuration(40*time.Second),
	)
	b.Activity(NodeBGCutover,
		WithName("Shift load balancer to green"),
		WithStep(StepBGCutover),
		WithPatterns(`Shifted load balancer \S+ to green group \S+\. \d+ of \d+ instances registered\.`),
		WithMeanDuration(20*time.Second),
	)
	b.Activity(NodeBGRetire,
		WithName("Retire the blue group"),
		WithStep(StepBGRetire),
		WithPatterns(`Retired blue group \S+`),
		WithMeanDuration(15*time.Second),
	)
	b.Activity(NodeBGComplete,
		WithName("Blue/green deploy completed"),
		WithStep(StepBGComplete),
		WithPatterns(`Blue/green deploy of group \S+ completed`),
		WithFinal(),
	)
	b.Activity(NodeBGStatus,
		WithName("Status info"),
		WithPatterns(`Blue/green status: \d+ of \d+ green instances in service`),
		WithRecurring(),
	)

	b.Chain("start", NodeBGStart, NodeBGCreateLC, NodeBGCreateGroup, "g-bg-entry", NodeBGJoined, "g-bg-exit")
	b.Flow("g-bg-exit", "g-bg-entry")
	b.Flow("g-bg-exit", NodeBGCutover)
	b.Chain(NodeBGCutover, NodeBGRetire, NodeBGComplete, "end")

	b.Errors(
		`(?i)\berror\b`,
		`(?i)\bexception\b`,
		`(?i)\bfail(ed|ure)\b`,
		`(?i)\btimed? ?out\b`,
	)

	m, err := b.Build()
	if err != nil {
		panic("process: canonical blue/green model invalid: " + err.Error())
	}
	return m
}

// BlueGreenSpecText is the assertion specification for the blue/green
// deploy: the green launch configuration must exist after bgstep2, the
// green group must hold {progress} new-version instances after each join,
// the shared load balancer must serve exactly the green set after the
// cutover, and the completed deploy must pass the four low-level
// configuration checks. Timers cover the silent-stall windows of the
// green fleet launch.
const BlueGreenSpecText = `
on bgstep2 assert lc-exists
on bgstep4 assert asg-version-count want={progress}
on bgstep5 assert elb-instance-count want={n}
on bgstep6 assert asg-version-count want={n}
on bgstep7 assert asg-version-count want={n}
on bgstep7 assert asg-instance-count want={n}
every 60s assert elb-reachable
after bgstep3 timeout assert asg-version-count want={next}
after bgstep4 timeout assert asg-version-count want={next}
`
