package process

import (
	"sync"
	"time"
)

// Canonical node and step ids of the spot-rebalance process model. The
// operation watches a group running on interruptible (spot) capacity:
// whenever the provider reclaims instances, the group must replace them
// and restore full capacity before the watch window closes. Its diagnosis
// knowledge is the declarative plan document plan-spot-rebalance, which
// references the ssstepN ids below.
const (
	SpotRebalanceModelID = "spot-rebalance"

	NodeSSStart       = "ss-start-task"  // ssstep1: Start the rebalance watch
	NodeSSInterrupted = "ss-interrupted" // ssstep2: Interruption noticed, waiting
	NodeSSJoined      = "ss-joined"      // ssstep3: Replacement in service
	NodeSSRestored    = "ss-restored"    // ssstep4: Capacity restored
	NodeSSComplete    = "ss-completed"   // ssstep5: Watch completed
	NodeSSStatus      = "ss-status-info" // recurring status line

	StepSSStart       = "ssstep1"
	StepSSInterrupted = "ssstep2"
	StepSSJoined      = "ssstep3"
	StepSSRestored    = "ssstep4"
	StepSSComplete    = "ssstep5"
)

// SpotRebalanceModel returns the process model of a spot-capacity
// rebalance watch: after the start, the interruption loop (notice missing
// capacity, wait for the replacement to join) repeats zero or more times
// — the bypass flow keeps an interruption-free watch conformant — then
// capacity is declared restored and the watch completes.
//
// The model is built and compiled once per process and shared: a built
// Model is immutable, and its callers must leave its nodes as they are.
func SpotRebalanceModel() *Model { return spotRebalanceModel() }

var spotRebalanceModel = sync.OnceValue(buildSpotRebalanceModel)

func buildSpotRebalanceModel() *Model {
	b := NewBuilder(SpotRebalanceModelID, "Spot Rebalance")
	b.Start("start")
	b.End("end")
	b.Gateway("g-ss-pre")
	b.Gateway("g-ss-entry")
	b.Gateway("g-ss-exit")
	b.Gateway("g-ss-post")

	b.Activity(NodeSSStart,
		WithName("Start spot rebalance watch"),
		WithStep(StepSSStart),
		WithPatterns(`Starting spot rebalance watch of group \S+ with \d+ instances`),
		WithMeanDuration(2*time.Second),
	)
	b.Activity(NodeSSInterrupted,
		WithName("Interruption noticed, waiting for replacement"),
		WithStep(StepSSInterrupted),
		WithPatterns(`Waiting for group \S+ to replace \d+ interrupted instances?`),
		WithMeanDuration(110*time.Second),
	)
	b.Activity(NodeSSJoined,
		WithName("Replacement instance in service"),
		WithStep(StepSSJoined),
		WithPatterns(`Replacement \S+ joined group \S+\. \d+ of \d+ instances in service\.`),
		WithMeanDuration(10*time.Second),
	)
	b.Activity(NodeSSRestored,
		WithName("Capacity restored"),
		WithStep(StepSSRestored),
		WithPatterns(`Capacity of group \S+ restored to \d+ instances`),
		WithMeanDuration(5*time.Second),
	)
	b.Activity(NodeSSComplete,
		WithName("Spot rebalance watch completed"),
		WithStep(StepSSComplete),
		WithPatterns(`Spot rebalance of group \S+ completed`),
		WithFinal(),
	)
	b.Activity(NodeSSStatus,
		WithName("Status info"),
		WithPatterns(`Spot rebalance status: \d+ of \d+ instances in service`),
		WithRecurring(),
	)

	b.Chain("start", NodeSSStart, "g-ss-pre")
	b.Flow("g-ss-pre", "g-ss-entry")
	b.Flow("g-ss-pre", "g-ss-post") // interruption-free watch
	b.Chain("g-ss-entry", NodeSSInterrupted, NodeSSJoined, "g-ss-exit")
	b.Flow("g-ss-exit", "g-ss-entry") // next interruption
	b.Flow("g-ss-exit", "g-ss-post")
	b.Chain("g-ss-post", NodeSSRestored, NodeSSComplete, "end")

	b.Errors(
		`(?i)\berror\b`,
		`(?i)\bexception\b`,
		`(?i)\bfail(ed|ure)\b`,
		`(?i)\btimed? ?out\b`,
	)

	m, err := b.Build()
	if err != nil {
		panic("process: canonical spot-rebalance model invalid: " + err.Error())
	}
	return m
}

// SpotRebalanceSpecText is the assertion specification for the
// spot-rebalance watch. The capacity assertion on ssstep2 is the
// detection workhorse: the moment the process notices missing capacity
// the group really is short, the assertion fails, and the diagnosis
// distinguishes WHY (operator termination, simultaneous scale-in,
// account limit) via plan-spot-rebalance. The window parameter widens
// the audit/activity lookback of the downstream diagnosis tests past
// the whole watch: an interruption early in the window must still be
// attributable when a late assertion walks the plan.
const SpotRebalanceSpecText = `
on ssstep2 assert asg-instance-count want={n} window=15m
on ssstep3 assert asg-instance-count want={progress} window=15m
on ssstep4 assert asg-instance-count want={n} window=15m
on ssstep5 assert asg-instance-count want={n} window=15m
on ssstep5 assert elb-instance-count want={n}
every 60s assert elb-reachable
after ssstep2 timeout assert asg-instance-count want={n} window=15m
`
