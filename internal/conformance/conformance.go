// Package conformance implements online conformance checking of log events
// against a process model, following the token-replay technique the paper
// adapts from Petri nets to BPMN semantics (§III.B.2).
//
// For each process instance the checker maintains a marking (token
// positions). Each incoming log line is classified against the model's
// activity patterns and replayed:
//
//   - fit: the activity was activated in the current marking,
//   - unfit: a known activity executed out of turn (skipped or undone
//     work),
//   - error: the line matches a known-error pattern,
//   - unclassified: a completely unknown line (treated as a detected
//     error, like the paper).
//
// Unfit, error and unclassified results carry an ErrorContext — the last
// valid state, the last successfully executed activity, and the
// hypothesized skipped or undone activities — which the diagnosis engine
// uses to prune fault trees.
package conformance

import (
	"sync"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/obs"
	"poddiagnosis/internal/process"
)

// Conformance metrics. Check latency is wall-clock: token replay is pure
// compute, and this histogram is the baseline for optimizing it.
var (
	mChecks = obs.Default.CounterVec("pod_conformance_checks_total",
		"Log lines replayed against the process model, by verdict.", "verdict")
	// Resolved once: CounterVec.With costs a lock and a variadic
	// allocation per call, which the per-line path cannot afford.
	mChecksFit          = mChecks.With(string(VerdictFit))
	mChecksUnfit        = mChecks.With(string(VerdictUnfit))
	mChecksError        = mChecks.With(string(VerdictError))
	mChecksUnclassified = mChecks.With(string(VerdictUnclassified))
	mNonConforming      = obs.Default.Counter("pod_conformance_nonconforming_total",
		"Replayed lines with an anomalous verdict (unfit, error, unclassified).")
	mCheckLatency = obs.Default.Histogram("pod_conformance_check_seconds",
		"Wall-clock token-replay latency per log line.", nil)
	mResyncs = obs.Default.Counter("pod_conformance_resyncs_total",
		"Degraded-mode resynchronizations: forward deviations absorbed by fast-forwarding the marking after a detected log gap.")
)

// Verdict classifies one replayed log line.
type Verdict string

// Verdicts, matching the paper's conformance tags.
const (
	VerdictFit          Verdict = "fit"
	VerdictUnfit        Verdict = "unfit"
	VerdictError        Verdict = "error"
	VerdictUnclassified Verdict = "unclassified"
)

// Tag returns the log annotation for the verdict, e.g. "conformance:fit".
func (v Verdict) Tag() string { return "conformance:" + string(v) }

// IsAnomalous reports whether the verdict indicates a detected error.
func (v Verdict) IsAnomalous() bool { return v != VerdictFit }

// Direction describes how an unfit activity deviates from the model.
type Direction string

// Deviation directions.
const (
	// DirectionForward means activities were skipped (the process jumped
	// ahead).
	DirectionForward Direction = "forward"
	// DirectionBackward means completed activities were undone (the
	// process moved backwards).
	DirectionBackward Direction = "backward"
	// DirectionNone applies to error/unclassified lines.
	DirectionNone Direction = "none"
)

// ErrorContext captures where a non-conforming event left the process.
type ErrorContext struct {
	// LastValidActivity is the id of the last activity that replayed fit.
	LastValidActivity string `json:"lastValidActivity"`
	// LastValidStep is its step id.
	LastValidStep string `json:"lastValidStep"`
	// Marking is the token position (node ids) before the offending
	// event.
	Marking []string `json:"marking"`
	// Skipped lists hypothesized skipped activities (forward deviation)
	// or undone activities (backward deviation).
	Skipped []string `json:"skipped,omitempty"`
	// Direction is the deviation direction for unfit events.
	Direction Direction `json:"direction"`
}

// Result is the outcome of replaying one log line.
type Result struct {
	// Verdict is the conformance classification.
	Verdict Verdict `json:"verdict"`
	// ActivityID is the matched activity ("" for error/unclassified).
	ActivityID string `json:"activityId,omitempty"`
	// ActivityName is its display name.
	ActivityName string `json:"activityName,omitempty"`
	// StepID is the matched activity's process-context step.
	StepID string `json:"stepId,omitempty"`
	// InstanceID is the process instance the line belongs to.
	InstanceID string `json:"instanceId"`
	// Completed reports whether the instance has reached an end state.
	Completed bool `json:"completed"`
	// Resynced reports that the line replayed fit only because the replay
	// fast-forwarded over activities presumed lost in the log stream
	// (degraded-mode resynchronization; see CheckLossy).
	Resynced bool `json:"resynced,omitempty"`
	// Context is set for anomalous verdicts.
	Context *ErrorContext `json:"context,omitempty"`
}

// Summary renders the result as a one-line human-readable verdict for
// evidence timelines, e.g. "unfit at createlc (create launch config)".
func (r Result) Summary() string {
	s := string(r.Verdict)
	if r.StepID != "" {
		s += " at " + r.StepID
	}
	if r.ActivityName != "" {
		s += " (" + r.ActivityName + ")"
	}
	if r.Resynced {
		s += " [resynced]"
	}
	return s
}

// Checker replays log lines for any number of process instances of one
// model. It is safe for concurrent use.
type Checker struct {
	model *process.Model

	mu        sync.Mutex
	instances map[string]*instanceState
}

// instanceState is the replay state of one process instance: a pointer
// into the model's compiled net plus counters, all fixed-size.
type instanceState struct {
	m         *process.Marking
	lastValid *process.Node
	completed bool
	fired     []int // times fired, by process.Node.Index
	lastAt    time.Time
	events    int // lines replayed
	fit       int // lines that replayed fit
}

func (c *Checker) newInstance() *instanceState {
	return &instanceState{
		m:     c.model.Net().Initial(),
		fired: make([]int, c.model.Net().Activities()),
	}
}

// NewChecker returns a Checker for the given model.
func NewChecker(model *process.Model) *Checker {
	return &Checker{model: model, instances: make(map[string]*instanceState)}
}

// Model returns the model being checked against.
func (c *Checker) Model() *process.Model { return c.model }

// InstanceIDs returns the known process instance ids.
func (c *Checker) InstanceIDs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.instances))
	for id := range c.instances {
		out = append(out, id)
	}
	return out
}

// Completed reports whether the given instance has reached an end state.
func (c *Checker) Completed(instanceID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.instances[instanceID]
	return ok && st.completed
}

// Check replays one log line for the given process instance, creating the
// instance on first sight.
func (c *Checker) Check(instanceID, line string, at time.Time) Result {
	return c.CheckLossy(instanceID, line, at, false)
}

// CheckLossy is Check for streams known to be lossy: when resyncOK is
// true and the line would replay unfit with a forward deviation — exactly
// the signature of activities whose log lines were lost in shipping — the
// replay resynchronizes by fast-forwarding the marking over the skipped
// activities instead of flagging a spurious non-conformance. The result
// carries Resynced so callers can discount it. Backward deviations,
// error lines and unclassified lines keep their normal verdicts: event
// loss cannot explain them.
func (c *Checker) CheckLossy(instanceID, line string, at time.Time, resyncOK bool) Result {
	started := clock.Wall.Now()
	node, isError := c.model.Match(line)
	res := c.checkMatched(instanceID, node, isError, at, resyncOK)
	switch res.Verdict {
	case VerdictFit:
		mChecksFit.Inc()
	case VerdictUnfit:
		mChecksUnfit.Inc()
	case VerdictError:
		mChecksError.Inc()
	default:
		mChecksUnclassified.Inc()
	}
	if res.Verdict.IsAnomalous() {
		mNonConforming.Inc()
	}
	mCheckLatency.Observe(clock.Wall.Since(started).Seconds())
	return res
}

// checkMatched replays an already classified line. The fit path is a
// lookup in the model's compiled net and an in-place update of the
// instance; error contexts, fast-forwards and path hypotheses are built
// only for lines that do not fit.
func (c *Checker) checkMatched(instanceID string, node *process.Node, isError bool, at time.Time, resyncOK bool) Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.instances[instanceID]
	if !ok {
		st = c.newInstance()
		c.instances[instanceID] = st
	}
	st.lastAt = at
	st.events++

	res := Result{InstanceID: instanceID}
	// Known-error lines trump classification.
	if isError {
		res.Verdict = VerdictError
		res.Context = c.errorContext(st, nil)
		return res
	}
	if node == nil {
		res.Verdict = VerdictUnclassified
		res.Context = c.errorContext(st, nil)
		return res
	}
	res.ActivityID = node.ID
	res.ActivityName = node.Name
	res.StepID = node.StepID

	switch {
	case node.Recurring:
		// Periodic activities replay as fit while the instance is live.
	case node.MultiLine && st.m.InProgress(node):
		// Another log line of the activity the token already occupies:
		// the step is in progress (steps may log start, progress and
		// end lines), so the event fits without moving the token.
		st.lastValid = node
	default:
		next, fired := st.m.Fire(node)
		if !fired && resyncOK {
			var skipped []string
			if next, skipped, fired = c.fastForward(st, node); fired {
				for _, id := range skipped {
					st.fired[c.model.Node(id).Index()]++
				}
				res.Resynced = true
				mResyncs.Inc()
			}
		}
		if !fired {
			res.Verdict = VerdictUnfit
			res.Context = c.errorContext(st, node)
			return res
		}
		st.m = next
		st.lastValid = node
		st.fired[node.Index()]++
		st.completed = next.CanComplete()
	}
	st.fit++
	res.Verdict = VerdictFit
	res.Completed = st.completed
	return res
}

// fastForward attempts to replay the activities on a path from the
// current marking to the unfit node — the ones whose log lines were
// presumably lost — and then the node itself. It returns the advanced
// marking and the skipped activity ids, or ok=false when no forward path
// explains the deviation (leaving the unfit verdict to stand).
func (c *Checker) fastForward(st *instanceState, node *process.Node) (*process.Marking, []string, bool) {
	for _, anchor := range st.m.Anchors() {
		skipped, ok := c.model.PathActivities(anchor, node.ID)
		if !ok {
			continue
		}
		m, fired := st.m, true
		for _, id := range skipped {
			if m, fired = m.Fire(c.model.Node(id)); !fired {
				break
			}
		}
		if fired {
			if m, fired = m.Fire(node); fired {
				return m, skipped, true
			}
		}
	}
	return nil, nil, false
}

// errorContext snapshots the instance state and, when an unfit activity is
// given, hypothesizes the skipped or undone activities.
func (c *Checker) errorContext(st *instanceState, unfit *process.Node) *ErrorContext {
	ctx := &ErrorContext{Direction: DirectionNone}
	if st.lastValid != nil {
		ctx.LastValidActivity = st.lastValid.ID
		ctx.LastValidStep = st.lastValid.StepID
	}
	ctx.Marking = st.m.Places()
	if unfit == nil {
		return ctx
	}
	// The skipped/undone hypothesis works on the node graph: anchor the
	// search at the nodes the marked places touch.
	anchors := st.m.Anchors()
	// Forward deviation: activities on a path from the marking to the
	// unfit activity were skipped.
	for _, anchor := range anchors {
		if skipped, ok := c.model.PathActivities(anchor, unfit.ID); ok {
			ctx.Direction = DirectionForward
			ctx.Skipped = skipped
			return ctx
		}
	}
	// Backward deviation: the unfit activity precedes the marking; the
	// activities between it and the marking would have been undone.
	for _, anchor := range anchors {
		if undone, ok := c.model.PathActivities(unfit.ID, anchor); ok {
			ctx.Direction = DirectionBackward
			ctx.Skipped = undone
			return ctx
		}
	}
	return ctx
}

// Stats summarizes one instance's replay.
type Stats struct {
	// Events is the number of lines replayed.
	Events int `json:"events"`
	// Fit is the number of lines that replayed fit.
	Fit int `json:"fit"`
	// Completed reports whether the instance reached an end state.
	Completed bool `json:"completed"`
}

// Fitness is the fraction of events that replayed fit — the degree to
// which the log and the model fit (§III.B.2). It is 1 for an empty
// instance.
func (s Stats) Fitness() float64 {
	if s.Events == 0 {
		return 1
	}
	return float64(s.Fit) / float64(s.Events)
}

// StatsFor returns the replay statistics of the given instance.
func (c *Checker) StatsFor(instanceID string) Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.instances[instanceID]
	if !ok {
		return Stats{}
	}
	return Stats{Events: st.events, Fit: st.fit, Completed: st.completed}
}

// Reset forgets the given process instance.
func (c *Checker) Reset(instanceID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.instances, instanceID)
}
