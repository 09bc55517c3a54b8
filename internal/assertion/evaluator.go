package assertion

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/consistentapi"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/obs"
)

// Assertion metrics. The latency histogram is wall-clock so it reflects
// the real cost paid on the evaluation path (the Result's Duration field
// carries the simulated-clock duration).
var (
	mEvaluations = obs.Default.CounterVec("pod_assertion_evaluations_total",
		"Assertion evaluations by check id and outcome status.", "check", "status")
	mEvalLatency = obs.Default.Histogram("pod_assertion_eval_seconds",
		"Wall-clock assertion evaluation latency.", nil)
)

// TriggerSource identifies what initiated an assertion evaluation.
type TriggerSource string

// Trigger sources (§III.B.3, Figure 4).
const (
	TriggerLog      TriggerSource = "log"       // local log processor
	TriggerTimer    TriggerSource = "timer"     // one-off or periodic timer
	TriggerOnDemand TriggerSource = "on-demand" // diagnosis tests and operators
)

// Trigger carries the process context of an evaluation request.
type Trigger struct {
	// Source is what initiated the evaluation.
	Source TriggerSource `json:"source"`
	// ProcessInstanceID is the operation task the evaluation belongs to
	// (may be empty for purely timer-based evaluations — a known source
	// of weaker diagnoses, §VI.A).
	ProcessInstanceID string `json:"processInstanceId,omitempty"`
	// StepID is the process step the evaluation is attached to.
	StepID string `json:"stepId,omitempty"`
}

// historyCap bounds the results an Evaluator retains: one Evaluator serves
// a Manager for its whole life, and every Result pins its parameter map.
const historyCap = 1024

// Evaluator runs checks from a registry through the consistent API layer,
// publishing each result as an assertion log event and retaining the most
// recent historyCap of them. It is safe for concurrent use — parallel
// fault-tree walks evaluate diagnosis tests on it simultaneously: the
// registry locks internally, history is guarded by mu, and the client and
// bus are concurrency-safe.
type Evaluator struct {
	client   *consistentapi.Client
	registry *Registry
	bus      *logging.Bus // may be nil
	host     string

	mu      sync.Mutex
	history []Result // ring once full: the oldest result is at count % historyCap
	count   int      // evaluations ever recorded

	tagMu    sync.RWMutex
	stepTags map[string][]string // step id -> the shared tags of its lines
}

// NewEvaluator returns an Evaluator. The bus may be nil.
func NewEvaluator(client *consistentapi.Client, registry *Registry, bus *logging.Bus) *Evaluator {
	return &Evaluator{client: client, registry: registry, bus: bus, host: "pod-assertion",
		stepTags: make(map[string][]string)}
}

// Registry returns the evaluator's check registry.
func (e *Evaluator) Registry() *Registry { return e.registry }

// Client returns the consistent API client used for evaluations.
func (e *Evaluator) Client() *consistentapi.Client { return e.client }

// Evaluate runs the check with the given id and parameters, stamping,
// logging and recording the result. Unknown check ids yield StatusError.
func (e *Evaluator) Evaluate(ctx context.Context, checkID string, p Params, trig Trigger) Result {
	wallStart := clock.Wall.Now()
	ctx, span := obs.StartSpan(ctx, "assertion.evaluate")
	span.SetAttr("check", checkID)
	span.SetAttr("trigger", string(trig.Source))
	clk := e.client.Clock()
	started := clk.Now()
	var res Result
	check, ok := e.registry.Lookup(checkID)
	if !ok {
		res = Result{
			CheckID: checkID, Status: StatusError, Params: p,
			Message: "unknown check", Err: fmt.Sprintf("assertion: unknown check id %q", checkID),
		}
	} else {
		res = check.Eval(ctx, e.client, p)
	}
	res.EvaluatedAt = started
	res.Duration = clk.Since(started)
	mEvaluations.With(res.CheckID, res.Status.String()).Inc()
	mEvalLatency.Observe(clock.Wall.Since(wallStart).Seconds())
	span.SetAttr("status", res.Status.String())
	span.SetDuration("simDuration", res.Duration)
	span.End()

	e.mu.Lock()
	if len(e.history) < historyCap {
		e.history = append(e.history, res)
	} else {
		e.history[e.count%historyCap] = res
	}
	e.count++
	e.mu.Unlock()

	e.publish(res, trig)
	return res
}

// History returns a copy of the retained results — the most recent
// historyCap evaluations — oldest first.
func (e *Evaluator) History() []Result {
	e.mu.Lock()
	defer e.mu.Unlock()
	oldest := 0
	if len(e.history) == historyCap {
		oldest = e.count % historyCap
	}
	out := make([]Result, 0, len(e.history))
	out = append(out, e.history[oldest:]...)
	return append(out, e.history[:oldest]...)
}

// Count returns how many evaluations the Evaluator has recorded in total,
// including those History no longer retains.
func (e *Evaluator) Count() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.count
}

// publish emits the result in the paper's assertion log format. The line
// is built in one pass into a buffer sized for it, and the tag slice is
// shared per step.
func (e *Evaluator) publish(res Result, trig Trigger) {
	if e.bus == nil {
		return
	}
	fields := map[string]string{
		"checkid": res.CheckID,
		"status":  res.Status.String(),
		"trigger": string(trig.Source),
	}
	if trig.ProcessInstanceID != "" {
		fields["taskid"] = trig.ProcessInstanceID
	}
	if trig.StepID != "" {
		fields["steppostcon"] = trig.StepID
	}
	var stamp [len(logging.TimestampLayout) + 8]byte
	when := res.EvaluatedAt.AppendFormat(stamp[:0], logging.TimestampLayout)
	var b strings.Builder
	b.Grow(len("[] [assertion] [Task:] [Step:] ") + len(when) +
		len(trig.ProcessInstanceID) + len(trig.StepID) + len(res.Message))
	b.WriteByte('[')
	b.Write(when)
	b.WriteString("] [assertion] [Task:")
	b.WriteString(trig.ProcessInstanceID)
	b.WriteString("] [Step:")
	b.WriteString(trig.StepID)
	b.WriteString("] ")
	b.WriteString(res.Message)
	e.bus.Publish(logging.Event{
		Timestamp:  res.EvaluatedAt,
		Source:     "assertion-evaluation.log",
		SourceHost: e.host,
		Type:       logging.TypeAssertion,
		Tags:       e.tags(trig.StepID),
		Fields:     fields,
		Message:    b.String(),
	})
}

// noStepTags is the tag slice of a line with no step; subscribers treat
// event tags as read-only, so every such line shares it.
var noStepTags = []string{"assertion"}

// tags returns the shared, full-capacity tag slice of a line attached to
// step: ["assertion", step], or ["assertion"] with no step. A subscriber
// that appends to it copies it.
func (e *Evaluator) tags(step string) []string {
	if step == "" {
		return noStepTags
	}
	e.tagMu.RLock()
	tags, ok := e.stepTags[step]
	e.tagMu.RUnlock()
	if ok {
		return tags
	}
	e.tagMu.Lock()
	defer e.tagMu.Unlock()
	if tags, ok = e.stepTags[step]; !ok {
		tags = []string{"assertion", step}
		e.stepTags[step] = tags
	}
	return tags
}
