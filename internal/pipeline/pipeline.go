// Package pipeline implements the local log processor of Figure 3: a
// pipeline of noise filter, log annotator (process context + extracted
// fields), timer setter hooks, and triggers for conformance checking and
// assertion evaluation, forwarding "important" lines to the central log
// storage.
//
// The processor is deliberately mechanical: it classifies each raw
// operation log line against the process model, attaches process context
// (process instance id, activity, step id), extracts well-known fields
// (instance id, AMI id, relaunch progress), and invokes the configured
// trigger callbacks. Policy — which assertions to evaluate, what timers to
// set — lives in the POD engine (internal/core).
package pipeline

import (
	"regexp"
	"strings"
	"sync"
	"sync/atomic"

	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/obs"
	"poddiagnosis/internal/process"
)

// Local-log-processor metrics, mirroring the Stats counters. The labelled
// children are resolved once at init: CounterVec.With costs a lock and a
// variadic allocation per call, which the per-event path cannot afford.
var (
	mEvents = obs.Default.CounterVec("pod_pipeline_events_total",
		"Events through the local log processor by disposition.", "disposition")
	mEvSeen      = mEvents.With("seen")
	mEvDropped   = mEvents.With("dropped")
	mEvAnnotated = mEvents.With("annotated")
	mEvError     = mEvents.With("error")
	mEvForwarded = mEvents.With("forwarded")
)

// Triggers are the callbacks a Processor invokes as it annotates events.
// Any callback may be nil. Callbacks run on the processor goroutine; keep
// them fast and non-blocking (hand heavy work to other goroutines).
type Triggers struct {
	// Conformance receives every relevant line for token replay.
	Conformance func(instanceID, line string, ev logging.Event)
	// StepEvent fires for every line classified to an activity.
	StepEvent func(instanceID string, node *process.Node, ev logging.Event)
	// ErrorLine fires for lines matching known-error patterns.
	ErrorLine func(instanceID, line string, ev logging.Event)
	// ProcessStart fires on the first activity of an instance (starts
	// the periodic timer, §III.B.1).
	ProcessStart func(instanceID string, ev logging.Event)
	// ProcessEnd fires on the final activity (stops the periodic timer).
	ProcessEnd func(instanceID string, ev logging.Event)
}

// Handler receives the annotated events of one process instance. It is the
// per-operation counterpart of Triggers: a routed Processor resolves the
// handler per event, so one processor can feed many concurrently monitored
// operations. Methods run on the processor goroutine; keep them fast and
// non-blocking (hand heavy work to other goroutines).
type Handler interface {
	// OnConformance receives every relevant line for token replay.
	OnConformance(instanceID, line string, ev logging.Event)
	// OnStepEvent fires for every line classified to an activity.
	OnStepEvent(instanceID string, node *process.Node, ev logging.Event)
	// OnErrorLine fires for lines matching known-error patterns.
	OnErrorLine(instanceID, line string, ev logging.Event)
	// OnProcessStart fires on the first activity of an instance.
	OnProcessStart(instanceID string, ev logging.Event)
	// OnProcessEnd fires on the final activity. It is delivered after the
	// final event's OnConformance/OnStepEvent so post-completion
	// assertions still run before the handler tears its timers down.
	OnProcessEnd(instanceID string, ev logging.Event)
}

// Router resolves the handler for a process instance. It is consulted once
// per annotated event (the event carries extracted fields such as "asgid",
// which routers may use to adopt unknown instances). Returning nil drops
// the event's triggers; the event is still forwarded to central storage.
type Router func(instanceID string, ev logging.Event) Handler

// triggersHandler adapts the legacy Triggers callback set to Handler.
type triggersHandler struct{ t Triggers }

func (h triggersHandler) OnConformance(id, line string, ev logging.Event) {
	if h.t.Conformance != nil {
		h.t.Conformance(id, line, ev)
	}
}

func (h triggersHandler) OnStepEvent(id string, node *process.Node, ev logging.Event) {
	if h.t.StepEvent != nil {
		h.t.StepEvent(id, node, ev)
	}
}

func (h triggersHandler) OnErrorLine(id, line string, ev logging.Event) {
	if h.t.ErrorLine != nil {
		h.t.ErrorLine(id, line, ev)
	}
}

func (h triggersHandler) OnProcessStart(id string, ev logging.Event) {
	if h.t.ProcessStart != nil {
		h.t.ProcessStart(id, ev)
	}
}

func (h triggersHandler) OnProcessEnd(id string, ev logging.Event) {
	if h.t.ProcessEnd != nil {
		h.t.ProcessEnd(id, ev)
	}
}

// Processor is the local log processor agent.
type Processor struct {
	model  *process.Model
	store  logging.Sink // central log storage; may be nil
	route  Router       // nil means the static handler below
	static Handler      // legacy Triggers adapter; may be nil

	mu      sync.Mutex
	started map[string]bool
	stats   statCounters

	stop chan struct{}
	wg   sync.WaitGroup
}

// Stats counts processor activity.
type Stats struct {
	// Seen is the number of raw events observed.
	Seen int
	// Dropped is the number filtered out as noise.
	Dropped int
	// Annotated is the number of lines classified to an activity.
	Annotated int
	// Errors is the number of known-error lines.
	Errors int
	// Forwarded is the number of events sent to central storage.
	Forwarded int
}

// statCounters is the lock-free internal form of Stats: the per-event path
// bumps atomics instead of taking the processor mutex twice per event.
type statCounters struct {
	seen, dropped, annotated, errors, forwarded atomic.Int64
}

func (c *statCounters) snapshot() Stats {
	return Stats{
		Seen:      int(c.seen.Load()),
		Dropped:   int(c.dropped.Load()),
		Annotated: int(c.annotated.Load()),
		Errors:    int(c.errors.Load()),
		Forwarded: int(c.forwarded.Load()),
	}
}

// New returns a Processor for the given model, forwarding important lines
// to store and invoking triggers.
func New(model *process.Model, store logging.Sink, triggers Triggers) *Processor {
	return &Processor{
		model:   model,
		store:   store,
		static:  triggersHandler{triggers},
		started: make(map[string]bool),
		stop:    make(chan struct{}),
	}
}

// NewRouted returns a Processor that resolves the handler for each event
// through router instead of a fixed callback set. Events whose instance is
// not claimed by any handler still count in Stats and flow to central
// storage, so an unmonitored operation's logs remain queryable.
func NewRouted(model *process.Model, store logging.Sink, router Router) *Processor {
	return &Processor{
		model:   model,
		store:   store,
		route:   router,
		started: make(map[string]bool),
		stop:    make(chan struct{}),
	}
}

// Start consumes events from the subscription until Stop is called or the
// subscription closes.
func (p *Processor) Start(sub *logging.Subscription) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			select {
			case <-p.stop:
				return
			case ev, ok := <-sub.C:
				if !ok {
					return
				}
				p.Process(ev)
			}
		}
	}()
}

// Stop halts the processing goroutine. Safe to call once after Start.
func (p *Processor) Stop() {
	close(p.stop)
	p.wg.Wait()
}

// Stats returns a snapshot of the processing counters.
func (p *Processor) Snapshot() Stats {
	return p.stats.snapshot()
}

// extractor is a field-extraction pattern guarded by a literal every
// match of it contains — the regexp runs only on lines that carry it —
// with the field each capture group fills.
type extractor struct {
	guard  string
	re     *regexp.Regexp
	fields []string
}

func (x *extractor) find(body string) []string {
	if !strings.Contains(body, x.guard) {
		return nil
	}
	return x.re.FindStringSubmatch(body)
}

// extractors are applied to every annotated line; later entries overwrite
// earlier ones ("total"). One table walked by one loop, so Process has one
// SetField site for all of them and allocates no per-call pattern table.
var extractors = []extractor{
	{"i-", regexp.MustCompile(`\b(i-[0-9a-f]+)\b`), []string{"instanceid"}},
	{"ami-", regexp.MustCompile(`\b(ami-[0-9a-zA-Z-]+)\b`), []string{"amiid"}},
	{"group ", regexp.MustCompile(`group (\S+)`), []string{"asgid"}},
	{" of ", regexp.MustCompile(`\b(\d+) of (\d+) instances?\b`), []string{"num", "total"}},
	{"Sorted ", regexp.MustCompile(`Sorted (\d+) instances`), []string{"total"}},
}

// Process runs one event through the pipeline, returning the annotated
// event and whether it was forwarded to central storage.
//
// Budget note: 2 sites are the Clone's tag/field copies (the one
// per-event copy the pipeline pays); the other 4 are the statically
// inlined lazy-map make of SetField at each call site, of which at most
// one executes per event.
//
//podlint:hotpath budget=6
func (p *Processor) Process(ev logging.Event) (logging.Event, bool) {
	p.stats.seen.Add(1)
	mEvSeen.Inc()

	// Only operation-node logs flow through the local processor.
	if ev.Type != logging.TypeOperation {
		p.stats.dropped.Add(1)
		mEvDropped.Inc()
		return ev, false
	}

	// The raw @message is an Asgard-style line; the body is what the
	// model's patterns match.
	body := ev.Message
	if _, _, parsed, ok := logging.ParseOperationLine(ev.Message); ok {
		body = parsed
	}

	instanceID := ev.Field("taskid")
	node, isError := p.model.Match(body)
	classified := node != nil

	// Noise filter: drop lines that neither classify, nor err, nor carry
	// a known process instance.
	if !classified && !isError && instanceID == "" {
		p.stats.dropped.Add(1)
		mEvDropped.Inc()
		return ev, false
	}

	// Log annotator: process context tags and extracted fields. One Clone
	// buys a private copy; every annotation after it mutates in place —
	// the WithTag/WithField chain this replaces re-cloned the whole event
	// (tags slice + fields map) per annotation.
	out := ev.Clone()
	if instanceID != "" {
		out.SetField("processinstanceid", instanceID)
	}
	if classified {
		out.AddTag(node.ID)
		if node.StepID != "" {
			out.AddTag(node.StepID)
			out.SetField("stepid", node.StepID)
		}
		out.SetField("activity", node.Name)
	}
	if isError {
		out.AddTag("error")
	}
	for i := range extractors {
		x := &extractors[i]
		if m := x.find(body); m != nil {
			for g, field := range x.fields {
				out.SetField(field, m[g+1])
			}
		}
	}

	// Resolve the handler: the static Triggers adapter, or the router
	// consulted after annotation so it can see extracted fields (asgid,
	// amiid, ...) when deciding whether to adopt an unknown instance.
	var h Handler
	if p.route != nil {
		if instanceID != "" {
			h = p.route(instanceID, out)
		}
	} else {
		h = p.static
	}

	// Timer setter hook: first activity of the process.
	isEnd := false
	if classified && instanceID != "" {
		isEnd = node.Final || node.ID == process.NodeCompleted
		p.mu.Lock()
		first := !p.started[instanceID]
		if first {
			p.started[instanceID] = true
		}
		p.mu.Unlock()
		if first && h != nil {
			h.OnProcessStart(instanceID, out)
		}
	}

	// Triggers: conformance for every relevant line; step events and
	// error lines for the engine.
	if h != nil && instanceID != "" {
		h.OnConformance(instanceID, body, out)
	}
	if classified {
		p.stats.annotated.Add(1)
		mEvAnnotated.Inc()
		if h != nil && instanceID != "" {
			h.OnStepEvent(instanceID, node, out)
		}
	}
	if isError {
		p.stats.errors.Add(1)
		mEvError.Inc()
		if h != nil {
			h.OnErrorLine(instanceID, body, out)
		}
	}

	// The process-end hook fires after the final event's own triggers so
	// post-completion assertions are scheduled before the handler tears
	// its timers down.
	if isEnd && h != nil {
		h.OnProcessEnd(instanceID, out)
	}

	// Forward "important" lines — classified activities and errors — to
	// central storage.
	important := classified || isError
	if important && p.store != nil {
		p.store.Write(out)
		p.stats.forwarded.Add(1)
		mEvForwarded.Inc()
	}
	return out, important
}

// BodyOf extracts the message body of an operation event (without the
// timestamp/task prefix).
func BodyOf(ev logging.Event) string {
	if _, _, body, ok := logging.ParseOperationLine(ev.Message); ok {
		return body
	}
	return strings.TrimSpace(ev.Message)
}
