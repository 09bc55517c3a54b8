// Package pipeline implements the local log processor of Figure 3: a
// pipeline of noise filter, log annotator (process context + extracted
// fields), timer setter hooks, and triggers for conformance checking and
// assertion evaluation, forwarding "important" lines to the central log
// storage.
//
// The processor is deliberately mechanical: it classifies each raw
// operation log line against the process model, attaches process context
// (process instance id, activity, step id), extracts well-known fields
// (instance id, AMI id, relaunch progress), and invokes the Handler its
// Router resolves for the line's process instance. Policy — which
// assertions to evaluate, what timers to set — lives in the POD engine
// (internal/core).
package pipeline

import (
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

// Handler receives the annotated events of one process instance. The
// Processor resolves the handler per event, so one processor can feed many
// concurrently monitored operations. Methods run on the caller of Process;
// keep them fast and non-blocking (hand heavy work to other goroutines).
type Handler interface {
	// OnConformance receives every relevant line for token replay.
	OnConformance(instanceID, line string, ev logging.Event)
	// OnStepEvent fires for every line classified to an activity.
	OnStepEvent(instanceID string, node *process.Node, ev logging.Event)
	// OnErrorLine fires for lines matching known-error patterns.
	OnErrorLine(instanceID, line string, ev logging.Event)
	// OnProcessStart fires on the first activity of an instance — and
	// again on a straggler line classified after its final activity, which
	// a handler that saw the instance end ignores.
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

// Processor is the local log processor agent.
type Processor struct {
	model *process.Model
	store logging.Sink // central log storage; may be nil
	route Router       // nil means annotate and store only

	mu sync.Mutex
	// started holds the instances whose first activity was seen and whose
	// final one was not yet: OnProcessStart fires when an instance enters.
	started map[string]bool
	stats   statCounters
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

// NewRouted returns a Processor that resolves the handler for each event
// through router; a nil router annotates and stores lines but triggers
// nothing. Events whose instance is not claimed by any handler still count
// in Stats and flow to central storage, so an unmonitored operation's logs
// remain queryable. Callers feed it with Process.
func NewRouted(model *process.Model, store logging.Sink, router Router) *Processor {
	return &Processor{
		model:   model,
		store:   store,
		route:   router,
		started: make(map[string]bool),
	}
}

// Stats returns a snapshot of the processing counters.
func (p *Processor) Snapshot() Stats {
	return p.stats.snapshot()
}

// Process runs one event through the pipeline, returning the annotated
// event and whether it was forwarded to central storage.
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

	// Log annotator: process context tags and extracted fields. The
	// annotations ride inline on a value copy of the event — the step id,
	// activity and tags as the node's shared Note, the extracted values as
	// offsets into the message — so a classified line allocates nothing.
	// The input's Fields map and Tags slice are shared with other events
	// and never written.
	out := ev
	var note *logging.Note
	if classified {
		note = node.Note()
		out.Annotate(note)
	}
	if tags := note.Tags(isError); len(ev.Tags) == 0 {
		out.Tags = tags
	} else {
		for _, tag := range tags {
			out.AddTag(tag)
		}
	}
	if instanceID != "" {
		out.SetField("processinstanceid", instanceID)
	}
	for i := range extractors {
		x := &extractors[i]
		if m, ok := x.scan(body); ok {
			for g, field := range x.fields {
				out.SetField(field, m[g])
			}
		}
	}

	// Resolve the handler: the router is consulted after annotation so it
	// can see extracted fields (asgid, amiid, ...) when deciding whether
	// to adopt an unknown instance.
	var h Handler
	if p.route != nil && instanceID != "" {
		h = p.route(instanceID, out)
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
	if h != nil {
		h.OnConformance(instanceID, body, out)
	}
	if classified {
		p.stats.annotated.Add(1)
		mEvAnnotated.Inc()
		if h != nil {
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
	// its timers down. The instance then leaves the started set, which
	// therefore holds only processes still running; a straggler line
	// after the final one reaches OnProcessStart again, and handlers
	// ignore it for an instance they saw end.
	if isEnd {
		if h != nil {
			h.OnProcessEnd(instanceID, out)
		}
		p.mu.Lock()
		delete(p.started, instanceID)
		p.mu.Unlock()
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
