package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/assertspec"
	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/conformance"
	"poddiagnosis/internal/diagnosis"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/obs/flight"
	"poddiagnosis/internal/process"
	"poddiagnosis/internal/remediate"
)

// SessionState is the lifecycle phase of a monitoring session.
type SessionState string

const (
	// SessionActive means the session is routing events and evaluating.
	SessionActive SessionState = "active"
	// SessionEnded means the operation finished (or was ended explicitly);
	// the session retains its detections until the manager GCs it after
	// the retention window.
	SessionEnded SessionState = "ended"
)

// Session monitors one sporadic operation under a Manager: it holds the
// operation's expectation, its resolved assertion specification, a private
// conformance context, progress/timer/dedup state and the recorded
// detections. All event handling runs on the manager's pipeline goroutine;
// assertion evaluations and diagnoses are handed to the manager's shared
// worker pool.
type Session struct {
	id  string
	mgr *Manager

	expect Expectation
	spec   *assertspec.Spec
	// specText is the spec override Watch parsed spec from ("" when the
	// session uses the manager default); carried by snapshots so the
	// adopting manager can re-parse the same spec. Immutable after Watch.
	specText string
	checker  *conformance.Checker
	// flight is the operation's evidence ring; nil (a no-op) when the
	// manager's recorder is disabled. Immutable after Watch.
	flight *flight.Op

	periodicInterval time.Duration
	stepSlack        float64
	maxDetections    int
	matchAny         bool
	matchASG         bool
	// remCtl steers the operation itself during remediation (retry step,
	// abort); nil when the harness attached none. Immutable after Watch.
	remCtl remediate.OperationController

	pending atomic.Int64 // queued + in-flight work items for this session

	mu          sync.Mutex
	state       SessionState
	endedAt     time.Time
	bound       map[string]bool // explicitly bound process instance ids
	instances   map[string]bool // every instance routed to this session
	completed   map[string]bool // instances whose process reached its end
	detections  []Detection
	seen        map[string]int  // diagnosis attempts per dedup key
	identified  map[string]bool // keys whose diagnosis already identified a cause
	progress    map[string]int  // instance -> relaunches done
	total       map[string]int  // instance -> total relaunches
	stepCancel  map[string]func()
	perioCancel map[string]func()
	// lastEntry maps instance id -> latest log-event evidence entry, the
	// causal anchor for assertions and detections triggered by that line.
	lastEntry map[string]uint64
	// flightGap is the latest stream-gap evidence entry; degraded
	// detections cite it as a contributing parent.
	flightGap uint64
	// degradedUntil marks the end of the degraded hold: after a sequence
	// gap on the shipping fabric, the session cannot trust the absence of
	// a log line until this (simulated) time passes. Conformance switches
	// to lossy mode and detections carry a confidence discount.
	degradedUntil time.Time
}

// ID returns the session's operation id.
func (s *Session) ID() string { return s.id }

// Expect returns the session's (normalized) expectation.
func (s *Session) Expect() Expectation { return s.expect }

// Checker returns the session's private conformance checker, which replays
// only this operation's log lines.
func (s *Session) Checker() *conformance.Checker { return s.checker }

// State returns the session's lifecycle phase.
func (s *Session) State() SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Pending reports this session's queued plus in-flight work items.
func (s *Session) Pending() int { return int(s.pending.Load()) }

// Instances returns the process instance ids routed to this session.
func (s *Session) Instances() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.instances))
	for id := range s.instances {
		out = append(out, id)
	}
	return out
}

// Detections returns a copy of the session's recorded detections.
func (s *Session) Detections() []Detection {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Detection, len(s.detections))
	copy(out, s.detections)
	return out
}

// End transitions the session to the ended state: its timers are cancelled
// and further routed events are ignored. Recorded detections stay readable
// until the manager garbage-collects the session after the retention
// window. End is idempotent.
func (s *Session) End() {
	s.mu.Lock()
	if s.state == SessionEnded {
		s.mu.Unlock()
		return
	}
	s.state = SessionEnded
	s.endedAt = s.mgr.clk.Now()
	cancels := make([]func(), 0, len(s.stepCancel)+len(s.perioCancel))
	for id, c := range s.stepCancel {
		cancels = append(cancels, c)
		delete(s.stepCancel, id)
	}
	for id, c := range s.perioCancel {
		cancels = append(cancels, c)
		delete(s.perioCancel, id)
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	s.mgr.sessionEnded()
}

// noteGap enters (or extends) degraded mode after a declared sequence gap.
func (s *Session) noteGap(now time.Time) {
	until := now.Add(s.mgr.cfg.DegradedHold)
	s.mu.Lock()
	if until.After(s.degradedUntil) {
		s.degradedUntil = until
	}
	s.mu.Unlock()
}

// setLastGap remembers the newest stream-gap evidence entry.
func (s *Session) setLastGap(id uint64) {
	s.mu.Lock()
	s.flightGap = id
	s.mu.Unlock()
}

// lastEntryOf returns the instance's latest log-event evidence entry.
func (s *Session) lastEntryOf(instanceID string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastEntry[instanceID]
}

// Timeline snapshots the session's evidence chain, optionally filtered
// by entry kind. Empty (with no entries, never nil) when the manager's
// flight recorder is disabled.
func (s *Session) Timeline(kinds ...flight.Kind) flight.Timeline {
	return s.mgr.flight.Timeline(s.id, kinds...)
}

// degradedNow reports whether the session is inside a degraded hold.
func (s *Session) degradedNow() bool {
	now := s.mgr.clk.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	return now.Before(s.degradedUntil)
}

// Degraded reports whether the session currently distrusts its log stream.
func (s *Session) Degraded() bool { return s.degradedNow() }

// ended reports whether the session stopped accepting events.
func (s *Session) ended() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == SessionEnded
}

// adopt records that an instance id has been routed to this session.
func (s *Session) adopt(instanceID string, explicit bool) {
	s.mu.Lock()
	s.instances[instanceID] = true
	if explicit {
		s.bound[instanceID] = true
	}
	s.mu.Unlock()
}

// submit hands work to the manager's shared pool, attributing the backlog
// to this session and the instance's shard.
func (s *Session) submit(instanceID string, f func()) {
	s.pending.Add(1)
	s.mgr.submit(instanceID, func() {
		defer s.pending.Add(-1)
		f()
	}, func() { s.pending.Add(-1) })
}

// baseParams assembles the expectation parameters plus per-event context.
func (s *Session) baseParams(ev logging.Event) assertion.Params {
	p := s.expect.params()
	if id := ev.Field("instanceid"); id != "" {
		p[assertion.ParamInstance] = id
	}
	return p
}

// ---- pipeline.Handler ----

// OnConformance replays the line on the session's private conformance
// context and publishes the verdict. It runs for every routed line and may
// not allocate on its own account (budget 0: the evidence entry and the
// verdict event are recordLogEvent's and publishConformance's); a verdict
// that is not fit leaves the per-line path for onAnomaly.
//
//podlint:hotpath budget=0
func (s *Session) OnConformance(instanceID, line string, ev logging.Event) {
	if s.ended() {
		return
	}
	// Every routed line anchors the evidence timeline — even when
	// conformance checking is ablated — because detections and causes
	// must chain back to a raw log event.
	evEntry := s.recordLogEvent(instanceID, ev)
	if s.mgr.cfg.DisableConformance {
		return
	}
	// In degraded mode the checker absorbs forward deviations by
	// resynchronizing the token replay at the next recognized step — a
	// missing line must not masquerade as a wrong-path operation.
	degraded := s.degradedNow()
	res := s.checker.CheckLossy(instanceID, line, ev.Timestamp, degraded)
	s.mgr.publishConformance(instanceID, res, ev)
	if res.Verdict.IsAnomalous() {
		s.onAnomaly(instanceID, line, ev, res, evEntry, degraded)
	}
}

// onAnomaly records a non-conforming verdict as evidence and, unless the
// trigger is a repeat, as a detection with a diagnosis behind it. It runs
// once per anomalous line, not per line.
func (s *Session) onAnomaly(instanceID, line string, ev logging.Event, res conformance.Result, evEntry uint64, degraded bool) {
	stepID := res.StepID
	if stepID == "" && res.Context != nil {
		stepID = res.Context.LastValidStep
	}
	confEntry := s.flight.Record(flight.Entry{
		Kind:    flight.KindConformance,
		At:      ev.Timestamp,
		Parents: parentsOf(evEntry),
		Message: res.Summary(),
		Attrs: map[string]string{
			"verdict":  string(res.Verdict),
			"step":     stepID,
			"degraded": strconv.FormatBool(degraded),
		},
	})
	key := "conf|" + instanceID + "|" + string(res.Verdict) + "|" + stepID
	if !s.shouldDiagnose(key) {
		return
	}
	params := s.baseParams(ev)
	detail := fmt.Sprintf("conformance %s on line %q", res.Verdict, line)
	detEntry, detAt := s.recordDetection(diagnosis.SourceConformance,
		res.Verdict.Tag(), stepID, detail, ev.Timestamp, degraded, confEntry)
	ts, trigger := ev.Timestamp, res.Verdict.Tag()
	s.submit(instanceID, func() {
		d := s.mgr.diag.Diagnose(s.diagCtx(detEntry), diagnosis.Request{
			Source:            diagnosis.SourceConformance,
			ProcessInstanceID: instanceID,
			StepID:            stepID,
			Params:            params,
			Detail:            detail,
			Degraded:          degraded,
		})
		s.observeDiagnosisSLO(d, detAt, degraded)
		s.record(Detection{
			At:         ts,
			Source:     diagnosis.SourceConformance,
			TriggerID:  trigger,
			StepID:     stepID,
			InstanceID: instanceID,
			Message:    detail,
			Diagnosis:  d,
			Degraded:   degraded,
			Confidence: confidence(degraded),
			EvidenceID: detEntry,
		}, key)
	})
}

// parentsOf builds a parent-id list from the non-zero entry ids.
func parentsOf(ids ...uint64) []uint64 {
	var out []uint64
	for _, id := range ids {
		if id != 0 {
			out = append(out, id)
		}
	}
	return out
}

// recordLogEvent anchors one routed line in the evidence timeline and
// remembers it as the instance's latest entry, the parent for whatever
// that line triggers.
//
//podlint:hotpath budget=1
func (s *Session) recordLogEvent(instanceID string, ev logging.Event) uint64 {
	if s.flight == nil {
		return 0
	}
	//podlint:ignore GO010 the evidence ring takes ownership of Attrs — a per-entry map is part of the flight.Entry contract
	attrs := map[string]string{"instance": instanceID}
	if rep := ev.Field("reorder"); rep != "" {
		attrs["reorder"] = rep
	}
	id := s.flight.Record(flight.Entry{
		Kind:    flight.KindLogEvent,
		At:      ev.Timestamp,
		Seq:     ev.Seq,
		Cause:   ev.CauseID,
		Message: ev.Message,
		Attrs:   attrs,
	})
	s.mu.Lock()
	s.lastEntry[instanceID] = id
	s.mu.Unlock()
	return id
}

// recordDetection admits a detection into the evidence timeline and
// observes the event->detection SLO. origin is the trigger's source
// time — the log line's timestamp, or the timer fire. It returns the
// detection entry id and the admission time the diagnosis-latency SLO
// measures from.
func (s *Session) recordDetection(src diagnosis.Source, triggerID, stepID, msg string,
	origin time.Time, degraded bool, parent uint64) (uint64, time.Time) {
	now := s.mgr.clk.Now()
	lat := now.Sub(origin).Seconds()
	if lat < 0 {
		lat = 0
	}
	mSLODetection.With(strconv.FormatBool(degraded), s.mgr.cfg.ChaosLabel).Observe(lat)
	parents := parentsOf(parent)
	if degraded {
		s.mu.Lock()
		gap := s.flightGap
		s.mu.Unlock()
		if gap != 0 && gap != parent {
			parents = append(parents, gap)
		}
	}
	id := s.flight.Record(flight.Entry{
		Kind:    flight.KindDetection,
		At:      now,
		Parents: parents,
		Message: msg,
		Attrs: map[string]string{
			"source":   string(src),
			"trigger":  triggerID,
			"step":     stepID,
			"degraded": strconv.FormatBool(degraded),
		},
	})
	return id, now
}

// diagCtx carries the operation's evidence ring and the detection entry
// into the diagnosis engine. Sessions intentionally diagnose on a
// background context (the walk outlives the pipeline callback), so the
// causal linkage travels as context values.
func (s *Session) diagCtx(detEntry uint64) context.Context {
	return flight.WithParent(flight.NewContext(context.Background(), s.flight), detEntry)
}

// observeDiagnosisSLO records the detection->confirmed-cause latency
// for diagnosis runs that identified a root cause.
func (s *Session) observeDiagnosisSLO(d *diagnosis.Diagnosis, detAt time.Time, degraded bool) {
	if d == nil || d.Conclusion != diagnosis.ConclusionIdentified {
		return
	}
	lat := s.mgr.clk.Since(detAt).Seconds()
	if lat < 0 {
		lat = 0
	}
	mSLODiagnosis.With(strconv.FormatBool(degraded), s.mgr.cfg.ChaosLabel).Observe(lat)
}

// confidence maps the degraded flag onto the detection confidence score.
func confidence(degraded bool) float64 {
	if degraded {
		return 0.5
	}
	return 1
}

// OnStepEvent updates progress, resets the one-off step timer and
// evaluates post-step assertions.
func (s *Session) OnStepEvent(instanceID string, node *process.Node, ev logging.Event) {
	if s.ended() {
		return
	}
	// Track operation progress from any line the annotator extracted
	// "k of n" counters from (relaunches done, instances in service, ...).
	// (Most lines carry neither field, and Atoi allocates its error.)
	if num := ev.Field("num"); num != "" {
		if n, err := strconv.Atoi(num); err == nil {
			s.mu.Lock()
			s.progress[instanceID] = n
			s.mu.Unlock()
		}
	}
	if total := ev.Field("total"); total != "" {
		if n, err := strconv.Atoi(total); err == nil {
			s.mu.Lock()
			s.total[instanceID] = n
			s.mu.Unlock()
		}
	}

	s.resetStepTimer(instanceID, node)

	if s.mgr.cfg.DisableAssertions {
		return
	}
	trig := assertion.Trigger{
		Source:            assertion.TriggerLog,
		ProcessInstanceID: instanceID,
		StepID:            node.StepID,
	}
	// The step line was anchored by OnConformance just before this
	// handler ran; it is the causal parent of every post-step assertion.
	anchor := s.lastEntryOf(instanceID)
	origin := ev.Timestamp
	for _, b := range s.stepBindings(instanceID, node, ev) {
		b := b
		s.submit(instanceID, func() { s.evaluateAndMaybeDiagnose(b.checkID, b.params, trig, anchor, origin) })
	}
}

// OnErrorLine is part of pipeline.Handler; known-error lines already
// surface through conformance and assertions, so it only forwards context.
func (s *Session) OnErrorLine(instanceID, line string, ev logging.Event) {}

// OnProcessStart arms the periodic capacity assertion (§III.B.1: "the
// timer setter uses the log line indicating the start of the operation
// process to start the periodic timer").
func (s *Session) OnProcessStart(instanceID string, ev logging.Event) {
	if s.mgr.cfg.DisableAssertions || s.ended() {
		return
	}
	base := s.expect.params()
	vars := s.vars(instanceID, ev)
	trig := assertion.Trigger{
		Source:            assertion.TriggerTimer,
		ProcessInstanceID: instanceID,
	}
	cancels := make([]func(), 0, 1)
	for _, pb := range s.spec.Periodic() {
		params, ok := pb.Resolve(base, vars)
		if !ok {
			continue
		}
		interval := pb.Every
		if s.periodicInterval > 0 {
			// The session-level interval overrides the spec's default, so
			// experiments can tune the cadence without editing the spec.
			interval = s.periodicInterval
		}
		checkID := pb.CheckID
		cancels = append(cancels, s.mgr.timers.Every(interval, func() {
			mTimerFires.With("periodic").Inc()
			fireAt := s.mgr.clk.Now()
			// Each fire chains back to the instance's latest observed line
			// — the evidence the capacity check judges against. Resolved at
			// fire time, not arming time: this hook runs before the
			// process-start line itself is anchored in the flight ring, so
			// an arming-time anchor would be empty and every periodic
			// detection's evidence chain would dead-end short of a log
			// event.
			anchor := s.lastEntryOf(instanceID)
			s.submit(instanceID, func() {
				s.evaluateAndMaybeDiagnose(checkID, params, trig, anchor, fireAt)
			})
		}))
	}
	if len(cancels) == 0 {
		return
	}
	s.mu.Lock()
	if old, ok := s.perioCancel[instanceID]; ok {
		old()
	}
	s.perioCancel[instanceID] = func() {
		for _, c := range cancels {
			c()
		}
	}
	s.mu.Unlock()
}

// OnProcessEnd stops the instance's timers; when every explicitly bound
// instance of a bind-only session has completed, the session auto-ends.
func (s *Session) OnProcessEnd(instanceID string, ev logging.Event) {
	s.mu.Lock()
	if cancel, ok := s.perioCancel[instanceID]; ok {
		cancel()
		delete(s.perioCancel, instanceID)
	}
	if cancel, ok := s.stepCancel[instanceID]; ok {
		cancel()
		delete(s.stepCancel, instanceID)
	}
	s.completed[instanceID] = true
	autoEnd := !s.matchAny && !s.matchASG && s.state == SessionActive && len(s.bound) > 0
	if autoEnd {
		for id := range s.bound {
			if !s.completed[id] {
				autoEnd = false
				break
			}
		}
	}
	s.mu.Unlock()
	if autoEnd {
		s.End()
	}
}

// ---- assertions and diagnosis ----

// binding is one resolved assertion evaluation to run.
type binding struct {
	checkID string
	params  assertion.Params
}

// vars assembles the specification variables available at this point of
// the process: cluster-level targets plus the event's extracted context.
func (s *Session) vars(instanceID string, ev logging.Event) map[string]string {
	s.mu.Lock()
	progress := s.progress[instanceID]
	total, hasTotal := s.total[instanceID]
	s.mu.Unlock()
	next := progress + 1
	if hasTotal && next > total {
		next = total
	}
	v := map[string]string{
		"n":        strconv.Itoa(s.expect.ClusterSize),
		"min":      strconv.Itoa(s.expect.MinInService),
		"progress": strconv.Itoa(progress),
		"next":     strconv.Itoa(next),
	}
	if id := ev.Field("instanceid"); id != "" {
		v["instanceid"] = id
	}
	return v
}

// stepBindings resolves the specification's post-step assertions for the
// given step. Bindings whose variables cannot be resolved from the event
// (e.g. instance-version without an instance id) are skipped.
func (s *Session) stepBindings(instanceID string, node *process.Node, ev logging.Event) []binding {
	specBindings := s.spec.ByStep(node.StepID)
	if len(specBindings) == 0 {
		return nil
	}
	base := s.baseParams(ev)
	vars := s.vars(instanceID, ev)
	out := make([]binding, 0, len(specBindings))
	for _, sb := range specBindings {
		params, ok := sb.Resolve(base, vars)
		if !ok {
			continue
		}
		out = append(out, binding{sb.CheckID, params})
	}
	return out
}

// evaluateAndMaybeDiagnose runs one assertion; a non-pass result is a
// detection and triggers diagnosis. anchor is the evidence entry of the
// log line (or arming line, for timers) that caused the evaluation;
// origin is the trigger's source time for the detection-latency SLO.
func (s *Session) evaluateAndMaybeDiagnose(checkID string, p assertion.Params,
	trig assertion.Trigger, anchor uint64, origin time.Time) {
	// Standalone evaluations get the same per-test clock deadline the
	// diagnosis engine applies to its on-demand tests.
	ctx, cancel := clock.ContextWithTimeout(context.Background(), s.mgr.clk, s.mgr.diag.Options().TestTimeout)
	res := s.mgr.evaluator.Evaluate(ctx, checkID, p, trig)
	cancel()
	if res.Passed() {
		return
	}
	if anchor == 0 {
		// A timer armed before the instance's first line was anchored
		// resolves to no parent; fall back to the latest line now so the
		// evidence chain still bottoms out at a real log event.
		anchor = s.lastEntryOf(trig.ProcessInstanceID)
	}
	assertEntry := s.flight.Record(flight.Entry{
		Kind:    flight.KindAssertion,
		At:      res.EvaluatedAt,
		Parents: parentsOf(anchor),
		Message: res.Message,
		Attrs: map[string]string{
			"check":   checkID,
			"trigger": string(trig.Source),
			"status":  res.Status.String(),
		},
	})
	key := "assert|" + trig.ProcessInstanceID + "|" + checkID + "|" + trig.StepID
	if !s.shouldDiagnose(key) {
		return
	}
	src := diagnosis.SourceAssertion
	if trig.Source == assertion.TriggerTimer {
		src = diagnosis.SourceTimer
	}
	degraded := s.degradedNow()
	detEntry, detAt := s.recordDetection(src, checkID, trig.StepID, res.Message,
		origin, degraded, assertEntry)
	d := s.mgr.diag.Diagnose(s.diagCtx(detEntry), diagnosis.Request{
		AssertionID:       checkID,
		Source:            src,
		ProcessInstanceID: trig.ProcessInstanceID,
		StepID:            trig.StepID,
		Params:            p,
		Detail:            res.Message,
		Degraded:          degraded,
	})
	s.observeDiagnosisSLO(d, detAt, degraded)
	s.record(Detection{
		At:         res.EvaluatedAt,
		Source:     src,
		TriggerID:  checkID,
		StepID:     trig.StepID,
		InstanceID: trig.ProcessInstanceID,
		Message:    res.Message,
		Diagnosis:  d,
		Degraded:   degraded,
		Confidence: confidence(degraded),
		EvidenceID: detEntry,
	}, key)
}

// resetStepTimer cancels the previous one-off timer for the instance and
// arms a new one sized from the step's historical duration: if the next
// step's log line does not arrive in time, the high-level version-count
// assertion is evaluated with the next expected progress (a purely
// timer-based trigger, which carries no instance id — §VI.A).
func (s *Session) resetStepTimer(instanceID string, node *process.Node) {
	s.mu.Lock()
	if cancel, ok := s.stepCancel[instanceID]; ok {
		cancel()
		delete(s.stepCancel, instanceID)
	}
	if node.ID == process.NodeCompleted {
		s.mu.Unlock()
		return
	}
	mean := node.MeanDuration
	if mean <= 0 {
		mean = 30 * time.Second
	}
	deadline := time.Duration(float64(mean) * s.stepSlack)
	s.mu.Unlock()

	if s.mgr.cfg.DisableAssertions {
		return
	}
	timeouts := s.spec.TimeoutsFor(node.StepID)
	if len(timeouts) == 0 {
		return
	}
	base := s.expect.params()
	vars := s.vars(instanceID, logging.Event{})
	trig := assertion.Trigger{
		Source:            assertion.TriggerTimer,
		ProcessInstanceID: instanceID,
		// No step id: the timer fires between steps (weak context).
	}
	// Timer detections chain back to the step line that armed the
	// deadline — the last line seen before the silence being detected.
	anchor := s.lastEntryOf(instanceID)
	cancels := make([]func(), 0, len(timeouts))
	for _, tb := range timeouts {
		params, ok := tb.Resolve(base, vars)
		if !ok {
			continue
		}
		checkID := tb.CheckID
		cancels = append(cancels, s.mgr.timers.After(deadline, func() {
			mTimerFires.With("step").Inc()
			fireAt := s.mgr.clk.Now()
			s.submit(instanceID, func() {
				s.evaluateAndMaybeDiagnose(checkID, params, trig, anchor, fireAt)
			})
		}))
	}
	if len(cancels) == 0 {
		return
	}
	s.mu.Lock()
	if s.state == SessionEnded {
		// Lost the race with End: don't leave orphaned timers behind.
		s.mu.Unlock()
		for _, c := range cancels {
			c()
		}
		return
	}
	s.stepCancel[instanceID] = func() {
		for _, c := range cancels {
			c()
		}
	}
	s.mu.Unlock()
}

// ---- bookkeeping ----

func (s *Session) progressOf(instanceID string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.progress[instanceID]
}

// shouldDiagnose dedups diagnosis triggers and enforces the detection cap.
// A trigger key is retried up to three times while its diagnoses remain
// inconclusive — matching the paper's observation that repeated failures
// re-enter diagnosis — but once a root cause is identified the key is
// settled.
func (s *Session) shouldDiagnose(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.identified[key] || s.seen[key] >= 3 {
		return false
	}
	if len(s.detections) >= s.maxDetections {
		return false
	}
	s.seen[key]++
	return true
}

// record appends a detection and settles its originating dedup key when
// the diagnosis identified a root cause. The key is the exact string that
// shouldDiagnose admitted, so conformance and assertion triggers settle
// independently and precisely.
func (s *Session) record(d Detection, dedupKey string) {
	d.Operation = s.id
	mDetections.With(string(d.Source)).Inc()
	mOpDetections.With(s.id).Inc()
	s.mu.Lock()
	if d.Diagnosis != nil && d.Diagnosis.Conclusion == diagnosis.ConclusionIdentified && dedupKey != "" {
		s.identified[dedupKey] = true
	}
	if len(s.detections) < s.maxDetections {
		s.detections = append(s.detections, d)
	}
	s.mu.Unlock()
	// Remediation runs outside s.mu: auto-mode actions call the simulated
	// cloud synchronously, and the engine's idempotency keys make the
	// unlocked window race-free (a re-diagnosed cause dedupes).
	s.maybeRemediate(d)
}

// maybeRemediate offers each confirmed root cause of the detection's
// diagnosis to the manager's remediation engine, closing the
// detect → diagnose → repair loop. Causes over the detection cap still
// remediate — the cap bounds the audit list, not recovery.
func (s *Session) maybeRemediate(d Detection) {
	eng := s.mgr.rem
	if eng == nil || d.Diagnosis == nil || d.Diagnosis.Conclusion != diagnosis.ConclusionIdentified {
		return
	}
	target := remediate.Target{
		Cloud:       s.mgr.cfg.Cloud,
		ASGName:     s.expect.ASGName,
		ELBName:     s.expect.ELBName,
		NewLCName:   s.expect.NewLCName,
		OldLCName:   s.expect.OldLCName,
		ClusterSize: s.expect.ClusterSize,
		Op:          s.remCtl,
	}
	for _, c := range d.Diagnosis.RootCauses {
		if !c.Confirmed {
			continue
		}
		eng.Trigger(context.Background(), remediate.Trigger{
			Operation:  s.id,
			CauseNode:  c.NodeID,
			CausePath:  c.Path,
			CauseEntry: c.EvidenceID,
			StepID:     d.StepID,
			Flight:     s.flight,
			Target:     target,
		})
	}
}

// SessionSummary is the serializable view of a session (GET /operations).
type SessionSummary struct {
	ID         string       `json:"id"`
	State      SessionState `json:"state"`
	Expect     Expectation  `json:"expect"`
	Instances  []string     `json:"instances,omitempty"`
	Detections int          `json:"detections"`
	Pending    int          `json:"pending"`
	Degraded   bool         `json:"degraded,omitempty"`
}

// Summary snapshots the session for serving surfaces.
func (s *Session) Summary() SessionSummary {
	s.mu.Lock()
	instances := make([]string, 0, len(s.instances))
	for id := range s.instances {
		instances = append(instances, id)
	}
	n := len(s.detections)
	state := s.state
	s.mu.Unlock()
	return SessionSummary{
		ID:         s.id,
		State:      state,
		Expect:     s.expect,
		Instances:  instances,
		Detections: n,
		Pending:    s.Pending(),
		Degraded:   s.degradedNow(),
	}
}
