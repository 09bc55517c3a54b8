package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/assertspec"
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

	// paramsOnce builds params, the expectation's assertion parameters,
	// on first use; every binding and diagnosis request reads the one map
	// and none writes it.
	paramsOnce sync.Once
	params     assertion.Params

	maxDetections int
	matchAny      bool
	matchASG      bool
	// remCtl steers the operation itself during remediation (retry step,
	// abort); nil when the harness attached none. Immutable after Watch.
	remCtl remediate.OperationController
	// remRev counts the operation's remediation-ledger writes; nil when
	// remediation is off. Immutable after Watch.
	remRev *remediate.OpRevision

	pending atomic.Int64 // queued + in-flight work items for this session
	// rev counts writes to the snapshot-carried state below and to the
	// checker (see Revision). Each write bumps it inside the critical
	// section that makes it; the checker, which locks on its own, is
	// bumped after CheckLossy returns.
	rev atomic.Uint64

	// ended is set, under mu, when the session stops accepting events;
	// the per-line path reads it without the lock.
	ended atomic.Bool

	mu      sync.Mutex
	endedAt time.Time
	// instances holds one record per process instance the session has
	// touched: routed, bound, completed, or merely named by a handler call.
	instances  map[string]*instance
	detections []Detection
	seen       map[string]int  // diagnosis attempts per dedup key
	identified map[string]bool // keys whose diagnosis already identified a cause
	// flightGap is the latest stream-gap evidence entry; degraded
	// detections cite it as a contributing parent.
	flightGap uint64
	// gapSeen is the latest manager gap epoch folded into degradedUntil
	// and flightGap (observeGap). Written under mu; read without it on
	// the per-line fast path.
	gapSeen atomic.Uint64
	// degradedUntil marks the end of the degraded hold: after a sequence
	// gap on the shipping fabric, the session cannot trust the absence of
	// a log line until this (simulated) time passes. Conformance switches
	// to lossy mode and detections carry a confidence discount.
	degradedUntil time.Time
}

// instance is the session's context for one process instance (§III.B):
// its place in the routing, its relaunch progress, its armed timers and
// the evidence anchor of its latest line. Fields are guarded by the
// session's mu.
type instance struct {
	routed    bool // routed to this session (explicitly bound or adopted)
	bound     bool // explicitly bound
	completed bool // its process reached an end state
	// progress and total are the relaunch counters; the has flags tell a
	// counter never reported apart from a reported 0.
	progress, total       int
	hasProgress, hasTotal bool
	stepCancel            func() // nil when no step timer is armed
	perioCancel           func() // nil when no periodic timer is armed
	// lastEntry is the latest log-event evidence entry, the causal anchor
	// for assertions and detections triggered by that line; 0 before the
	// first.
	lastEntry uint64
	// logAttrs is the {"instance": id} attrs map every log.event entry of
	// the instance shares (recordLogEvent), and reorderAttrs the ones its
	// held and gap-before lines share, carrying the stamp; read-only once
	// made.
	logAttrs     map[string]string
	reorderAttrs [2]map[string]string
	// verdicts holds what every published verdict event of one (step,
	// verdict, activity) shares: its read-only Fields map and its message
	// (publishConformance).
	verdicts map[verdictKey]verdictPub
}

// instance returns the record of an instance, creating it on first use;
// s.mu must be held.
func (s *Session) instance(id string) *instance {
	in := s.instances[id]
	if in == nil {
		in = &instance{}
		s.instances[id] = in
	}
	return in
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
	if s.ended.Load() {
		return SessionEnded
	}
	return SessionActive
}

// Pending reports this session's queued plus in-flight work items.
func (s *Session) Pending() int { return int(s.pending.Load()) }

// Revision returns a counter that changes whenever anything the
// session's SessionSnapshot carries may have changed through the
// session: the sum of three monotonic counts — the session's own
// writes, its flight ring's writes and its remediation ledger's
// revision. A gap the session has not observed yet is folded in first,
// as an export would fold it.
//
// Every counter is bumped inside or after the write it counts, never
// before. So read the revision before exporting: a write that races the
// export either lands in it or moves the next revision, and an export
// whose revision read still equals the current one is still current.
func (s *Session) Revision() uint64 {
	s.observeGap()
	return s.rev.Load() + s.flight.Writes() + s.remRev.Load()
}

// Instances returns the process instance ids routed to this session,
// sorted.
func (s *Session) Instances() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.routedLocked()
}

// routedLocked lists the routed instance ids, sorted; s.mu must be held.
func (s *Session) routedLocked() []string {
	out := make([]string, 0, len(s.instances))
	for id, in := range s.instances {
		if in.routed {
			out = append(out, id)
		}
	}
	sort.Strings(out)
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
// window. End is idempotent. A gap declared while the session was active
// is folded in first, so an ended session's Degraded answer covers it.
func (s *Session) End() {
	s.observeGap()
	s.mu.Lock()
	if s.ended.Load() {
		s.mu.Unlock()
		return
	}
	s.ended.Store(true)
	s.endedAt = s.mgr.clk.Now()
	s.rev.Add(1)
	var cancels []func()
	for _, in := range s.instances {
		cancels = in.takeTimers(cancels)
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	s.mgr.sessionEnded()
}

// observeGap folds a gap the manager declared since the session last
// looked into the session: the degraded hold runs to the gap's time plus
// DegradedHold, and one stream.gap evidence entry, stamped at the gap's
// time, becomes the entry degraded detections cite. k gaps between two
// reads fold into one entry for the latest, whose time is the largest, so
// the hold is what a broadcast of every gap would have left. Ended
// sessions observe nothing. It runs on every routed line and returns
// without locking unless a gap is pending.
func (s *Session) observeGap() {
	if s.mgr.gap.Load().epoch <= s.gapSeen.Load() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.mgr.gap.Load()
	if g.epoch <= s.gapSeen.Load() || s.ended.Load() {
		return
	}
	s.gapSeen.Store(g.epoch)
	if until := g.at.Add(s.mgr.cfg.DegradedHold); until.After(s.degradedUntil) {
		s.degradedUntil = until
	}
	if id := s.flight.Record(flight.Entry{
		Kind: flight.KindStreamGap, At: g.at,
		Message: "sequence gap on the shipping fabric; degraded hold armed",
	}); id != 0 {
		s.flightGap = id
	}
	s.rev.Add(1)
}

// lastEntryOf returns the instance's latest log-event evidence entry.
func (s *Session) lastEntryOf(instanceID string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if in := s.instances[instanceID]; in != nil {
		return in.lastEntry
	}
	return 0
}

// takeTimers appends the instance's armed timer cancels to cancels and
// disarms them; s.mu must be held. The caller runs the cancels after
// unlocking.
func (in *instance) takeTimers(cancels []func()) []func() {
	if in.stepCancel != nil {
		cancels = append(cancels, in.stepCancel)
	}
	if in.perioCancel != nil {
		cancels = append(cancels, in.perioCancel)
	}
	in.stepCancel, in.perioCancel = nil, nil
	return cancels
}

// Timeline snapshots the session's evidence chain, optionally filtered
// by entry kind. Empty (with no entries, never nil) when the manager's
// flight recorder is disabled.
func (s *Session) Timeline(kinds ...flight.Kind) flight.Timeline {
	return s.mgr.flight.Timeline(s.id, kinds...)
}

// degradedNow reports whether the session is inside a degraded hold,
// first folding in any gap it has not observed yet.
func (s *Session) degradedNow() bool {
	s.observeGap()
	now := s.mgr.clk.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	return now.Before(s.degradedUntil)
}

// Degraded reports whether the session currently distrusts its log stream.
func (s *Session) Degraded() bool { return s.degradedNow() }

// adopts reports whether the session may claim instances nobody bound to
// it (MatchAnyInstance or MatchASGInstances). Immutable after Watch.
func (s *Session) adopts() bool { return s.matchAny || s.matchASG }

// adopt records that an instance id has been routed to this session.
func (s *Session) adopt(instanceID string, explicit bool) {
	s.mu.Lock()
	in := s.instance(instanceID)
	in.routed = true
	in.bound = in.bound || explicit
	s.rev.Add(1)
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

// expectParams returns the expectation's assertion parameters: one
// read-only map per session.
func (s *Session) expectParams() assertion.Params {
	s.paramsOnce.Do(func() { s.params = s.expect.params() })
	return s.params
}

// baseParams assembles the expectation parameters plus per-event context.
// The result is read-only: a line without an instance id shares the
// session's map.
func (s *Session) baseParams(ev logging.Event) assertion.Params {
	p := s.expectParams()
	if id := ev.Field("instanceid"); id != "" {
		return p.Merge(assertion.Params{assertion.ParamInstance: id})
	}
	return p
}

// ---- pipeline.Handler ----

// OnConformance replays the line on the session's private conformance
// context and publishes the verdict. It runs for every routed line and may
// not allocate on its own account (the evidence entry and the verdict
// event are recordLogEvent's and publishConformance's); a verdict
// that is not fit leaves the per-line path for onAnomaly. It takes s.mu
// twice: once to anchor the line and read the degraded hold, once to
// resolve the verdict's shared fields.
func (s *Session) OnConformance(instanceID, line string, ev logging.Event) {
	if s.ended.Load() {
		return
	}
	// A gap declared before this line was delivered goes into the
	// timeline ahead of it.
	s.observeGap()
	now := s.mgr.clk.Now()
	s.mu.Lock()
	in := s.instance(instanceID)
	// Every routed line anchors the evidence timeline — even when
	// conformance checking is ablated — because detections and causes
	// must chain back to a raw log event.
	evEntry := s.recordLogEvent(instanceID, in, ev)
	degraded := now.Before(s.degradedUntil)
	s.mu.Unlock()
	if s.mgr.cfg.DisableConformance {
		return
	}
	// In degraded mode the checker absorbs forward deviations by
	// resynchronizing the token replay at the next recognized step — a
	// missing line must not masquerade as a wrong-path operation.
	res := s.checker.CheckLossy(instanceID, line, ev.Timestamp, degraded)
	s.rev.Add(1)
	s.publishConformance(instanceID, in, res, ev)
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
		Parents: flight.Parents(evEntry),
		Message: res.Summary(),
		Attrs:   s.mgr.attrs.Get("verdict", string(res.Verdict), "step", stepID, "degraded", strconv.FormatBool(degraded)),
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

// recordLogEvent anchors one routed line in the evidence timeline and
// remembers it as the instance's latest entry, the parent for whatever
// that line triggers. Entries of one instance share one attrs map; a
// line the reorder buffer stamped gets its own, carrying the stamp.
// s.mu must be held.
func (s *Session) recordLogEvent(instanceID string, in *instance, ev logging.Event) uint64 {
	if s.flight == nil {
		return 0
	}
	e := flight.Entry{
		Kind:    flight.KindLogEvent,
		At:      ev.Timestamp,
		Seq:     ev.Seq,
		Cause:   ev.CauseID,
		Message: ev.Message,
	}
	switch rep := ev.Field("reorder"); rep {
	case "":
		if in.logAttrs == nil {
			in.logAttrs = map[string]string{"instance": instanceID}
		}
		e.Attrs = in.logAttrs
	case logging.ReorderHeld, logging.ReorderGapBefore:
		i := 0
		if rep == logging.ReorderGapBefore {
			i = 1
		}
		if in.reorderAttrs[i] == nil {
			in.reorderAttrs[i] = map[string]string{"instance": instanceID, "reorder": rep}
		}
		e.Attrs = in.reorderAttrs[i]
	default:
		e.Attrs = map[string]string{"instance": instanceID, "reorder": rep}
	}
	in.lastEntry = s.flight.Record(e)
	s.rev.Add(1)
	return in.lastEntry
}

// verdictKey names the verdict events of one instance that share one
// Fields map and one message.
type verdictKey struct {
	step, activity string
	verdict        conformance.Verdict
}

// verdictPub is what the verdict events of one verdictKey share.
type verdictPub struct {
	fields  map[string]string
	message string
}

// verdictTags are the tag slices of published verdict events, one per
// verdict and shared by every event that carries it. Full to capacity, so
// a subscriber appending a tag gets its own copy.
var verdictTags = map[conformance.Verdict][]string{
	conformance.VerdictFit:          {conformance.VerdictFit.Tag()},
	conformance.VerdictUnfit:        {conformance.VerdictUnfit.Tag()},
	conformance.VerdictError:        {conformance.VerdictError.Tag()},
	conformance.VerdictUnclassified: {conformance.VerdictUnclassified.Tag()},
}

// publishConformance logs the verdict to the bus (merged into central
// storage like the paper's conformance service results). It runs once per
// routed line and allocates only on an instance's first verdict of each
// (step, verdict, activity): the tags are shared per verdict, and the
// Fields map and the message per (instance, step, verdict, activity).
// All are read-only once published. The bus publish runs outside s.mu,
// so the session lock never nests the bus's.
func (s *Session) publishConformance(instanceID string, in *instance, res conformance.Result, ev logging.Event) {
	key := verdictKey{res.StepID, res.ActivityID, res.Verdict}
	s.mu.Lock()
	pub, ok := in.verdicts[key]
	if !ok {
		if in.verdicts == nil {
			in.verdicts = make(map[verdictKey]verdictPub)
		}
		verdict := string(res.Verdict)
		pub = verdictPub{
			fields: map[string]string{
				"taskid":  instanceID,
				"stepid":  res.StepID,
				"verdict": verdict,
			},
			message: "[conformance] [" + instanceID + "] [" + res.StepID + "] verdict=" + verdict +
				" activity=" + res.ActivityID,
		}
		in.verdicts[key] = pub
	}
	s.mu.Unlock()
	s.mgr.cfg.Bus.Publish(logging.Event{
		Timestamp:  ev.Timestamp,
		Source:     "conformance.log",
		SourceHost: "pod-conformance",
		Type:       logging.TypeConformance,
		Tags:       verdictTags[res.Verdict],
		Fields:     pub.fields,
		Message:    pub.message,
	})
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
	parents := flight.Parents(parent)
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
		Attrs: s.mgr.attrs.Get("source", string(src), "trigger", triggerID, "step", stepID,
			"degraded", strconv.FormatBool(degraded)),
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
// evaluates post-step assertions. Its bookkeeping is one critical section;
// arming a new step timer, with assertions on, takes a second.
func (s *Session) OnStepEvent(instanceID string, node *process.Node, ev logging.Event) {
	if s.ended.Load() {
		return
	}
	// Track operation progress from any line the annotator extracted
	// "k of n" counters from (relaunches done, instances in service, ...).
	num, hasNum := intField(ev, "num")
	total, hasTotal := intField(ev, "total")
	s.mu.Lock()
	in := s.instance(instanceID)
	if hasNum {
		in.progress, in.hasProgress = num, true
	}
	if hasTotal {
		in.total, in.hasTotal = total, true
	}
	if hasNum || hasTotal {
		s.rev.Add(1)
	}
	stale := in.stepCancel
	in.stepCancel = nil
	rec := *in
	s.mu.Unlock()
	if stale != nil {
		stale()
	}
	if s.mgr.cfg.DisableAssertions {
		return
	}
	// A completed process has no next step, so its lines arm no timer.
	if node.ID != process.NodeCompleted && !rec.completed {
		s.armStepTimer(instanceID, in, node, rec)
	}
	trig := assertion.Trigger{
		Source:            assertion.TriggerLog,
		ProcessInstanceID: instanceID,
		StepID:            node.StepID,
	}
	// The step line was anchored by OnConformance just before this
	// handler ran; it is the causal parent of every post-step assertion.
	anchor := rec.lastEntry
	origin := ev.Timestamp
	for _, b := range s.stepBindings(node, rec, ev) {
		b := b
		s.submit(instanceID, func() { s.evaluateAndMaybeDiagnose(b.checkID, b.params, trig, anchor, origin) })
	}
}

// intField parses a numeric field the annotator extracted. Most lines
// carry none, and Atoi allocates its error, so an absent field is not
// parsed.
func intField(ev logging.Event, name string) (int, bool) {
	v := ev.Field(name)
	if v == "" {
		return 0, false
	}
	n, err := strconv.Atoi(v)
	return n, err == nil
}

// OnErrorLine is part of pipeline.Handler; known-error lines already
// surface through conformance and assertions, so it only forwards context.
func (s *Session) OnErrorLine(instanceID, line string, ev logging.Event) {}

// OnProcessStart arms the periodic capacity assertion (§III.B.1: "the
// timer setter uses the log line indicating the start of the operation
// process to start the periodic timer"). An instance whose process has
// already ended arms nothing: a straggler line after its final one must
// not restart the timers OnProcessEnd stopped.
func (s *Session) OnProcessStart(instanceID string, ev logging.Event) {
	if s.mgr.cfg.DisableAssertions || s.ended.Load() {
		return
	}
	s.mu.Lock()
	in := s.instance(instanceID)
	rec := *in
	s.mu.Unlock()
	if rec.completed {
		return
	}
	base := s.expectParams()
	vars := s.vars(rec, ev)
	trig := assertion.Trigger{
		Source:            assertion.TriggerTimer,
		ProcessInstanceID: instanceID,
	}
	cancels := make([]func(), 0, 1)
	for _, pb := range s.spec.Periodic() {
		params, ok := pb.Resolve(base, nil, vars)
		if !ok {
			continue
		}
		interval := pb.Every
		if d := s.mgr.cfg.PeriodicInterval; d > 0 {
			// A manager-level cadence overrides the spec's, so experiments
			// can tune it without editing the spec.
			interval = d
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
	s.arm(in, &in.perioCancel, cancels)
}

// arm installs timers as one of the instance's timer slots (stepCancel or
// perioCancel), cancelling whatever the slot held. A session that ended,
// or an instance that completed, since the caller looked gets no timers:
// the new ones are cancelled instead. Cancels run outside s.mu.
func (s *Session) arm(in *instance, slot *func(), cancels []func()) {
	if len(cancels) == 0 {
		return
	}
	all := func() {
		for _, c := range cancels {
			c()
		}
	}
	s.mu.Lock()
	drop := all
	if !s.ended.Load() && !in.completed {
		drop, *slot = *slot, all
	}
	s.mu.Unlock()
	if drop != nil {
		drop()
	}
}

// OnProcessEnd stops the instance's timers; when every explicitly bound
// instance of a bind-only session has completed, the session auto-ends.
func (s *Session) OnProcessEnd(instanceID string, ev logging.Event) {
	s.mu.Lock()
	in := s.instance(instanceID)
	cancels := in.takeTimers(nil)
	in.completed = true
	s.rev.Add(1)
	autoEnd := !s.adopts() && !s.ended.Load()
	anyBound := false
	for _, r := range s.instances {
		if r.bound {
			anyBound = true
			autoEnd = autoEnd && r.completed
		}
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	if autoEnd && anyBound {
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
// the process: cluster-level targets, the relaunch counters of rec (a copy
// of the instance's record taken under s.mu) and the event's extracted
// context.
func (s *Session) vars(rec instance, ev logging.Event) map[string]string {
	next := rec.progress + 1
	if rec.hasTotal && next > rec.total {
		next = rec.total
	}
	v := map[string]string{
		"n":        strconv.Itoa(s.expect.ClusterSize),
		"min":      strconv.Itoa(s.expect.MinInService),
		"progress": strconv.Itoa(rec.progress),
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
func (s *Session) stepBindings(node *process.Node, rec instance, ev logging.Event) []binding {
	specBindings := s.spec.ByStep(node.StepID)
	if len(specBindings) == 0 {
		return nil
	}
	// The line's instance id goes in over the session's shared
	// expectation parameters; each binding's map is built once, from both.
	var line assertion.Params
	if id := ev.Field("instanceid"); id != "" {
		line = assertion.Params{assertion.ParamInstance: id}
	}
	base := s.expectParams()
	vars := s.vars(rec, ev)
	out := make([]binding, 0, len(specBindings))
	for _, sb := range specBindings {
		params, ok := sb.Resolve(base, line, vars)
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
	res := s.mgr.evaluator.Evaluate(context.Background(), checkID, p, trig)
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
		Parents: flight.Parents(anchor),
		Message: res.Message,
		Attrs:   s.mgr.attrs.Get("check", checkID, "trigger", string(trig.Source), "status", res.Status.String()),
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

// armStepTimer arms the instance's one-off step timer, sized from the
// step's historical duration: if the next step's log line does not arrive
// in time, the high-level version-count assertion is evaluated with the
// next expected progress (a purely timer-based trigger, which carries no
// instance id — §VI.A). rec is the record as OnStepEvent left it.
func (s *Session) armStepTimer(instanceID string, in *instance, node *process.Node, rec instance) {
	timeouts := s.spec.TimeoutsFor(node.StepID)
	if len(timeouts) == 0 {
		return
	}
	mean := node.MeanDuration
	if mean <= 0 {
		mean = 30 * time.Second
	}
	deadline := time.Duration(float64(mean) * s.mgr.cfg.StepTimeoutSlack)
	base := s.expectParams()
	vars := s.vars(rec, logging.Event{})
	trig := assertion.Trigger{
		Source:            assertion.TriggerTimer,
		ProcessInstanceID: instanceID,
		// No step id: the timer fires between steps (weak context).
	}
	// Timer detections chain back to the step line that armed the
	// deadline — the last line seen before the silence being detected.
	anchor := rec.lastEntry
	cancels := make([]func(), 0, len(timeouts))
	for _, tb := range timeouts {
		params, ok := tb.Resolve(base, nil, vars)
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
	s.arm(in, &in.stepCancel, cancels)
}

// ---- bookkeeping ----

func (s *Session) progressOf(instanceID string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if in := s.instances[instanceID]; in != nil {
		return in.progress
	}
	return 0
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
	s.rev.Add(1)
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
	s.rev.Add(1)
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
	instances := s.routedLocked()
	n := len(s.detections)
	s.mu.Unlock()
	return SessionSummary{
		ID:         s.id,
		State:      s.State(),
		Expect:     s.expect,
		Instances:  instances,
		Detections: n,
		Pending:    s.Pending(),
		Degraded:   s.degradedNow(),
	}
}
