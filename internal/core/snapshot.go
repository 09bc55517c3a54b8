package core

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"poddiagnosis/internal/conformance"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/obs/flight"
	"poddiagnosis/internal/remediate"
)

// SessionSnapshot is the portable state of one monitoring session:
// everything a federation handoff must carry so the adopting manager
// resumes the operation where the dying one left it — expectation,
// process position (conformance replay state), detections and their
// dedup/settlement maps, degraded state, the remediation ledger with
// its idempotency keys, and the flight-recorder evidence ring.
//
// TestSnapshotCoversSessionFields enforces completeness by reflection:
// adding a Session field without carrying it here (or explicitly
// excusing it) fails the build's tests, so handoff cannot silently
// lose state.
type SessionSnapshot struct {
	ID     string      `json:"id"`
	Expect Expectation `json:"expect"`
	// SpecText is the session's assertion-spec override; empty means
	// the adopting manager's default spec.
	SpecText      string `json:"specText,omitempty"`
	MaxDetections int    `json:"maxDetections,omitempty"`
	MatchAny      bool   `json:"matchAny,omitempty"`
	MatchASG      bool   `json:"matchAsg,omitempty"`

	State   SessionState `json:"state"`
	EndedAt time.Time    `json:"endedAt,omitempty"`
	// Bound are the explicitly bound instance ids; Instances every
	// instance routed to the session; Completed the instances whose
	// process reached an end state.
	Completed  []string          `json:"completed,omitempty"`
	Bound      []string          `json:"bound,omitempty"`
	Instances  []string          `json:"instances,omitempty"`
	Detections []Detection       `json:"detections,omitempty"`
	Seen       map[string]int    `json:"seen,omitempty"`
	Identified []string          `json:"identified,omitempty"`
	Progress   map[string]int    `json:"progress,omitempty"`
	Total      map[string]int    `json:"total,omitempty"`
	LastEntry  map[string]uint64 `json:"lastEntry,omitempty"`
	FlightGap  uint64            `json:"flightGap,omitempty"`
	// DegradedUntil is the degraded-hold deadline; restore extends it
	// past the handoff itself (the handoff is a known loss window).
	DegradedUntil time.Time `json:"degradedUntil,omitempty"`

	// Conformance is the per-instance token-replay state; Flight the
	// evidence ring; Remediations the audit ledger with idempotency
	// keys.
	Conformance  []conformance.InstanceSnapshot `json:"conformance,omitempty"`
	Flight       flight.Timeline                `json:"flight"`
	Remediations []remediate.Remediation        `json:"remediations,omitempty"`

	// TakenAt is the simulated time the snapshot was exported.
	TakenAt time.Time `json:"takenAt"`
	// FromMember / HandoffEpoch are stamped by the federation front
	// before a restore; they parameterize the handoff evidence entry
	// and the split-brain guard.
	FromMember   string `json:"fromMember,omitempty"`
	HandoffEpoch uint64 `json:"handoffEpoch,omitempty"`
}

// ExportSession snapshots the named session for handoff. The session
// keeps running; the snapshot is a consistent copy of each subsystem's
// state at export time.
func (m *Manager) ExportSession(id string) (*SessionSnapshot, error) {
	m.mu.Lock()
	s := m.sessions[id]
	m.mu.Unlock()
	if s == nil {
		return nil, fmt.Errorf("core: session %q not found", id)
	}
	return s.snapshot(), nil
}

// snapshot exports the session's full state. A gap the session has not
// observed yet is folded in first, so the snapshot carries its hold and
// evidence entry.
func (s *Session) snapshot() *SessionSnapshot {
	s.observeGap()
	snap := &SessionSnapshot{
		ID:            s.id,
		Expect:        s.expect,
		SpecText:      s.specText,
		MaxDetections: s.maxDetections,
		MatchAny:      s.matchAny,
		MatchASG:      s.matchASG,
		TakenAt:       s.mgr.clk.Now(),
	}
	s.mu.Lock()
	snap.State = s.State()
	snap.EndedAt = s.endedAt
	snap.Identified = sortedKeys(s.identified)
	snap.Detections = append([]Detection(nil), s.detections...)
	snap.Seen = copyIntMap(s.seen)
	ids := make([]string, 0, len(s.instances))
	for id := range s.instances {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		in := s.instances[id]
		if in.routed {
			snap.Instances = append(snap.Instances, id)
		}
		if in.bound {
			snap.Bound = append(snap.Bound, id)
		}
		if in.completed {
			snap.Completed = append(snap.Completed, id)
		}
		if in.hasProgress {
			snap.Progress = put(snap.Progress, id, in.progress)
		}
		if in.hasTotal {
			snap.Total = put(snap.Total, id, in.total)
		}
		if in.lastEntry != 0 {
			snap.LastEntry = put(snap.LastEntry, id, in.lastEntry)
		}
	}
	snap.FlightGap = s.flightGap
	snap.DegradedUntil = s.degradedUntil
	s.mu.Unlock()
	snap.Conformance = s.checker.Export()
	snap.Flight = s.mgr.flight.Timeline(s.id)
	if s.mgr.rem != nil {
		snap.Remediations = s.mgr.rem.Export(s.id)
	}
	return snap
}

// RestoreSession registers a session rebuilt from a snapshot — the
// adopting half of a federation handoff. The evidence ring is imported
// first and a federation.handoff entry is recorded whose parents are
// the restored instances' last log events, so post-handoff evidence
// chains walk through the handoff back to pre-handoff log lines.
// Active sessions re-enter a degraded hold (the handoff is a known
// loss window: lines between the last snapshot and the restore were
// never routed here) and re-arm their periodic capacity timers; step
// timers re-arm on the next step event. Only the
// WithRemediationController option is honored — everything else a
// Watch option could set travels in the snapshot; timer cadence and
// step slack are the adopting manager's.
func (m *Manager) RestoreSession(snap *SessionSnapshot, opts ...WatchOption) (*Session, error) {
	if snap == nil || snap.ID == "" {
		return nil, fmt.Errorf("core: nil or unnamed session snapshot")
	}
	var o watchOptions
	for _, opt := range opts {
		opt(&o)
	}
	s, err := m.newSession(snap.Expect, watchOptions{
		id: snap.ID, specText: snap.SpecText, maxDetections: snap.MaxDetections,
		matchAny: snap.MatchAny, matchASG: snap.MatchASG, remCtl: o.remCtl,
	})
	if err != nil {
		return nil, fmt.Errorf("core: snapshot %q: %w", snap.ID, err)
	}
	// Refuse a duplicate before importing the evidence ring: the import
	// would overwrite the live session's ring, and the refusal would then
	// drop it from the recorder.
	if m.Session(snap.ID) != nil {
		return nil, fmt.Errorf("core: session %q already exists", snap.ID)
	}
	active := snap.State != SessionEnded
	s.ended.Store(!active)
	s.endedAt = snap.EndedAt
	s.detections = append([]Detection(nil), snap.Detections...)
	for k, n := range snap.Seen {
		s.seen[k] = n
	}
	for _, k := range snap.Identified {
		s.identified[k] = true
	}
	s.flightGap = snap.FlightGap
	s.degradedUntil = snap.DegradedUntil
	s.restoreInstances(snap)
	s.checker.Import(snap.Conformance)

	// Rebuild the evidence ring before the session becomes routable and
	// anchor the handoff in it: parents are the restored instances'
	// last log events, so chains span the handoff.
	s.flight = m.flight.Import(flight.Timeline{
		Operation: snap.ID,
		Entries:   snap.Flight.Entries,
		Dropped:   snap.Flight.Dropped,
	})
	handoffID := s.flight.Record(flight.Entry{
		Kind:    flight.KindHandoff,
		Parents: handoffParents(snap.LastEntry),
		Message: fmt.Sprintf("session %s restored from snapshot (%d detections, %d instances)",
			snap.ID, len(snap.Detections), len(snap.Instances)),
		Attrs: handoffAttrs(snap),
	})
	if active {
		// The handoff is a known loss window: lines published between the
		// snapshot and the restore never reached this manager. Distrust
		// the stream's completeness for a hold, and let degraded
		// detections cite the handoff entry as their gap evidence.
		hold := m.clk.Now().Add(m.cfg.DegradedHold)
		if hold.After(s.degradedUntil) {
			s.degradedUntil = hold
		}
		if handoffID != 0 {
			s.flightGap = handoffID
		}
	}

	m.mu.Lock()
	if _, dup := m.sessions[s.id]; dup {
		m.mu.Unlock()
		m.flight.Drop(s.id)
		return nil, fmt.Errorf("core: session %q already exists", s.id)
	}
	m.register(s)
	m.mu.Unlock()

	for _, id := range snap.Instances {
		m.bind(id, s, false) // the restored record already carries bound
	}
	if m.rem != nil && len(snap.Remediations) > 0 {
		x := s.expect
		m.rem.Import(snap.Remediations, remediate.Target{
			Cloud:       m.cfg.Cloud,
			ASGName:     x.ASGName,
			ELBName:     x.ELBName,
			NewLCName:   x.NewLCName,
			OldLCName:   x.OldLCName,
			ClusterSize: x.ClusterSize,
			Op:          s.remCtl,
		}, s.flight)
	}
	if active {
		// Re-arm the periodic capacity assertion for every instance still
		// mid-process (OnProcessStart skips completed ones); one-off step
		// timers re-arm on the next step line.
		for _, id := range snap.Instances {
			s.OnProcessStart(id, logging.Event{})
		}
		mSessions.With(string(SessionActive)).Inc()
	} else {
		mSessions.With(string(SessionEnded)).Inc()
	}
	return s, nil
}

// restoreInstances rebuilds the per-instance records from the snapshot's
// per-instance lists and maps, the inverse of snapshot's record loop. The
// session is not shared yet, so s.mu is not taken.
func (s *Session) restoreInstances(snap *SessionSnapshot) {
	for _, id := range snap.Instances {
		s.instance(id).routed = true
	}
	for _, id := range snap.Bound {
		s.instance(id).bound = true
	}
	for _, id := range snap.Completed {
		s.instance(id).completed = true
	}
	for id, n := range snap.Progress {
		in := s.instance(id)
		in.progress, in.hasProgress = n, true
	}
	for id, n := range snap.Total {
		in := s.instance(id)
		in.total, in.hasTotal = n, true
	}
	for id, e := range snap.LastEntry {
		s.instance(id).lastEntry = e
	}
}

// put sets m[k] = v, making m on first use, so a snapshot map stays nil
// (and omitted) when no instance fills it.
func put[V any](m map[string]V, k string, v V) map[string]V {
	if m == nil {
		m = make(map[string]V)
	}
	m[k] = v
	return m
}

// handoffParents collects the restored last-entry ids, sorted for a
// deterministic evidence entry.
func handoffParents(lastEntry map[string]uint64) []uint64 {
	if len(lastEntry) == 0 {
		return nil
	}
	out := make([]uint64, 0, len(lastEntry))
	for _, id := range lastEntry {
		if id != 0 {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func handoffAttrs(snap *SessionSnapshot) map[string]string {
	attrs := map[string]string{
		"detections": strconv.Itoa(len(snap.Detections)),
		"instances":  strconv.Itoa(len(snap.Instances)),
	}
	if snap.FromMember != "" {
		attrs["from"] = snap.FromMember
	}
	if snap.HandoffEpoch > 0 {
		attrs["epoch"] = strconv.FormatUint(snap.HandoffEpoch, 10)
	}
	return attrs
}

func sortedKeys(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func copyIntMap(in map[string]int) map[string]int {
	if len(in) == 0 {
		return nil
	}
	out := make(map[string]int, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

func defaultInt(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}
