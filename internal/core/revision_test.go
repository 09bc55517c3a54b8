package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/obs/flight"
	"poddiagnosis/internal/process"
	"poddiagnosis/internal/remediate"
)

// TestRevisionMovesWithEveryWrite runs each writer of snapshot-carried
// state on its own and demands that it changed the snapshot and moved
// Revision. Writers of state under the session lock must also move the
// session's own counter: the flight ring's count moving beside it would
// not cover a renewal that reads the revision after the ring write and
// exports before the session write. The last two cases write only the
// ring and only the remediation ledger, as a diagnosis or a remediation
// outcome can.
func TestRevisionMovesWithEveryWrite(t *testing.T) {
	clk := newManualClock()
	ev := func(fields map[string]string) logging.Event {
		return logging.Event{Timestamp: clk.Now(), Type: logging.TypeOperation, Fields: fields, Message: "line"}
	}
	step := &process.Node{ID: "wait-new", StepID: "step6"}
	noFlight := func(c *ManagerConfig) { c.DisableFlight = true }
	remediation := func(c *ManagerConfig) { c.Remediation = remediate.Policy{Default: remediate.ModeDryRun} }
	cases := []struct {
		name  string
		cfg   func(*ManagerConfig)
		write func(*Manager, *Session)
		own   bool // the session's own counter must move
	}{
		{"adopt", nil, func(_ *Manager, s *Session) { s.adopt("t2", false) }, true},
		{"recordLogEvent", nil, func(_ *Manager, s *Session) {
			s.mu.Lock()
			s.recordLogEvent("t", s.instance("t"), ev(nil))
			s.mu.Unlock()
		}, true},
		// Without the recorder, the replay is the line's only write.
		{"CheckLossy", noFlight, func(_ *Manager, s *Session) {
			s.OnConformance("t", "Starting rolling upgrade of group rev--asg to image ami-new", ev(nil))
		}, true},
		{"progress", nil, func(_ *Manager, s *Session) { s.OnStepEvent("t", step, ev(map[string]string{"num": "1"})) }, true},
		{"total", nil, func(_ *Manager, s *Session) { s.OnStepEvent("t", step, ev(map[string]string{"total": "2"})) }, true},
		{"OnProcessEnd", nil, func(_ *Manager, s *Session) { s.OnProcessEnd("t", ev(nil)) }, true},
		{"End", nil, func(_ *Manager, s *Session) { s.End() }, true},
		{"observeGap", nil, func(m *Manager, _ *Session) { clk.Advance(time.Second); m.notifyGap() }, true},
		{"shouldDiagnose", nil, func(_ *Manager, s *Session) { s.shouldDiagnose("k") }, true},
		{"record", nil, func(_ *Manager, s *Session) { s.record(Detection{Message: "d"}, "k") }, true},
		{"flight ring", nil, func(m *Manager, _ *Session) {
			m.flight.Op("rev").Record(flight.Entry{Kind: flight.KindDiagnosis, Message: "walk"})
		}, false},
		{"remediation ledger", remediation, func(m *Manager, _ *Session) {
			m.rem.Trigger(context.Background(), remediate.Trigger{Operation: "rev", CauseNode: "wrong-ami"})
		}, false},
	}
	export := func(m *Manager) []byte {
		snap, err := m.ExportSession("rev")
		if err != nil {
			t.Fatal(err)
		}
		snap.TakenAt = time.Time{}
		b, _ := json.Marshal(snap) // snapshots always encode
		return b
	}
	for _, tc := range cases {
		m := newGapManager(t, clk, tc.cfg)
		// MatchAny keeps OnProcessEnd from ending the session as well.
		s, err := m.Watch(Expectation{ASGName: "rev--asg", ClusterSize: 2},
			WithSessionID("rev"), BindInstance("t"), MatchAnyInstance())
		if err != nil {
			t.Fatal(err)
		}
		rev, own, before := s.Revision(), s.rev.Load(), export(m)
		tc.write(m, s)
		if bytes.Equal(export(m), before) {
			t.Errorf("%s: the write left the snapshot unchanged", tc.name)
		}
		if s.Revision() == rev {
			t.Errorf("%s: changed the snapshot without moving Revision", tc.name)
		}
		if tc.own && s.rev.Load() == own {
			t.Errorf("%s: changed session state without moving the session's own counter", tc.name)
		}
	}
}
