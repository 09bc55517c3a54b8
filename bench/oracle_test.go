package main

import (
	"strings"
	"testing"
	"time"

	"poddiagnosis/internal/core"
	"poddiagnosis/internal/diagnosis"
	"poddiagnosis/internal/obs/flight"
	"poddiagnosis/internal/remediate"
)

// Each oracle is handed a result corrupted by hand and must refuse it.

func TestStreamOracle(t *testing.T) {
	good := streamCounts{verdicts: 2100}
	for _, tc := range []struct {
		name   string
		counts streamCounts
		lossy  bool
		failed int
	}{
		{"clean round", good, false, 0},
		{"dropped verdict", streamCounts{verdicts: 2099}, false, 1},
		{"duplicate verdict", streamCounts{verdicts: 2101, dups: 1}, false, 2},
		{"duplicate verdict on a lossy stream", streamCounts{verdicts: 1900, dups: 1}, true, 1},
		{"lossy streams may answer fewer lines", streamCounts{verdicts: 1900, unfit: 3}, true, 0},
		{"bus drop", streamCounts{verdicts: 2100, busDropped: 4}, false, 4},
		{"unfit line of a clean trace", streamCounts{verdicts: 2100, unfit: 1}, false, 1},
		{"verdict for a line nobody sent", streamCounts{verdicts: 2100, strays: 1}, false, 1},
	} {
		var s roundSample
		checkStream(&s, 0, 2100, tc.counts, tc.lossy)
		if s.failed != tc.failed {
			t.Errorf("%s: %d failed, want %d (%v)", tc.name, s.failed, tc.failed, s.notes)
		}
	}
}

func TestSessionOracle(t *testing.T) {
	fullConfidence := []core.Detection{{TriggerID: "conformance:unfit"}}
	degraded := []core.Detection{{TriggerID: "conformance:unfit", Degraded: true}}
	for _, tc := range []struct {
		name   string
		state  core.SessionState
		dets   []core.Detection
		lossy  bool
		failed int
	}{
		{"clean session ended", core.SessionEnded, nil, false, 0},
		{"clean session still active", core.SessionActive, nil, false, 1},
		{"detection on a clean trace", core.SessionEnded, degraded, false, 1},
		{"lossy session need not end", core.SessionActive, degraded, true, 0},
		{"full-confidence detection out of a lossy stream", core.SessionActive, fullConfidence, true, 1},
	} {
		var s roundSample
		checkSession(&s, 0, "op", tc.state, tc.dets, tc.lossy)
		if s.failed != tc.failed {
			t.Errorf("%s: %d failed, want %d (%v)", tc.name, s.failed, tc.failed, s.notes)
		}
	}
}

func TestStormOracle(t *testing.T) {
	at := time.Unix(100, 0)
	timeline := []flight.Entry{
		{ID: 1, Kind: flight.KindLogEvent},
		{ID: 2, Kind: flight.KindDetection, Parents: []uint64{1}},
		{ID: 3, Kind: flight.KindRemediationOutcome, Parents: []uint64{2}},
		{ID: 4, Kind: flight.KindRemediationOutcome}, // chained to nothing
	}
	det := func(cause string) []core.Detection {
		return []core.Detection{{Diagnosis: &diagnosis.Diagnosis{
			Conclusion: diagnosis.ConclusionIdentified,
			RootCauses: []diagnosis.Cause{{NodeID: cause, Confirmed: true}},
		}}}
	}
	rem := func(action string, state remediate.State, cause string, outcome uint64) remediate.Remediation {
		return remediate.Remediation{Action: action, State: state, CauseNode: cause, OutcomeEntry: outcome, ResolvedAt: at}
	}
	good := []remediate.Remediation{
		rem("rollback-launch-config", remediate.StateDryRun, "wrong-ami", 3),
		rem("replace-instance", remediate.StateDryRun, "wrong-ami-lc1", 3),
	}
	if got, err := checkStormOp(det("wrong-ami"), good, timeline, 2); err != nil || !got.Equal(at) {
		t.Fatalf("a correct result was refused: %v (resolved %v)", err, got)
	}
	for _, tc := range []struct {
		name string
		dets []core.Detection
		rems []remediate.Remediation
		want string
	}{
		{"wrong cause", det("wrong-keypair"), good, "did not confirm"},
		{"no detection", nil, good, "0 detections"},
		{"two detections", append(det("wrong-ami"), det("wrong-ami")...), good, "2 detections"},
		{"missing remediation", det("wrong-ami"), good[:1], "1 remediations"},
		{"same action twice", det("wrong-ami"), []remediate.Remediation{good[0], good[0]}, "fired twice"},
		{"executed instead of dry-run", det("wrong-ami"), []remediate.Remediation{good[0], rem("replace-instance", remediate.StateExecuted, "wrong-ami", 3)}, "want dry-run"},
		{"bound to another cause", det("wrong-ami"), []remediate.Remediation{good[0], rem("replace-instance", remediate.StateDryRun, "lc-changed", 3)}, "bound to"},
		{"broken evidence chain", det("wrong-ami"), []remediate.Remediation{good[0], rem("replace-instance", remediate.StateDryRun, "wrong-ami", 4)}, "evidence chain"},
	} {
		_, err := checkStormOp(tc.dets, tc.rems, timeline, 2)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestOwnershipOracle(t *testing.T) {
	routed := map[string]string{"op-1": "fed-a", "op-2": "fed-b"}
	if bad := ownershipFaults(routed, map[string][]string{"op-1": {"fed-a"}, "op-2": {"fed-b"}}); len(bad) != 0 {
		t.Fatalf("a correct placement was refused: %v", bad)
	}
	for _, tc := range []struct {
		name    string
		holders map[string][]string
		want    string
	}{
		{"two owners", map[string][]string{"op-1": {"fed-a", "fed-c"}, "op-2": {"fed-b"}}, "has 2 owners"},
		{"no owner", map[string][]string{"op-1": {"fed-a"}}, "no live member"},
		{"held by a member the front does not route to", map[string][]string{"op-1": {"fed-c"}, "op-2": {"fed-b"}}, "front routes to"},
	} {
		bad := ownershipFaults(routed, tc.holders)
		if len(bad) != 1 || !strings.Contains(bad[0], tc.want) {
			t.Errorf("%s: got %v, want one fault containing %q", tc.name, bad, tc.want)
		}
	}
}
