package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"poddiagnosis/internal/faultinject"
	"poddiagnosis/internal/obs/flight"
)

// TestSnapshotCoversSessionFields walks Session's fields, and those of
// its per-instance record, by reflection and demands each one is either
// carried by SessionSnapshot or listed here with a reason it deliberately
// is not. Adding a field to either without deciding its handoff fate
// fails this test, so federation handoff cannot silently lose new state.
func TestSnapshotCoversSessionFields(t *testing.T) {
	session := coverage{
		carried: map[string]string{ // Session field -> SessionSnapshot field
			"id":            "ID",
			"expect":        "Expect",
			"specText":      "SpecText",
			"checker":       "Conformance",
			"flight":        "Flight",
			"maxDetections": "MaxDetections",
			"matchAny":      "MatchAny",
			"matchASG":      "MatchASG",
			"ended":         "State",
			"endedAt":       "EndedAt",
			"instances":     "Instances",
			"detections":    "Detections",
			"seen":          "Seen",
			"identified":    "Identified",
			"flightGap":     "FlightGap",
			"degradedUntil": "DegradedUntil",
		},
		excluded: map[string]string{ // Session field -> why handoff may drop it
			"mgr":        "rewired to the adopting manager by RestoreSession",
			"spec":       "re-parsed from SpecText against the adopting registry",
			"remCtl":     "not serializable; re-attached via WithRemediationController",
			"pending":    "transient backlog counter; work does not survive the owner",
			"rev":        "manager-local mutation counter: the adopter starts its own; only the delta agent reads it",
			"remRev":     "the adopting manager's remediation engine counts the imported ledger's writes",
			"mu":         "lock",
			"gapSeen":    "manager-local epoch: export folds pending gaps, restore starts at the adopter's epoch",
			"paramsOnce": "guards params",
			"params":     "derived cache of the read-only Expect parameters; the adopter rebuilds it on first use",
		},
	}
	record := coverage{
		carried: map[string]string{ // instance field -> SessionSnapshot field
			"routed":      "Instances",
			"bound":       "Bound",
			"completed":   "Completed",
			"progress":    "Progress",
			"hasProgress": "Progress",
			"total":       "Total",
			"hasTotal":    "Total",
			"lastEntry":   "LastEntry",
		},
		excluded: map[string]string{ // instance field -> why handoff may drop it
			"stepCancel":   "one-off step timers re-arm on the next step event",
			"perioCancel":  "periodic timers re-armed by RestoreSession",
			"logAttrs":     "derived cache of the read-only {instance: id} map; the adopter rebuilds it on the instance's first line",
			"reorderAttrs": "derived cache of the read-only {instance, reorder} maps; the adopter rebuilds each on the instance's first held or gap-before line",
			"verdicts":     "derived cache of read-only verdict Fields maps and messages; the adopter rebuilds one per (step, verdict, activity) on first use",
		},
	}
	session.check(t, reflect.TypeOf(Session{}))
	record.check(t, reflect.TypeOf(instance{}))
}

// coverage names, for each field of a struct, the SessionSnapshot field
// that carries it or the reason handoff may drop it.
type coverage struct{ carried, excluded map[string]string }

func (c coverage) check(t *testing.T, st reflect.Type) {
	t.Helper()
	snapT := reflect.TypeOf(SessionSnapshot{})
	for i := 0; i < st.NumField(); i++ {
		name := st.Field(i).Name
		if snapField, ok := c.carried[name]; ok {
			if _, ok := snapT.FieldByName(snapField); !ok {
				t.Errorf("%s.%s claims to be carried by SessionSnapshot.%s, which does not exist", st.Name(), name, snapField)
			}
			continue
		}
		if _, ok := c.excluded[name]; ok {
			continue
		}
		t.Errorf("%s.%s is neither carried by SessionSnapshot nor excluded with a reason; handoff would silently lose it", st.Name(), name)
	}
	for _, list := range []map[string]string{c.carried, c.excluded} {
		for name := range list {
			if _, ok := st.FieldByName(name); !ok {
				t.Errorf("coverage list names %s.%s, which no longer exists", st.Name(), name)
			}
		}
	}
}

// TestSnapshotRoundTrip runs a real faulted upgrade, exports the
// session, ships the snapshot through JSON (the REST handoff path),
// restores it onto a second manager and exports again: apart from the
// appended federation.handoff evidence entry and the export timestamp,
// the two snapshots must be byte-identical — the proof that no field
// decays in transit.
func TestSnapshotRoundTrip(t *testing.T) {
	r := newMultiRig(t, func(c *ManagerConfig) { c.FlightCapacity = 2048 })
	alpha := r.addOp(t, "alpha", 2)
	inj := faultinject.NewInjector(r.cloud, alpha.cluster, 7)
	defer inj.Heal()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// No delay: the flip strikes once the group runs the upgrade's
		// launch configuration, seconds before the first step-7 check; the
		// whole upgrade takes only a few simulated seconds, so any fixed
		// delay could land after it.
		_ = inj.Inject(r.ctx, faultinject.KindKeyPairChanged, 0, alpha.spec.NewLCName, alpha.newAMI)
	}()
	r.runAll(t, []*op{alpha})
	<-done
	r.mgr.Drain(r.ctx, 2*time.Minute)

	snap1, err := r.mgr.ExportSession("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap1.Detections) == 0 || len(snap1.Conformance) == 0 || len(snap1.Flight.Entries) == 0 {
		t.Fatalf("export carries too little state to prove anything: %d detections, %d instances, %d entries",
			len(snap1.Detections), len(snap1.Conformance), len(snap1.Flight.Entries))
	}

	raw, err := json.Marshal(snap1)
	if err != nil {
		t.Fatal(err)
	}
	var wire SessionSnapshot
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatal(err)
	}

	b, err := NewManager(ManagerConfig{Cloud: r.cloud, Bus: r.bus, FlightCapacity: 2048})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Stop)
	if _, err := b.RestoreSession(&wire); err != nil {
		t.Fatal(err)
	}
	snap2, err := b.ExportSession("alpha")
	if err != nil {
		t.Fatal(err)
	}
	n := len(snap2.Flight.Entries)
	if n == 0 || snap2.Flight.Entries[n-1].Kind != flight.KindHandoff {
		t.Fatalf("restored ring does not end with a federation.handoff entry")
	}
	snap2.Flight.Entries = snap2.Flight.Entries[:n-1]
	snap2.TakenAt = snap1.TakenAt

	j1, _ := json.Marshal(snap1)
	j2, _ := json.Marshal(snap2)
	if !bytes.Equal(j1, j2) {
		t.Errorf("snapshot decayed across export -> JSON -> restore -> export:\n first: %s\nsecond: %s", j1, j2)
	}
}

// TestRestoreDuplicateKeepsLiveRing: a snapshot restored onto a manager
// that already runs its session is refused before its evidence ring is
// imported, so the live session's ring is neither overwritten nor
// dropped from the recorder.
func TestRestoreDuplicateKeepsLiveRing(t *testing.T) {
	clk := newManualClock()
	m := newGapManager(t, clk, nil)
	s := watchGap(t, m, "dup")
	m.notifyGap()
	s.Degraded() // records the stream.gap entry
	snap, err := m.ExportSession("dup")
	if err != nil {
		t.Fatal(err)
	}
	snap.Flight.Entries = nil
	if _, err := m.RestoreSession(snap); err == nil {
		t.Fatal("restoring a running session succeeded")
	}
	if got := m.Flight().Timeline("dup").Entries; len(got) != 1 || got[0].Kind != flight.KindStreamGap {
		t.Errorf("live ring after the refused restore = %+v, want its one stream.gap entry", got)
	}
}
