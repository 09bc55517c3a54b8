package experiment

import (
	"context"
	"testing"
	"time"

	"poddiagnosis/internal/faultinject"
)

// bgChaosKinds is the representative fault set for the blue/green chaos
// gate: one configuration flip the green fleet boots from (wrong AMI →
// version-count mismatch at the join step) and the three resource
// deletions that strand the green launches entirely (diagnosed off the
// join-step timer). The remaining flips (key pair, security group,
// instance type) corrupt green launches without changing the version the
// spec asserts on, so the blue/green spec deliberately leaves them to
// the conformance/timeout layer rather than pretending coverage.
func bgChaosKinds() []faultinject.Kind {
	return []faultinject.Kind{
		faultinject.KindAMIChanged,
		faultinject.KindAMIUnavailable,
		faultinject.KindKeyPairUnavailable,
		faultinject.KindSGUnavailable,
	}
}

// TestChaosBlueGreenFaultsStillDiagnosed extends the chaos acceptance
// gate to the blue/green scenario: with the log pipeline lossy and API
// reads stormed, faults injected against the green resources must still
// be detected and identified through the declarative scenario plans,
// with unbroken cause→log evidence chains and growing SLO histograms.
func TestChaosBlueGreenFaultsStillDiagnosed(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos acceptance campaign is slow")
	}
	for i, kind := range bgChaosKinds() {
		spec := RunSpec{
			ID: 300 + i, Fault: kind, ClusterSize: 2,
			Seed:        int64(300 + 11*i),
			InjectDelay: time.Second,
		}
		t.Run(kind.String(), func(t *testing.T) {
			var detBefore, diagBefore uint64
			res := retryUninformative(t, func() (*RunResult, error) {
				detBefore, diagBefore = sloCounts()
				return RunOne(context.Background(), BlueGreen, spec, chaosCfg())
			}, noSoundConfirmation("the injected cause"))
			if !res.FaultDetected {
				t.Fatalf("fault undetected under chaos; detections: %+v", res.Detections)
			}
			if !res.FaultDiagnosed {
				t.Errorf("fault detected but root cause not identified under chaos; detections: %+v", res.Detections)
			}
			assertChaosDiagnosis(t, res, detBefore, diagBefore)
			if res.FaultDiagnosed && res.ConfirmedCauseChains == 0 {
				t.Errorf("fault diagnosed but no confirmed-cause evidence chain reaches a log event")
			}
		})
	}
}

// TestChaosSpotStormStillDiagnosed runs the spot-interruption storm under
// the acceptance chaos regime: the capacity drop must still be pinned on
// the external terminations through the audit trail, not degraded into a
// confident wrong cause by the lossy pipeline.
func TestChaosSpotStormStillDiagnosed(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos acceptance campaign is slow")
	}
	// A storm that reclaimed its instances outside the watch window leaves
	// nothing to diagnose; such a run is retried.
	var detBefore, diagBefore uint64
	res := retryUninformative(t, func() (*RunResult, error) {
		detBefore, diagBefore = sloCounts()
		return RunOne(context.Background(), SpotStorm, RunSpec{
			ID: 320, ClusterSize: 3, Seed: 331, InjectDelay: 15 * time.Second,
		}, chaosCfg())
	}, noSoundConfirmation("the storm"))
	if !res.FaultDetected {
		t.Fatalf("storm undetected under chaos; detections: %+v", res.Detections)
	}
	if !res.FaultDiagnosed {
		t.Errorf("storm not diagnosed as unexpected-termination under chaos; detections: %+v", res.Detections)
	}
	assertChaosDiagnosis(t, res, detBefore, diagBefore)
}
