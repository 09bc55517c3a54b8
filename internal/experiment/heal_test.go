package experiment

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"poddiagnosis/internal/faultinject"
	"poddiagnosis/internal/remediate"
)

// healKinds are the fault kinds the closed loop must fully heal: the four
// configuration faults flip the launch configuration under the upgrade,
// and the rollback + replace-instance + retry-failed-step chain restores
// the intended configuration and completes the task. The resource faults
// delete the upgrade's own resources; for those the rollback falls back
// to the pre-upgrade configuration, which by design does not complete the
// v2 upgrade — they stay out of the heal gate.
func healKinds() []faultinject.Kind {
	return []faultinject.Kind{
		faultinject.KindAMIChanged,
		faultinject.KindKeyPairChanged,
		faultinject.KindSGChanged,
		faultinject.KindInstanceTypeChanged,
	}
}

// onlyDegradedConfirmations reports whether every detection that
// confirmed any root cause did so on evidence the monitoring plane
// itself flagged Degraded (gaps declared while the diagnosis ran). A run
// with no confirmations at all is vacuously true.
func onlyDegradedConfirmations(res *RunResult) bool {
	for _, d := range res.Detections {
		if len(d.Causes) > 0 && !d.Degraded {
			return false
		}
	}
	return true
}

// executedCleanly reports whether the run executed at least one
// remediation and every executed one resolved without error.
func executedCleanly(res *RunResult) bool {
	executed := 0
	for _, r := range res.Remediations {
		if r.State != remediate.StateExecuted {
			continue
		}
		executed++
		if r.Error != "" {
			return false
		}
	}
	return executed > 0
}

// assertRemediationAudit is the closed-loop gates' audit verdict: a
// healed run executed at least one remediation, and every executed
// action's outcome chains through the confirmed cause back to a raw log
// event.
func assertRemediationAudit(t *testing.T, res *RunResult) {
	t.Helper()
	executed := 0
	for _, r := range res.Remediations {
		if r.State == remediate.StateExecuted {
			executed++
		}
	}
	if executed == 0 {
		t.Fatalf("healed with no executed remediation; audit: %+v", res.Remediations)
	}
	if res.BrokenRemediationChains != 0 {
		t.Errorf("%d executed remediation(s) with broken audit chains", res.BrokenRemediationChains)
	}
	if res.RemediationChains == 0 {
		t.Errorf("no remediation outcome chains to a log event")
	}
}

// TestChaosInjectedFaultsHealed is the heal acceptance gate (run by the
// CI chaos heal job with -race): under the acceptance chaos regime, every
// configuration fault must end with the operation healed — the upgrade
// task completed, the cluster converged onto the intended launch
// configuration, and every executed remediation's audit entry chaining
// through the flight recorder to the confirmed cause and down to a raw
// log event.
func TestChaosInjectedFaultsHealed(t *testing.T) {
	if testing.Short() {
		t.Skip("heal acceptance campaign is slow")
	}
	// Seeds are pinned per kind, like the chaos diagnosis gate's: each one
	// yields a run where the injected cause is confirmed (not merely a
	// plausible neighbor under degraded evidence) so the audit-cites-cause
	// assertion below is meaningful.
	seeds := []int64{500, 511, 522, 531}
	for i, kind := range healKinds() {
		spec := RunSpec{
			ID: 200 + i, Fault: kind, ClusterSize: 2,
			Seed:        seeds[i],
			InjectDelay: time.Second,
		}
		t.Run(kind.String(), func(t *testing.T) {
			// The pinned seeds guarantee a run where the injected cause is
			// confirmed on sound (non-degraded) evidence — but only when the
			// goroutines pacing the simulation get scheduled on time. Under
			// CPU oversubscription a run can instead end with the injected
			// cause never confirmed and nothing but degraded-evidence
			// conclusions to show: the flip landed after the instances it was
			// meant to corrupt had already launched (the run heals
			// trivially), or the starved diagnosis probes ran outside their
			// evidence windows and concluded nothing, or gaps declared during
			// the storm left only Degraded-flagged neighbor confirmations.
			// Such a run carries no information about the closed loop — the
			// plane itself marked its evidence untrustworthy — so it is
			// retried. The same goes for a run where the loop did everything
			// right — injected cause confirmed, every executed remediation
			// resolved clean — and the only failure is the simulated cloud
			// not delivering the relaunched replacements within the budget
			// while an API storm raged. A genuine detection or remediation
			// regression reproduces on every attempt and still fails the
			// gate; any other shape is judged as-is.
			res := retryUninformative(t, func() (*RunResult, error) {
				return RunOne(context.Background(), Heal, spec, chaosCfg())
			}, func(res *RunResult) string {
				noConfirmation := res.UpgradeErr == "" && !res.FaultDiagnosed &&
					onlyDegradedConfirmations(res)
				timedOut := strings.Contains(res.UpgradeErr, "timed out") ||
					strings.Contains(res.HealErr, "did not converge")
				starvedCloud := !res.Healed && timedOut && res.FaultDiagnosed && executedCleanly(res)
				if !noConfirmation && !starvedCloud {
					return ""
				}
				return fmt.Sprintf("uninformative run (healed=%v, faultDiagnosed=%v, %d detections, %d remediation records, healErr=%q)",
					res.Healed, res.FaultDiagnosed, len(res.Detections), len(res.Remediations), res.HealErr)
			})
			if !res.Healed {
				t.Fatalf("fault not healed: %s (upgradeErr=%q, remediations=%+v)",
					res.HealErr, res.UpgradeErr, res.Remediations)
			}
			if !res.FaultDiagnosed {
				t.Errorf("healed without the fault's root cause being identified; detections: %+v", res.Detections)
			}

			// The audit trail must show an executed action bound to the
			// fault's expected cause, and every executed action's outcome
			// must chain through the confirmed cause back to a raw log event.
			assertRemediationAudit(t, res)
			matched := false
			for _, r := range res.Remediations {
				if r.State != remediate.StateExecuted {
					continue
				}
				for _, base := range kind.ExpectedRootCauses() {
					if r.CauseNode == base || strings.HasPrefix(r.CauseNode, base+"-") {
						matched = true
					}
				}
			}
			if !matched {
				t.Errorf("no executed remediation cites a cause of %v; audit: %+v",
					kind.ExpectedRootCauses(), res.Remediations)
			}
			if res.BrokenEvidenceChains != 0 {
				t.Errorf("%d confirmed cause(s) with broken evidence chains", res.BrokenEvidenceChains)
			}
		})
	}
}

// TestHealRunDoesNotFireUnderZeroPolicy pins the zero-policy posture at
// the lane level: RollingUpgrade's Manager has no remediation policy, so
// a fault run whose causes confirm must leave no remediation records and
// must not report Healed. The runner reads every scenario's remediation
// ledger, so a policy leaking into the lane fails this test.
func TestHealRunDoesNotFireUnderZeroPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("lane run is slow")
	}
	res, err := RunOne(context.Background(), RollingUpgrade, RunSpec{
		ID: 210, Fault: faultinject.KindAMIChanged, ClusterSize: 2,
		Seed: 533, InjectDelay: time.Second,
	}, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Remediations) != 0 {
		t.Fatalf("remediations recorded on a lane without remediation enabled: %+v", res.Remediations)
	}
	if res.Healed {
		t.Fatal("run without remediation reported Healed")
	}
}
