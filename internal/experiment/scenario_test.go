package experiment

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"poddiagnosis/internal/core"
	"poddiagnosis/internal/diagplan"
	"poddiagnosis/internal/faultinject"
	"poddiagnosis/internal/process"
	"poddiagnosis/internal/remediate"
	"poddiagnosis/internal/upgrade"
)

func TestBlueGreenCleanRun(t *testing.T) {
	res, err := RunOne(context.Background(), BlueGreen, RunSpec{ID: 0, ClusterSize: 2, Seed: 11}, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.UpgradeErr != "" {
		t.Fatalf("clean blue/green failed: %s", res.UpgradeErr)
	}
	if res.FaultDetected || res.FaultDiagnosed {
		t.Error("fault flags set on clean run")
	}
	for _, d := range res.Detections {
		if d.Attribution == "fault" {
			t.Errorf("fault attribution on clean run: %+v", d)
		}
	}
}

func TestBlueGreenDiagnosesInjectedFault(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario fault runs are slow")
	}
	for i, kind := range []faultinject.Kind{faultinject.KindAMIChanged, faultinject.KindKeyPairUnavailable} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			res, err := RunOne(context.Background(), BlueGreen, RunSpec{
				ID: 10 + i, Fault: kind, ClusterSize: 2,
				Seed: int64(50 + i), InjectDelay: time.Second,
			}, fastCfg())
			if err != nil {
				t.Fatal(err)
			}
			if !res.FaultDetected {
				t.Fatalf("fault undetected; detections: %+v", res.Detections)
			}
			if !res.FaultDiagnosed {
				t.Errorf("fault detected but not diagnosed; detections: %+v", res.Detections)
			}
		})
	}
}

func TestSpotStormCleanRun(t *testing.T) {
	// A storm of zero: the watch window passes with no interruptions.
	res, err := RunOne(context.Background(), SpotStorm, RunSpec{
		ID: 20, ClusterSize: 2, Seed: 21,
		// InjectDelay beyond the watch window keeps the lane clean; the
		// storm fires into an already-draining cloud.
		InjectDelay: time.Hour,
	}, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.UpgradeErr != "" {
		t.Fatalf("clean watch failed: %s", res.UpgradeErr)
	}
	if res.FaultDiagnosed {
		t.Errorf("termination diagnosed with no storm: %+v", res.Detections)
	}
}

func TestSpotStormDiagnosedAsExternalTermination(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario fault runs are slow")
	}
	// A run with zero detections means the storm lost its scheduling race
	// under CPU oversubscription and reclaimed instances outside the watch
	// window — the monitored operation never saw it. Vacuous, not a
	// detection failure; retry it.
	res := retryUninformative(t, func() (*RunResult, error) {
		return RunOne(context.Background(), SpotStorm, RunSpec{
			ID: 21, ClusterSize: 3, Seed: 23, InjectDelay: 15 * time.Second,
		}, fastCfg())
	}, func(res *RunResult) string {
		if res.UpgradeErr != "" || len(res.Detections) > 0 {
			return ""
		}
		return "storm missed the watch window"
	})
	if res.UpgradeErr != "" {
		t.Fatalf("watch failed to recover: %s", res.UpgradeErr)
	}
	if !res.FaultDetected {
		t.Fatalf("storm undetected; detections: %+v", res.Detections)
	}
	if !res.FaultDiagnosed {
		t.Errorf("storm not diagnosed as unexpected-termination; detections: %+v", res.Detections)
	}
	if res.BrokenEvidenceChains != 0 {
		t.Errorf("%d broken evidence chains", res.BrokenEvidenceChains)
	}
}

// managerShape summarizes what a scenario's Manager mutation sets.
type managerShape struct {
	model, spec string
	plans       int
	policy      remediate.Policy
	catalog     bool
	retention   time.Duration
}

func shapeOf(sc Scenario) managerShape {
	var mc core.ManagerConfig
	if sc.manager != nil {
		sc.manager(&mc)
	}
	sh := managerShape{spec: mc.AssertionSpec, policy: mc.Remediation,
		catalog: mc.RemediationCatalog != nil, retention: mc.Retention}
	if mc.Model != nil {
		sh.model = mc.Model.ID()
	}
	if mc.Plans != nil {
		sh.plans = len(mc.Plans.All())
	}
	return sh
}

// TestScenarioData pins each exported scenario to the lane it replaces:
// ids, app name, the watched group and expectation, the Manager it
// builds, the cloud's audit trail and the groups teardown deletes.
func TestScenarioData(t *testing.T) {
	deployed := func(app string) *upgrade.Cluster {
		return &upgrade.Cluster{
			AppName: app, Size: 3, ImageID: "ami-v1", Version: "v1",
			KeyName: app + "-key", SGName: app + "-sg", LCName: app + "--asg-lc-ami-v1",
			ELBName: app + "-elb", ASGName: app + "--asg",
		}
	}
	upgraded := func(app string) core.Expectation {
		return core.Expectation{
			ASGName: app + "--asg", ELBName: app + "-elb", NewImageID: "ami-v2", NewVersion: "v2",
			NewLCName: app + "--asg-lc-ami-v2", KeyName: app + "-key", SGName: app + "-sg",
			InstanceType: "m1.small", ClusterSize: 3,
		}
	}
	withOld := func(x core.Expectation, old string) core.Expectation {
		x.OldLCName = old
		return x
	}
	closedLoop := managerShape{policy: remediate.SuggestedPolicy(remediate.ModeAuto), catalog: true, retention: 24 * time.Hour}
	full := len(diagplan.FullCatalog().All())
	cases := []struct {
		name                 string
		sc                   Scenario
		app, task, session   string
		expect               core.Expectation
		asgs                 []string
		manager              managerShape
		auditTrail           bool
		expectedCauses       []string
		closedLoop, federate bool
	}{
		{
			name: "RollingUpgrade", sc: RollingUpgrade,
			app: "pm", task: "pushing pm--asg run-7", session: "run-7",
			expect: upgraded("pm"), asgs: []string{"pm--asg"},
		},
		{
			name: "Heal", sc: Heal,
			app: "pm", task: "pushing pm--asg heal-7", session: "heal-7",
			expect: withOld(upgraded("pm"), "pm--asg-lc-ami-v1"), asgs: []string{"pm--asg"},
			manager: closedLoop, closedLoop: true,
		},
		{
			name: "BlueGreen", sc: BlueGreen,
			app: "bg", task: "bluegreen bg--asg run-7", session: "bg-run-7",
			expect: core.Expectation{
				ASGName: "bg--asg-green", ELBName: "bg-elb", NewImageID: "ami-v2", NewVersion: "v2",
				NewLCName: "bg--asg-green-lc-ami-v2", KeyName: "bg-key", SGName: "bg-sg",
				InstanceType: "m1.small", ClusterSize: 3,
			},
			asgs:    []string{"bg--asg-green", "bg--asg"},
			manager: managerShape{model: process.BlueGreenModel().ID(), spec: process.BlueGreenSpecText, plans: full},
		},
		{
			name: "SpotStorm", sc: SpotStorm,
			app: "spot", task: "spotwatch spot--asg run-7", session: "spot-run-7",
			expect: core.Expectation{
				ASGName: "spot--asg", ELBName: "spot-elb", NewImageID: "ami-v1", NewVersion: "v1",
				NewLCName: "spot--asg-lc-ami-v1", KeyName: "spot-key", SGName: "spot-sg",
				InstanceType: "m1.small", ClusterSize: 3,
			},
			asgs:       []string{"spot--asg"},
			manager:    managerShape{model: process.SpotRebalanceModel().ID(), spec: process.SpotRebalanceSpecText, plans: full},
			auditTrail: true, expectedCauses: []string{"unexpected-termination"},
		},
		{
			name: "MemberKill", sc: MemberKill,
			app: "mk", task: "pushing mk--asg mk-7", session: "mk-7",
			expect: withOld(upgraded("mk"), "mk--asg-lc-ami-v1"), asgs: []string{"mk--asg"},
			manager: closedLoop, closedLoop: true, federate: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := tc.sc
			if sc.app != tc.app {
				t.Errorf("app = %q, want %q", sc.app, tc.app)
			}
			o := sc.operation(deployed(sc.app), "ami-v2", RunSpec{ID: 7, ClusterSize: 3}, time.Minute)
			if o.id != tc.session || o.task != tc.task {
				t.Errorf("session, task = %q, %q; want %q, %q", o.id, o.task, tc.session, tc.task)
			}
			if o.expect != tc.expect {
				t.Errorf("expectation = %+v\nwant          %+v", o.expect, tc.expect)
			}
			if got := o.asgs(); !reflect.DeepEqual(got, tc.asgs) {
				t.Errorf("teardown deletes %v, want %v", got, tc.asgs)
			}
			if got := shapeOf(sc); !reflect.DeepEqual(got, tc.manager) {
				t.Errorf("manager = %+v, want %+v", got, tc.manager)
			}
			if sc.auditTrail != tc.auditTrail || !reflect.DeepEqual(sc.expectedCauses, tc.expectedCauses) {
				t.Errorf("audit trail, expected causes = %v, %v; want %v, %v",
					sc.auditTrail, sc.expectedCauses, tc.auditTrail, tc.expectedCauses)
			}
			if sc.closedLoop != tc.closedLoop || (len(sc.members) > 0) != tc.federate {
				t.Errorf("closed loop, members = %v, %v", sc.closedLoop, sc.members)
			}
		})
	}
}

// TestScenarioDelays pins each scenario's default injection delay and
// checks that the draw is a pure function of the scenario and the spec:
// the fault delay first, then one delay per interference in spec order.
func TestScenarioDelays(t *testing.T) {
	firstDraw := func(seed int64, n int) time.Duration {
		return time.Duration(rand.New(rand.NewSource(seed^0x5eed)).Intn(n)) * time.Second
	}
	interf := []faultinject.Interference{faultinject.InterferenceScaleIn, faultinject.InterferenceRandomTermination}
	for seed := int64(0); seed < 50; seed++ {
		fault := RunSpec{Seed: seed, Fault: faultinject.KindAMIChanged}
		clean := RunSpec{Seed: seed}
		for _, tc := range []struct {
			name string
			sc   Scenario
			spec RunSpec
			want time.Duration
		}{
			{"RollingUpgrade", RollingUpgrade, fault, 10*time.Second + firstDraw(seed, 80)},
			{"Heal", Heal, fault, time.Second},
			{"BlueGreen", BlueGreen, fault, 5*time.Second + firstDraw(seed, 40)},
			{"SpotStorm", SpotStorm, clean, 20 * time.Second},
			{"MemberKill", MemberKill, fault, 10 * time.Second},
			{"clean run injects nothing", RollingUpgrade, clean, 0},
			{"InjectDelay pins the draw", BlueGreen, RunSpec{Seed: seed, Fault: faultinject.KindAMIChanged, InjectDelay: 3 * time.Second}, 3 * time.Second},
		} {
			if got, _ := tc.sc.delays(tc.spec); got != tc.want {
				t.Fatalf("%s seed %d: inject delay = %v, want %v", tc.name, seed, got, tc.want)
			}
		}

		spec := RunSpec{Seed: seed, Fault: faultinject.KindAMIChanged, Interferences: interf}
		inject, delays := RollingUpgrade.delays(spec)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		want := []time.Duration{time.Duration(10+rng.Intn(80)) * time.Second}
		for range interf {
			want = append(want, time.Duration(20+rng.Intn(120))*time.Second)
		}
		if got := append([]time.Duration{inject}, delays...); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: delays = %v, want %v", seed, got, want)
		}
		if inject2, delays2 := RollingUpgrade.delays(spec); inject2 != inject || !reflect.DeepEqual(delays2, delays) {
			t.Fatalf("seed %d: a second draw differs: %v %v vs %v %v", seed, inject2, delays2, inject, delays)
		}
	}
}
