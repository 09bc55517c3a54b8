package experiment

import (
	"context"
	"strings"
	"testing"
	"time"

	"poddiagnosis/internal/faultinject"
)

// fastCfg trades fidelity for speed in unit tests.
func fastCfg() Config {
	return Config{
		RunsPerFault:     1,
		Scale:            250,
		Seed:             42,
		Parallelism:      2,
		InterferenceProb: -1, // none
	}
}

func TestRunOneCleanRun(t *testing.T) {
	res, err := RunOne(context.Background(), RollingUpgrade, RunSpec{ID: 0, ClusterSize: 2, Seed: 7}, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.UpgradeErr != "" {
		t.Fatalf("clean upgrade failed: %s", res.UpgradeErr)
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

func TestRunOneDetectsConfigurationFault(t *testing.T) {
	res, err := RunOne(context.Background(), RollingUpgrade, RunSpec{
		ID: 1, Fault: faultinject.KindAMIChanged, ClusterSize: 4, Seed: 11,
		InjectDelay: time.Second,
	}, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !res.FaultDetected {
		t.Fatalf("AMI-changed fault undetected; detections: %+v", res.Detections)
	}
	if !res.FaultDiagnosed {
		t.Errorf("AMI-changed fault detected but not diagnosed; detections: %+v", res.Detections)
	}
	if res.ConformanceFirst {
		t.Error("configuration fault detected by conformance first (log output should be unchanged)")
	}
}

func TestRunOneDetectsResourceFault(t *testing.T) {
	// Pin the injection right after the launch configuration appears so
	// the fault always strikes mid-upgrade regardless of scheduler noise.
	res, err := RunOne(context.Background(), RollingUpgrade, RunSpec{
		ID: 2, Fault: faultinject.KindAMIUnavailable, ClusterSize: 2, Seed: 13,
		InjectDelay: time.Second,
	}, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !res.FaultDetected {
		t.Fatalf("AMI-unavailable fault undetected; detections: %+v", res.Detections)
	}
	// Whether the upgrade itself aborts depends on where the random
	// injection point lands relative to the last replacement; detection
	// is the invariant.
}

func TestRunOneDetectsELBFault(t *testing.T) {
	res, err := RunOne(context.Background(), RollingUpgrade, RunSpec{
		ID: 3, Fault: faultinject.KindELBUnavailable, ClusterSize: 2, Seed: 17,
		InjectDelay: time.Second,
	}, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !res.FaultDetected {
		t.Fatalf("ELB fault undetected; detections: %+v", res.Detections)
	}
	if !res.FaultDiagnosed {
		t.Errorf("ELB fault not diagnosed; detections: %+v", res.Detections)
	}
}

// TestRunOneDrawsDelaysBeforeInjecting runs a fault at a drawn injection
// time beside two interferences, the shape Specs produces. The delays are
// drawn before the injection goroutines start; under -race a shared draw
// from both goroutines reports a data race.
func TestRunOneDrawsDelaysBeforeInjecting(t *testing.T) {
	if testing.Short() {
		t.Skip("lane run is slow")
	}
	res, err := RunOne(context.Background(), RollingUpgrade, RunSpec{
		ID: 4, Fault: faultinject.KindSGChanged, ClusterSize: 2, Seed: 29,
		Interferences: []faultinject.Interference{
			faultinject.InterferenceScaleIn, faultinject.InterferenceRandomTermination,
		},
	}, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spec.Interferences) != 2 {
		t.Errorf("result spec lost its interferences: %+v", res.Spec)
	}
}

func TestSpecsShape(t *testing.T) {
	cfg := Config{RunsPerFault: 20, Seed: 1, InterferenceProb: 0.25}
	specs := Specs(cfg)
	if len(specs) != 160 {
		t.Fatalf("spec count = %d", len(specs))
	}
	perFault := make(map[faultinject.Kind]int)
	sizes := map[int]int{}
	withInterf := 0
	for _, s := range specs {
		perFault[s.Fault]++
		sizes[s.ClusterSize]++
		if len(s.Interferences) > 0 {
			withInterf++
		}
	}
	for _, k := range faultinject.AllKinds() {
		if perFault[k] != 20 {
			t.Errorf("fault %s has %d runs", k, perFault[k])
		}
	}
	if sizes[4] != 128 || sizes[20] != 32 {
		t.Errorf("cluster sizes = %v", sizes)
	}
	if withInterf == 0 {
		t.Error("no runs with interferences")
	}
	// Deterministic for the same seed.
	specs2 := Specs(cfg)
	for i := range specs {
		if specs[i].Seed != specs2[i].Seed || len(specs[i].Interferences) != len(specs2[i].Interferences) {
			t.Fatal("Specs not deterministic")
		}
	}
}

func TestMetricsFormulas(t *testing.T) {
	m := Metrics{TP: 206, FP: 18, FN: 0, Correct: 200}
	if p := m.Precision(); p < 0.91 || p > 0.93 {
		t.Errorf("precision = %f", p)
	}
	if r := m.Recall(); r != 1.0 {
		t.Errorf("recall = %f", r)
	}
	if a := m.Accuracy(); a < 0.89 || a > 0.90 {
		t.Errorf("accuracy = %f", a)
	}
	var zero Metrics
	if zero.Precision() != 0 || zero.Recall() != 0 || zero.Accuracy() != 0 {
		t.Error("zero metrics not zero")
	}
}

func TestAggregateAndRender(t *testing.T) {
	results := []*RunResult{
		{
			Spec:          RunSpec{ID: 0, Fault: faultinject.KindAMIChanged, ClusterSize: 4},
			FaultDetected: true, FaultDiagnosed: true,
			Detections: []DetectionSummary{{
				Source: "assertion", TriggerID: "asg-uses-ami",
				Attribution: "fault", DiagnosisTime: 2300 * time.Millisecond,
			}},
		},
		{
			Spec: RunSpec{ID: 1, Fault: faultinject.KindELBUnavailable, ClusterSize: 4,
				Interferences: []faultinject.Interference{faultinject.InterferenceScaleIn}},
			FaultDetected: true, FaultDiagnosed: false,
			ConformanceFirst: true, InterferencesDetected: 1,
			FalsePositives: 1, FalsePositivesDiagnosedNoCause: 1,
			Detections: []DetectionSummary{{
				Source: "conformance", TriggerID: "conformance:error",
				Attribution: "fault", DiagnosisTime: 4200 * time.Millisecond,
			}},
		},
	}
	rep := Aggregate(results, time.Second)
	if rep.Overall.TP != 3 { // 2 faults + 1 interference
		t.Errorf("TP = %d", rep.Overall.TP)
	}
	if rep.Overall.FP != 1 || rep.Overall.FN != 0 {
		t.Errorf("FP=%d FN=%d", rep.Overall.FP, rep.Overall.FN)
	}
	if rep.Overall.Correct != 3 { // ami diag + interference + FP no-cause
		t.Errorf("Correct = %d", rep.Overall.Correct)
	}
	ts := rep.Times()
	if ts.Count != 2 || ts.Min != 2300*time.Millisecond || ts.Max != 4200*time.Millisecond {
		t.Errorf("times = %+v", ts)
	}
	hist := rep.Histogram(time.Second)
	if len(hist) != 5 || hist[2] != 1 || hist[4] != 1 {
		t.Errorf("hist = %v", hist)
	}
	out := rep.RenderAll()
	for _, want := range []string{"Table I", "Figure 6", "Figure 7", "Conformance coverage", "Precision of Detection"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	if rep.ConformanceFirstByFault[faultinject.KindELBUnavailable] != 1 {
		t.Error("conformance-first not counted")
	}
}

func TestMiniCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("mini campaign is slow")
	}
	// Two fault types, one run each: exercises the parallel runner
	// end-to-end.
	specs := []RunSpec{
		{ID: 0, Fault: faultinject.KindKeyPairChanged, ClusterSize: 2, Seed: 19},
		{ID: 1, Fault: faultinject.KindSGUnavailable, ClusterSize: 2, Seed: 23},
	}
	rep, err := RunSpecs(context.Background(), specs, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overall.TP+rep.Overall.FN != 2 {
		t.Errorf("fault accounting: %+v", rep.Overall)
	}
	if rep.Overall.Recall() < 0.5 {
		t.Errorf("recall = %f; runs: %+v %+v", rep.Overall.Recall(), rep.Runs[0], rep.Runs[1])
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	rep := &Report{}
	if rep.Histogram(time.Second) != nil {
		t.Error("empty histogram not nil")
	}
	if rep.Times().Count != 0 {
		t.Error("empty times not zero")
	}
	rep.DiagnosisTimes = []time.Duration{time.Second}
	if rep.Histogram(0) != nil {
		t.Error("zero width accepted")
	}
}
