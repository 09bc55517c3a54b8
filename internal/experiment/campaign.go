package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/faultinject"
)

// Metrics are the Table I quantities.
type Metrics struct {
	// TP, FP and FN are detection counts (true positives include both
	// attributed fault detections and detected interferences, as in the
	// paper's 160 + 46 accounting).
	TP int `json:"tp"`
	FP int `json:"fp"`
	FN int `json:"fn"`
	// Correct counts correctly diagnosed detections (for false positives
	// the correct diagnosis is "no root cause identified").
	Correct int `json:"correct"`
}

// Precision is TP / (TP + FP).
func (m Metrics) Precision() float64 {
	if m.TP+m.FP == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FP)
}

// Recall is TP / (TP + FN).
func (m Metrics) Recall() float64 {
	if m.TP+m.FN == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FN)
}

// Accuracy is Correct / (TP + FP) — the paper's accuracy rate of
// diagnosis.
func (m Metrics) Accuracy() float64 {
	if m.TP+m.FP == 0 {
		return 0
	}
	return float64(m.Correct) / float64(m.TP+m.FP)
}

// add folds a run into the metrics.
func (m *Metrics) add(r *RunResult) {
	if r.Spec.Fault != 0 {
		if r.FaultDetected {
			m.TP++
			if r.FaultDiagnosed {
				m.Correct++
			}
		} else {
			m.FN++
		}
	}
	m.TP += r.InterferencesDetected
	m.Correct += r.InterferencesDetected
	m.FP += r.FalsePositives
	m.Correct += r.FalsePositivesDiagnosedNoCause
}

// Report aggregates a campaign.
type Report struct {
	// Runs are the individual results in spec order.
	Runs []*RunResult `json:"runs"`
	// Overall are the Table I metrics across all runs.
	Overall Metrics `json:"overall"`
	// PerFault groups the metrics by fault type (Figure 7).
	PerFault map[faultinject.Kind]Metrics `json:"perFault"`
	// DiagnosisTimes are all diagnosis durations (Figure 6), sorted.
	DiagnosisTimes []time.Duration `json:"diagnosisTimes"`
	// ConformanceFirstByFault counts runs whose first detection came
	// from conformance checking, per fault (§V.D: 20 of the 80 runs of
	// resource faults).
	ConformanceFirstByFault map[faultinject.Kind]int `json:"conformanceFirstByFault"`
	// InterferencesInjected and InterferencesDetected total the
	// simultaneous-operation ground truth and detections.
	InterferencesInjected int `json:"interferencesInjected"`
	InterferencesDetected int `json:"interferencesDetected"`
	// WallDuration is how long the campaign took in real time.
	WallDuration time.Duration `json:"wallDuration"`
}

// Specs enumerates the campaign's runs: RunsPerFault runs for each of the
// 8 fault types; every fifth run uses the 20-instance cluster, the rest
// the 4-instance cluster; interferences are mixed in per
// InterferenceProb.
func Specs(cfg Config) []RunSpec {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var specs []RunSpec
	id := 0
	for _, kind := range faultinject.AllKinds() {
		for i := 0; i < cfg.RunsPerFault; i++ {
			size := 4
			if i%5 == 4 {
				size = 20
			}
			spec := RunSpec{
				ID:          id,
				Fault:       kind,
				ClusterSize: size,
				Seed:        cfg.Seed + int64(id)*7919,
			}
			for _, interf := range []faultinject.Interference{
				faultinject.InterferenceScaleIn,
				faultinject.InterferenceRandomTermination,
				faultinject.InterferenceAccountPressure,
			} {
				if rng.Float64() < cfg.InterferenceProb {
					spec.Interferences = append(spec.Interferences, interf)
				}
			}
			specs = append(specs, spec)
			id++
		}
	}
	return specs
}

// Run executes the full campaign with bounded parallelism.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	specs := Specs(cfg)
	return RunSpecs(ctx, specs, cfg)
}

// RunSpecs executes the given runs with bounded parallelism and
// aggregates the report. Each parallel lane owns one simulated cloud and
// one POD Manager that is reused across the lane's sequential runs; every
// run deploys a uniquely named cluster and registers its own monitoring
// session, so the campaign exercises the shared-services deployment
// instead of rebuilding the engine stack per run.
func RunSpecs(ctx context.Context, specs []RunSpec, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	started := clock.Wall.Now()
	results := make([]*RunResult, len(specs))
	errs := make([]error, len(specs))
	lanes := cfg.Parallelism
	if lanes > len(specs) {
		lanes = len(specs)
	}
	type job struct {
		i    int
		spec RunSpec
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < lanes; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			l, err := newLane(cfg, cfg.Seed+int64(w+1)*104729, RollingUpgrade)
			if err != nil {
				for j := range jobs {
					errs[j.i] = err
				}
				return
			}
			defer l.close()
			for j := range jobs {
				results[j.i], errs[j.i] = l.run(ctx, RollingUpgrade, j.spec, fmt.Sprintf("pm%d", j.spec.ID))
			}
		}()
	}
	for i, spec := range specs {
		jobs <- job{i, spec}
	}
	close(jobs)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiment: run %d failed: %w", specs[i].ID, err)
		}
	}
	return Aggregate(results, clock.Wall.Since(started)), nil
}

// Aggregate folds run results into a Report.
func Aggregate(results []*RunResult, wall time.Duration) *Report {
	rep := &Report{
		Runs:                    results,
		PerFault:                make(map[faultinject.Kind]Metrics),
		ConformanceFirstByFault: make(map[faultinject.Kind]int),
		WallDuration:            wall,
	}
	for _, r := range results {
		rep.Overall.add(r)
		pf := rep.PerFault[r.Spec.Fault]
		pf.add(r)
		rep.PerFault[r.Spec.Fault] = pf
		if r.ConformanceFirst {
			rep.ConformanceFirstByFault[r.Spec.Fault]++
		}
		rep.InterferencesInjected += len(r.Spec.Interferences)
		rep.InterferencesDetected += r.InterferencesDetected
		for _, d := range r.Detections {
			if d.DiagnosisTime > 0 {
				rep.DiagnosisTimes = append(rep.DiagnosisTimes, d.DiagnosisTime)
			}
		}
	}
	sort.Slice(rep.DiagnosisTimes, func(i, j int) bool {
		return rep.DiagnosisTimes[i] < rep.DiagnosisTimes[j]
	})
	return rep
}

// TimeStats summarizes the diagnosis-time distribution of Figure 6.
type TimeStats struct {
	// Count is the number of diagnoses.
	Count int `json:"count"`
	// Min, Mean, P95 and Max are the distribution's shape parameters the
	// paper reports (1.29 s, 2.30 s, 3.83 s, 10.44 s).
	Min  time.Duration `json:"min"`
	Mean time.Duration `json:"mean"`
	P95  time.Duration `json:"p95"`
	Max  time.Duration `json:"max"`
}

// Times computes the distribution statistics.
func (r *Report) Times() TimeStats {
	ts := TimeStats{Count: len(r.DiagnosisTimes)}
	if ts.Count == 0 {
		return ts
	}
	var sum time.Duration
	for _, d := range r.DiagnosisTimes {
		sum += d
	}
	ts.Min = r.DiagnosisTimes[0]
	ts.Max = r.DiagnosisTimes[ts.Count-1]
	ts.Mean = sum / time.Duration(ts.Count)
	idx := int(0.95 * float64(ts.Count-1))
	ts.P95 = r.DiagnosisTimes[idx]
	return ts
}

// Histogram buckets the diagnosis times with the given width, returning
// counts per bucket starting at zero.
func (r *Report) Histogram(width time.Duration) []int {
	if width <= 0 || len(r.DiagnosisTimes) == 0 {
		return nil
	}
	maxBucket := int(r.DiagnosisTimes[len(r.DiagnosisTimes)-1] / width)
	counts := make([]int, maxBucket+1)
	for _, d := range r.DiagnosisTimes {
		counts[int(d/width)]++
	}
	return counts
}
