package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"
)

// A run is E epochs × R rounds. An epoch builds a fresh system under test
// and registers its operations (one timed set-up sample); a round drives a
// fixed, seed-generated slice of work, waits for every expected result,
// checks it against the workload's oracle and yields one sample of each
// timed metric. The first epoch is warm-up and discarded.

// epoch is one freshly built system under test.
type epoch interface {
	// round drives round r and verifies it.
	round(r int) roundSample
	// finish applies the epoch-level oracle; only failed, notes and
	// counts of the returned sample are used.
	finish() roundSample
	// close tears the system down and waits for its goroutines.
	close()
}

// workload is one of the four benchmark workloads, already generated from
// a seed.
type workload interface {
	name() string
	// unit names what work_per_s counts.
	unit() string
	// digest identifies the generated input stream.
	digest() string
	rounds() int
	// timers names the wall-clock metrics that are mostly clock sleeps on
	// this workload, not CPU: those are reported as measured, not at
	// reference speed (see speed).
	timers() timerBound
	// newEpoch builds a fresh system and registers its operations; the
	// call is the timed set-up. tr is nil outside a traced run.
	newEpoch(tr *tracer) (epoch, error)
}

// timerBound flags the wall-clock metrics a workload's timers dominate.
type timerBound struct{ rate, p50, p95 bool }

// runResult is everything one run reports.
type runResult struct {
	workload, unit, digest string
	seed                   int64
	epochs, rounds         int
	measured               time.Duration
	attempted, failed      int
	notes                  []string
	// e2e holds the seven end-to-end metrics by name.
	e2e map[string]float64
	// extras are informational: box speed, generator lateness, oracle
	// counters.
	extras map[string]float64
}

// e2eUnits fixes the end-to-end metric names, order and units.
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"result_ms_p50", "ms"},
	{"result_ms_p95", "ms"},
	{"cpu_us_per_unit", "us"},
	{"allocs_per_unit", "count"},
	{"peak_rss_mb", "MiB"},
}

// runOptions bound a run.
type runOptions struct {
	// budget is the measured wall time to aim for: no new epoch starts
	// once the next one would overrun it.
	budget time.Duration
	// maxEpochs caps measured epochs (0 = budget only).
	maxEpochs int
	// warmup runs and discards one epoch first.
	warmup bool
}

// epochTotals sums the burst slices of one epoch.
type epochTotals struct {
	units   int
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
}

// series collects a run's samples: cost totals per epoch, latency
// percentiles and per-unit CPU per round, calibration readings throughout.
type series struct {
	epochs            []epochTotals
	p50, p95, cpu     []float64 // per round
	setup, late, cal  []float64
	attempted, failed int
	notes             []string
	counts            map[string]float64
}

func (s *series) addRound(r roundSample) {
	s.attempted += r.attempted
	s.addOracle(r)
	for _, c := range r.cal {
		s.cal = append(s.cal, c.Seconds())
	}
	if r.units > 0 && r.wall > 0 {
		e := &s.epochs[len(s.epochs)-1]
		e.units += r.units
		e.wall += r.wall
		e.cpu += r.cpu
		e.mallocs += r.mallocs
		s.cpu = append(s.cpu, float64(r.cpu)/float64(time.Microsecond)/float64(r.units))
	}
	if len(r.latencies) > 0 {
		tail := r.tail
		if tail == nil {
			tail = r.latencies
		}
		s.p50 = append(s.p50, quantile(millis(r.latencies), 0.50))
		s.p95 = append(s.p95, quantile(millis(tail), 0.95))
	}
	for _, d := range r.lateness {
		s.late = append(s.late, float64(d)/float64(time.Microsecond))
	}
}

func (s *series) addOracle(r roundSample) {
	s.failed += r.failed
	for _, n := range r.notes {
		if len(s.notes) < 8 { // the first few say what broke; the count says how much
			s.notes = append(s.notes, n)
		}
	}
	for k, v := range r.counts {
		if s.counts == nil {
			s.counts = make(map[string]float64)
		}
		s.counts[k] += v
	}
}

// runEpoch builds, drives and tears down one epoch.
func runEpoch(w workload, tr *tracer, into *series) error {
	into.cal = append(into.cal, calibrate().Seconds())
	t0 := wallNow()
	ep, err := w.newEpoch(tr)
	if err != nil {
		return err
	}
	into.setup = append(into.setup, wallSince(t0).Seconds())
	into.epochs = append(into.epochs, epochTotals{})
	for r := 0; r < w.rounds(); r++ {
		into.addRound(ep.round(r))
	}
	into.addOracle(ep.finish())
	ep.close()
	// Collect between epochs, outside every timed window, so one epoch's
	// garbage is not another's GC cycle and peak RSS tracks one live
	// system, not how collections happened to fall.
	runtime.GC()
	return nil
}

func runWorkload(w workload, seed int64, opt runOptions) (runResult, error) {
	res := runResult{workload: w.name(), unit: w.unit(), digest: w.digest(), seed: seed}
	if opt.warmup {
		if err := runEpoch(w, nil, &series{}); err != nil {
			return res, err
		}
	}
	var s series
	start := wallNow()
	for {
		t0 := wallNow()
		if err := runEpoch(w, nil, &s); err != nil {
			return res, err
		}
		res.epochs++
		if opt.maxEpochs > 0 && res.epochs >= opt.maxEpochs {
			break
		}
		if wallSince(start)+wallSince(t0) > opt.budget {
			break
		}
	}
	res.measured = wallSince(start)
	res.finish(&s, w.timers())
	return res, nil
}

// finish turns the collected series into the seven metrics (README,
// "Estimators").
func (res *runResult) finish(s *series, timers timerBound) {
	res.rounds = len(s.cpu)
	res.attempted, res.failed, res.notes = s.attempted, s.failed, s.notes

	var rate, cpu, allocs []float64
	for _, e := range s.epochs {
		if e.units == 0 || e.wall <= 0 {
			continue
		}
		u := float64(e.units)
		rate = append(rate, u/e.wall.Seconds())
		cpu = append(cpu, float64(e.cpu)/float64(time.Microsecond)/u)
		allocs = append(allocs, float64(e.mallocs)/u)
	}
	// CPU-bound figures are reported at reference speed; a timer-bound one
	// is clock sleeps and stays as measured.
	sp := speed(s.cal)
	at := func(timer bool) float64 {
		if timer {
			return 1
		}
		return sp
	}
	res.e2e = map[string]float64{
		"setup_s":         fastCost(s.setup) * sp,
		"work_per_s":      median(rate) / at(timers.rate),
		"result_ms_p50":   median(s.p50) * at(timers.p50),
		"result_ms_p95":   fastCost(s.p95) * at(timers.p95),
		"cpu_us_per_unit": median(cpu) * sp,
		"allocs_per_unit": median(allocs),
		"peak_rss_mb":     peakRSSMB(),
	}
	res.extras = map[string]float64{"box.speed": sp}
	if len(s.late) > 0 {
		res.extras["generator.late_us_p50"] = quantile(s.late, 0.50)
		res.extras["generator.late_us_p95"] = quantile(s.late, 0.95)
	}
	for k, v := range s.counts {
		res.extras[k] = v
	}
}

// speed is the factor that carries a CPU-bound time measured during this
// run to the reference box: the calibration kernel's mean speed against
// calReference, raised to the share of an ingest unit's time that is
// compute (speedExponent). 1 at reference speed, below 1 on a slower box.
func speed(cal []float64) float64 {
	if len(cal) == 0 {
		return 1
	}
	var sum float64
	for _, c := range cal {
		sum += calReference.Seconds() / c // averaging speeds, so one reading stretched by a GC cycle counts for little
	}
	return math.Pow(sum/float64(len(cal)), speedExponent)
}

// print writes the human-readable report.
func (res *runResult) print(w io.Writer) {
	fmt.Fprintf(w, "workload=%s seed=%d stream_hash=%s unit=%s\n", res.workload, res.seed, res.digest, res.unit)
	fmt.Fprintf(w, "epochs=%d rounds=%d measured_s=%.2f ops_attempted=%d ops_failed=%d\n",
		res.epochs, res.rounds, res.measured.Seconds(), res.attempted, res.failed)
	for _, m := range e2eUnits {
		fmt.Fprintf(w, "  %-18s %14.4f %s\n", m.name, res.e2e[m.name], m.unit)
	}
	keys := make([]string, 0, len(res.extras))
	for k := range res.extras {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-26s %14.2f\n", k, res.extras[k])
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "  oracle: %s\n", n)
	}
}
