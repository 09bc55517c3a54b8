package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"poddiagnosis/internal/obs"
)

// layerDef names one layer of the ledger (module names, as the ROADMAP
// asks) and says how it is reached.
type layerDef struct {
	name string
	// chain layers sit on a unit's own path and their self times add up
	// to the coverage figure; the others are set-up calls, control-plane
	// calls, or standalone probes of code that runs inside a chain layer.
	chain bool
}

var layers = []layerDef{
	{"logging.publish", true},
	{"chaos.tap", true},
	{"pipeline.reorder", true},
	{"pipeline.process", true},
	{"core.session", true},
	{"logstore.write", true},
	{"conformance.check", false},      // inside core.session
	{"conformance.checklossy", false}, // inside core.session
	{"flight.record", false},          // inside core.session
	{"core.watch", false},             // set-up
	{"core.export", false},            // inside federate.heartbeat
	{"core.restore", false},           // inside federate.failover
	{"assertion.evaluate", true},
	{"diagnosis.diagnose", true},
	{"remediate.trigger", true},
	{"consistentapi.call", false},   // inside assertion.evaluate
	{"simaws.describe", false},      // inside consistentapi.call
	{"diagplan.instantiate", false}, // inside diagnosis.diagnose
	{"resilience.do", false},        // inside diagnosis.diagnose
	{"federate.place", false},       // set-up
	{"federate.route", false},       // read side
	{"federate.heartbeat", true},
	{"federate.failover", false}, // once per epoch
}

// counters are the per-layer counts beside the timings, with the better
// direction BENCHMARK.json records for them.
var counters = []struct{ name, unit, better string }{
	{"logging.bus_dropped", "count", "lower"},
	{"chaos.dropped", "count", "lower"},
	{"chaos.duplicated", "count", "lower"},
	{"chaos.delayed", "count", "lower"},
	{"pipeline.gaps", "count", "lower"},
	{"pipeline.duplicates", "count", "lower"},
	{"pipeline.held", "count", "lower"},
	{"core.notifygap_calls", "count", "lower"},
	{"core.snapshot_bytes", "B", "lower"},
	{"assertion.api_calls", "count", "lower"},
	{"consistentapi.retries", "count", "lower"},
	{"diagnosis.tests_per_run", "count", "lower"},
	{"diagnosis.cache_hit_ratio", "ratio", "higher"},
	{"diagnosis.coalesced", "count", "higher"},
	{"resilience.retries", "count", "lower"},
	{"resilience.breaker_open", "count", "lower"},
	{"remediate.deduped", "count", "lower"},
	{"federate.heartbeat_bytes", "B", "lower"},
	{"federate.handoffs", "count", "lower"},
	{"trace.layer_coverage", "ratio", "higher"},
	{"trace.overhead_pct", "%", "lower"},
}

// perLayerMetric is one entry of BENCHMARK.json's per_layer list.
type perLayerMetric struct{ Name, Unit, Better string }

// perLayerMetrics is the full per-layer list, in report order; a test
// keeps BENCHMARK.json equal to it.
func perLayerMetrics() []perLayerMetric {
	var out []perLayerMetric
	for _, l := range layers {
		out = append(out,
			perLayerMetric{l.name + "_ns", "ns", "lower"},
			perLayerMetric{l.name + "_allocs", "count", "lower"})
	}
	for _, c := range counters {
		out = append(out, perLayerMetric{c.name, c.unit, c.better})
	}
	return out
}

// metricSnap is one reading of every series of the default registry,
// keyed by its exposition text ("name{label=\"v\"}").
type metricSnap map[string]float64

func snapMetrics() metricSnap {
	out := metricSnap{}
	for _, line := range strings.Split(obs.Default.Expose(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// addSince accumulates into m how much every series grew from a to b.
func (m metricSnap) addSince(a, b metricSnap) {
	for k, v := range b {
		m[k] += v - a[k]
	}
}

// sum adds up every series of the family whose labels contain label (""
// for all).
func (m metricSnap) sum(family, label string) float64 {
	var d float64
	for k, v := range m {
		if (k == family || strings.HasPrefix(k, family+"{")) && strings.Contains(k, label) {
			d += v
		}
	}
	return d
}

// runTraced is `-trace 1`: paired untraced/traced epochs for the tracing
// overhead and the live spans, then the isolated replay, then the
// per-layer report.
func runTraced(w workload, seed int64, budget time.Duration, out string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "podbench:", err)
		return 1
	}
	start := wallNow()
	if err := runEpoch(w, nil, &series{}); err != nil { // warm-up
		return fail(err)
	}
	live := newTracer(false)
	var plain, traced series
	grown := metricSnap{} // counter growth over the traced epochs
	epochs := 0
	for epochs == 0 || wallSince(start) < budget*4/10 {
		if err := runEpoch(w, nil, &plain); err != nil {
			return fail(err)
		}
		m0 := snapMetrics()
		if err := runEpoch(w, live, &traced); err != nil {
			return fail(err)
		}
		grown.addSince(m0, snapMetrics())
		epochs++
	}

	// Isolated replay: a timing pass over a whole epoch's inputs, then an
	// allocation pass over one round's.
	timing, allocs := newTracer(false), newTracer(true)
	pr, err := probe(timing, w, seed, false)
	if err != nil {
		return fail(err)
	}
	if _, err := probe(allocs, w, seed, true); err != nil {
		return fail(err)
	}

	rep := buildReport(w, live, timing, allocs, pr, &plain, &traced, grown, epochs)
	rep.print(os.Stdout)
	if out != "" {
		all := append(append([]span(nil), live.spans...), timing.spans...)
		if err := writeSpans(out, all); err != nil {
			return fail(err)
		}
		fmt.Printf("spans=%d written to %s\n", len(all), out)
	}
	metrics := make(map[string]metricValue)
	for _, m := range perLayerMetrics() {
		metrics[m.Name] = metricValue{rep.values[m.Name], m.Unit}
	}
	return emit(traced.attempted+plain.attempted, traced.failed+plain.failed, metrics)
}

// probe runs the workload's isolated replay. short limits it to one
// round's inputs (the allocation pass stops the world twice per span).
func probe(tr *tracer, w workload, seed int64, short bool) (probeResult, error) {
	switch w := w.(type) {
	case *ingestWorkload:
		return probeIngest(tr, w.name(), firstRounds(w.plan, short), seed)
	case *fedWorkload:
		return probeIngest(tr, w.name(), firstRounds(w.plan, short), seed)
	case *stormWorkload:
		return probeStorm(tr, w)
	}
	return probeResult{}, fmt.Errorf("no probe for workload %s", w.name())
}

func firstRounds(p *ingestPlan, short bool) *ingestPlan {
	if !short {
		return p
	}
	return &ingestPlan{ops: p.ops, rounds: p.rounds[:1], units: p.units, digest: p.digest}
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	name                                  string
	calls                                 int
	ns, allocs, perUnitNS, maxNS, totalNS float64
}

type traceReport struct {
	workload string
	rows     []layerRow
	values   map[string]float64
	busyNS   float64 // Σ self time of every span recorded
}

func buildReport(w workload, live, timing, allocs *tracer, pr probeResult,
	plain, traced *series, grown metricSnap, epochs int) *traceReport {
	rep := &traceReport{workload: w.name(), values: map[string]float64{}}
	liveStats, probeStats, allocStats := layerStats(live.spans), layerStats(timing.spans), layerStats(allocs.spans)

	// Live spans are normalised by the units the traced epochs drove,
	// probe spans by the units the replay pushed through the chain.
	liveUnits := float64(traced.attempted)
	var coverNS float64
	for _, l := range layers {
		st, units := probeStats[l.name], float64(pr.units)
		if ls := liveStats[l.name]; ls != nil && st == nil {
			st, units = ls, liveUnits
		}
		row := layerRow{name: l.name}
		if st != nil {
			row.calls = st.calls
			row.ns = fastCost(st.selfNS)
			row.maxNS, row.totalNS = st.maxNS, st.totalNS
			if units > 0 {
				row.perUnitNS = st.totalNS / units
			}
			rep.busyNS += st.totalNS
			if l.chain {
				coverNS += row.perUnitNS
			}
		}
		if as := allocStats[l.name]; as != nil && as.calls > 0 {
			row.allocs = as.allocs / float64(as.calls)
		}
		rep.rows = append(rep.rows, row)
		rep.values[l.name+"_ns"] = row.ns
		rep.values[l.name+"_allocs"] = row.allocs
	}

	// Counts are per traced epoch.
	c := func(family, label string) float64 { return grown.sum(family, label) / float64(epochs) }
	v := rep.values
	v["logging.bus_dropped"] = c("pod_logbus_dropped_total", "")
	v["chaos.dropped"] = c("pod_chaos_log_events_total", `action="dropped"`)
	v["chaos.duplicated"] = c("pod_chaos_log_events_total", `action="duplicated"`)
	v["chaos.delayed"] = c("pod_chaos_log_events_total", `action="delayed"`)
	v["pipeline.gaps"] = c("pod_reorder_gaps_total", "")
	v["pipeline.duplicates"] = c("pod_reorder_events_total", `disposition="duplicate"`)
	v["pipeline.held"] = c("pod_reorder_events_total", `disposition="held"`)
	// Manager.notifyGap is private and runs once per declared gap, walking
	// every resident session: its calls are counted, its time is the part
	// of the lossy workload no span from outside the program can reach.
	v["core.notifygap_calls"] = v["pipeline.gaps"]
	v["core.snapshot_bytes"] = pr.counts["core.snapshot_bytes"]
	evals := c("pod_assertion_evaluations_total", "")
	if evals > 0 {
		v["assertion.api_calls"] = c("pod_simaws_api_calls_total", "") / evals
	}
	v["consistentapi.retries"] = pr.counts["consistentapi.retries"]
	walks := c("pod_diagnosis_walks_total", "")
	tests := c("pod_diagnosis_tests_total", "")
	hits := c("pod_diagnosis_cache_hits_total", "") + c("pod_diagnosis_shared_cache_hits_total", "")
	if walks > 0 {
		v["diagnosis.tests_per_run"] = tests / walks
	}
	if tests+hits > 0 {
		v["diagnosis.cache_hit_ratio"] = hits / (tests + hits)
	}
	v["diagnosis.coalesced"] = c("pod_diagnosis_singleflight_coalesced_total", "")
	v["resilience.retries"] = c("pod_resilience_retries_total", "")
	v["resilience.breaker_open"] = c("pod_resilience_breaker_transitions_total", `"open"`)
	v["remediate.deduped"] = c("pod_remediation_deduped_total", "")
	v["federate.heartbeat_bytes"] = pr.counts["federate.heartbeat_bytes"]
	v["federate.handoffs"] = c("pod_fed_handoffs_total", "")

	cpuPlain, cpuTraced := fastCost(plain.cpu), fastCost(traced.cpu)
	if cpuPlain > 0 {
		v["trace.layer_coverage"] = coverNS / 1000 / cpuPlain
		v["trace.overhead_pct"] = 100 * (cpuTraced - cpuPlain) / cpuPlain
	}
	return rep
}

func (rep *traceReport) print(w io.Writer) {
	fmt.Fprintf(w, "workload=%s traced run — per-layer self time (p10 per call), allocations per call, share of busy time\n", rep.workload)
	fmt.Fprintf(w, "  %-24s %9s %12s %10s %12s %12s %7s\n", "layer", "calls", "self_ns", "allocs", "ns_per_unit", "max_span_ns", "busy%")
	for _, r := range rep.rows {
		if r.calls == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-24s %9d %12.0f %10.2f %12.0f %12.0f %6.1f%%\n",
			r.name, r.calls, r.ns, r.allocs, r.perUnitNS, r.maxNS, 100*r.totalNS/rep.busyNS)
	}
	for _, c := range counters {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", c.name, rep.values[c.name], c.unit)
	}
}
