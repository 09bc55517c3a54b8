package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestSmoke drives every workload end to end at smoke size — one epoch of
// two short rounds — and then its isolated replay: the oracle must hold,
// every end-to-end metric must be a positive number, and the replay must
// produce spans for the workload's own layers.
func TestSmoke(t *testing.T) {
	needs := map[string][]string{
		"ingest_clean":   {"pipeline.reorder", "pipeline.process", "core.session", "logstore.write", "conformance.check", "flight.record"},
		"ingest_lossy":   {"chaos.tap", "pipeline.reorder", "core.session", "conformance.checklossy"},
		"diagnose_storm": {"assertion.evaluate", "diagnosis.diagnose", "remediate.trigger", "consistentapi.call", "diagplan.instantiate"},
		"fed_handoff":    {"pipeline.process", "core.export", "core.restore"},
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 7, true)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runWorkload(w, 7, runOptions{budget: time.Second, maxEpochs: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%d of %d units failed the oracle: %v", res.failed, res.attempted, res.notes)
			}
			if res.epochs != 1 || res.rounds != 2 {
				t.Errorf("ran %d epochs × %d rounds, want 1 × 2", res.epochs, res.rounds)
			}
			for _, m := range e2eUnits {
				if v := res.e2e[m.name]; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", m.name, v)
				}
			}

			tr := newTracer(false)
			if _, err := probe(tr, w, 7, false); err != nil {
				t.Fatal(err)
			}
			stats := layerStats(tr.spans)
			for _, layer := range needs[name] {
				if stats[layer] == nil || stats[layer].calls == 0 {
					t.Errorf("the replay recorded no %s span", layer)
				}
			}
		})
	}
}

// TestBenchmarkFile keeps BENCHMARK.json and the program in step: the same
// workloads, end-to-end metrics and per-layer metrics, in the same order.
func TestBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" {
			t.Errorf("workload %d is %q (why %q), want %q with a reason", i, w.Name, w.Why, workloadNames[i])
		}
	}
	if len(bf.EndToEnd) != len(e2eUnits) {
		t.Fatalf("%d end-to-end metrics, want %d", len(bf.EndToEnd), len(e2eUnits))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != e2eUnits[i].name || m.Unit != e2eUnits[i].unit {
			t.Errorf("end_to_end[%d] is %s (%s), want %s (%s)", i, m.Name, m.Unit, e2eUnits[i].name, e2eUnits[i].unit)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s has no bound within (0, 0.25]", m.Name)
		}
	}
	want := perLayerMetrics()
	if len(bf.PerLayer) != len(want) {
		t.Fatalf("%d per-layer metrics, want %d", len(bf.PerLayer), len(want))
	}
	for i, m := range bf.PerLayer {
		if m.Name != want[i].Name || m.Unit != want[i].Unit || m.Better != want[i].Better {
			t.Errorf("per_layer[%d] is %+v, want %+v", i, m, want[i])
		}
	}
}
