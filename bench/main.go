// Command podbench is the repository's benchmark: four long workloads
// driven through the public functions of the internal packages, estimators
// and a speed calibration that survive a noisy shared box, and a traced run
// that splits the end-to-end figures by layer. See README.md in this
// directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// workloadNames fixes the benchmark's workloads and their order.
var workloadNames = []string{"ingest_clean", "ingest_lossy", "diagnose_storm", "fed_handoff"}

// newWorkload generates the named workload from a seed. short selects the
// smoke-test sizes (2 rounds of a fraction of the work).
func newWorkload(name string, seed int64, short bool) (workload, error) {
	switch name {
	case "ingest_clean", "ingest_lossy":
		sizes := ingestSizes{rounds: 10, burstOps: 90, pacedOps: 10}
		if short {
			sizes = ingestSizes{rounds: 2, burstOps: 12, pacedOps: 3}
		}
		return newIngestWorkload(name == "ingest_lossy", seed, sizes), nil
	case "fed_handoff":
		sizes := ingestSizes{rounds: 3, burstOps: 90, pacedOps: 10}
		if short {
			sizes = ingestSizes{rounds: 2, burstOps: 12, pacedOps: 3}
		}
		return newFedWorkload(seed, sizes)
	case "diagnose_storm":
		sizes := stormSizes{rounds: 10, perRound: 200}
		if short {
			sizes = stormSizes{rounds: 2, perRound: 12}
		}
		return newStormWorkload(seed, sizes), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name     = flag.String("workload", "", "workload to run: ingest_clean, ingest_lossy, diagnose_storm or fed_handoff")
		seed     = flag.Int64("seed", 1, "seed of the input generator")
		seconds  = flag.Int("seconds", 30, "measured wall time to aim for")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics instead of the end-to-end ones")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the spans to this file as JSON")
		aa       = flag.Bool("aa", false, "run every workload twice and compare the two sets against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	// The benchmark models a 2-vCPU monitoring node whatever the host: one
	// generator goroutine and one observer goroutine beside the system.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	if *aa {
		return runAA(*seed, *seconds)
	}
	w, err := newWorkload(*name, *seed, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "podbench:", err)
		return 2
	}
	budget := time.Duration(*seconds) * time.Second
	if *trace != 0 {
		return runTraced(w, *seed, budget, *traceOut)
	}
	res, err := runWorkload(w, *seed, runOptions{budget: budget, warmup: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "podbench:", err)
		return 1
	}
	res.print(os.Stdout)
	metrics := make(map[string]metricValue, len(e2eUnits))
	for _, m := range e2eUnits {
		metrics[m.name] = metricValue{res.e2e[m.name], m.unit}
	}
	return emit(res.attempted, res.failed, metrics)
}

// metricValue is one reported metric in the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the result object as the last line of standard output and
// returns the process exit code.
func emit(attempted, failed int, metrics map[string]metricValue) int {
	if attempted < 1 {
		attempted = 1
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{failed == 0, attempted, failed, metrics}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "podbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}
