package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the A/A check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA is `-aa`: every workload twice — two sets, the second in reverse
// order, one process per run so peak RSS is per workload — and, per
// workload × end-to-end metric, the relative gap between the two sets
// beside the metric's regression bound. Identical code must agree with
// itself within the bounds it would be judged by; when it does not, the box
// is too noisy to measure on (or a bound is too tight).
func runAA(seed int64, seconds int) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "podbench: -aa runs from the repository root:", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "podbench: BENCHMARK.json:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "podbench:", err)
		return 1
	}
	order := append([]string(nil), workloadNames...)
	var sets [2]map[string]map[string]float64
	for i := range sets {
		sets[i] = map[string]map[string]float64{}
		for _, name := range order {
			fmt.Fprintf(os.Stderr, "set %d: %s\n", i+1, name)
			m, err := runOnce(self, name, seed, seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "podbench: %s: %v\n", name, err)
				return 1
			}
			sets[i][name] = m
		}
		for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
			order[l], order[r] = order[r], order[l]
		}
	}
	breaches := 0
	fmt.Printf("%-15s %-16s %14s %14s %8s %8s\n", "workload", "metric", "set 1", "set 2", "gap", "bound")
	for _, name := range workloadNames {
		for _, m := range bf.EndToEnd {
			a, b := sets[0][name][m.Name], sets[1][name][m.Name]
			gap := math.Abs(a-b) / math.Min(math.Abs(a), math.Abs(b))
			verdict := ""
			if !(gap <= m.Bound) { // also catches NaN
				verdict = "  BREACH"
				breaches++
			}
			fmt.Printf("%-15s %-16s %14.4f %14.4f %7.2f%% %7.2f%%%s\n", name, m.Name, a, b, 100*gap, 100*m.Bound, verdict)
		}
	}
	if breaches > 0 {
		fmt.Printf("A/A: %d breaches\n", breaches)
		return 1
	}
	fmt.Println("A/A: every gap within its bound")
	return 0
}

// runOnce runs one workload in a child process and returns its end-to-end
// metrics, refusing a run whose oracle failed.
func runOnce(self, name string, seed int64, seconds int) (map[string]float64, error) {
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res struct {
		Correct bool                   `json:"correct"`
		Failed  int                    `json:"failed"`
		Metrics map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%d operations failed the oracle", res.Failed)
	}
	m := make(map[string]float64, len(res.Metrics))
	for k, v := range res.Metrics {
		m[k] = v.Value
	}
	return m, nil
}
