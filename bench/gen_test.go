package main

import (
	"testing"

	"poddiagnosis/internal/logging"
)

// TestStreamDigest: the same seed generates the same stream, another seed
// another one — on every workload.
func TestStreamDigest(t *testing.T) {
	for _, name := range workloadNames {
		digest := func(seed int64) string {
			w, err := newWorkload(name, seed, true)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return w.digest()
		}
		a, again, b := digest(1), digest(1), digest(2)
		if a != again {
			t.Errorf("%s: seed 1 gave %s then %s", name, a, again)
		}
		if a == b {
			t.Errorf("%s: seeds 1 and 2 both gave %s", name, a)
		}
	}
}

func TestIngestPlanFeedsEveryOperationOnce(t *testing.T) {
	p := newGenerator(3).ingestPlan(3, 5, 2, func(ops []opSpec) []int { return []int{4, 9} })
	fed := map[int]int{}
	lines := 0
	for _, rd := range p.rounds {
		for _, i := range append(append([]int(nil), rd.burstOps...), rd.pacedOps...) {
			fed[i]++
		}
		lines += len(rd.burst) + len(rd.paced)
	}
	if len(fed) != len(p.ops) {
		t.Fatalf("%d of %d operations fed", len(fed), len(p.ops))
	}
	for i, n := range fed {
		if n != 1 {
			t.Errorf("operation %d fed %d times", i, n)
		}
	}
	if want := len(p.ops) * (4 + 4*clusterSize + 1); lines != want || p.units != want {
		t.Errorf("%d lines, %d units, want %d", lines, p.units, want)
	}
	last := p.rounds[len(p.rounds)-1].pacedOps
	if len(last) != 2 || last[0] != 4 || last[1] != 9 {
		t.Errorf("final paced slice feeds %v, want the pinned [4 9]", last)
	}
	seen := map[int]bool{}
	for _, rd := range p.rounds {
		for _, ev := range append(append([]logging.Event(nil), rd.burst...), rd.paced...) {
			i := unitIndex(ev.Timestamp)
			if i < 0 || i >= p.units || seen[i] {
				t.Fatalf("unit index %d out of range or repeated", i)
			}
			seen[i] = true
		}
	}
}
