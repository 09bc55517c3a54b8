package main

import (
	"fmt"
	"regexp"
	"time"
)

// The sizing box does not run at one speed. Its two vCPUs flip, for
// milliseconds or for minutes, between a fast state and one about 1.65×
// slower (a busy sibling thread, most likely): the same ingest work cost 42
// µs of CPU per line in one 28 s run and 70 µs in the next, whole runs
// apart by more than any regression bound. No estimator over the rounds of
// one run can see through that — every round of the run is slow. So the
// benchmark measures the box too: a fixed kernel of its own is timed before
// and after every burst slice, and CPU-bound figures are reported as they
// would read at reference speed.

const (
	// calReference is the kernel's duration on the reference box — the
	// sizing box in its usual (slow) state, so that reported figures read
	// like measured ones there.
	calReference = time.Millisecond
	// speedExponent is the share of an ingest unit's time that scales with
	// core speed: when the kernel slowed 1.65×, the ingest workloads slowed
	// 1.4× (their working set does not fit in cache; the kernel's does).
	// Measured on 33 runs of two workloads: normalising with 0.7 took the
	// run-to-run spread of work_per_s from 7.6% to 2.8% (ingest_clean) and
	// from 14% to 2.5% (fed_handoff); 1.0 over-corrects (4.8%, 7.7%).
	speedExponent = 0.7
)

var calPattern = regexp.MustCompile(`Instance \S+ on (i-[0-9a-f]+) is ready for use\. (\d+) of (\d+)`)

// calSink keeps the kernel's result alive.
var calSink int

// calibrate times the kernel: the instruction mix of the ingest path —
// format a line, match it against a pattern, bump a map — with none of the
// system's code in it, so no change to the system can move it.
func calibrate() time.Duration {
	t0 := wallNow()
	seen := make(map[string]int, 64)
	for i := 0; i < 600; i++ {
		line := fmt.Sprintf("Instance pm on i-%08x is ready for use. %d of %d instance relaunches done.", uint32(i)*2654435761, i%4+1, 4)
		if m := calPattern.FindStringSubmatch(line); m != nil {
			seen[m[1]] += len(m[2])
		}
		if len(seen) > 48 {
			clear(seen)
		}
	}
	calSink += len(seen)
	return wallSince(t0)
}
