package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"time"

	"poddiagnosis/internal/logging"
)

// The generator turns a seed into everything the system under test is fed:
// operation ids, log-line bodies, the order lines interleave in, and (for
// ingest_lossy) where the shipping fabric loses, duplicates and delays
// them. The program sees only these inputs; the digest printed by every run
// identifies the stream.

const (
	// clusterSize fixes the rolling-upgrade trace at 4+4n+1 = 21 lines.
	clusterSize = 4
	// unitStep spaces the unique event timestamps that key a unit: the
	// conformance verdict echoes its line's Timestamp, which is how a
	// result finds its way back to the unit that caused it.
	unitStep = time.Millisecond

	opSource = "asgard.log"
	opHost   = "operation-node"
)

// unitBase is the Timestamp of unit 0.
var unitBase = time.Date(2013, 10, 24, 11, 0, 0, 0, time.UTC)

func unitIndex(ts time.Time) int { return int(ts.Sub(unitBase) / unitStep) }

// opSpec is one generated operation: the session id it is watched under
// and the process-instance (task) id its log lines carry.
type opSpec struct {
	id   string
	task string
}

// ingestRound is the traffic of one round: a closed-loop burst slice and
// an open-loop paced slice, each the interleaved traces of its own
// operations (indexes into ingestPlan.ops).
type ingestRound struct {
	burst, paced       []logging.Event
	burstOps, pacedOps []int
}

// ingestPlan is one epoch's generated traffic. Epochs replay the same plan
// against a fresh system, so session ids are reused across epochs.
type ingestPlan struct {
	ops    []opSpec
	rounds []ingestRound
	units  int
	digest string
}

type generator struct {
	rng *rand.Rand
	h   hash.Hash64
	// next is the index of the next unit to be stamped.
	next int
}

func newGenerator(seed int64) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed)), h: fnv.New64a()}
}

func (g *generator) digest() string { return fmt.Sprintf("%016x", g.h.Sum64()) }

// event stamps one operation log line as the next unit.
func (g *generator) event(task, body string) logging.Event {
	ts := unitBase.Add(time.Duration(g.next) * unitStep)
	g.next++
	msg := logging.FormatOperationLine(ts, task, body)
	g.h.Write([]byte(task))
	g.h.Write([]byte{0})
	g.h.Write([]byte(msg))
	g.h.Write([]byte{0})
	return logging.Event{
		Timestamp:  ts,
		Source:     opSource,
		SourceHost: opHost,
		Type:       logging.TypeOperation,
		Fields:     map[string]string{"taskid": task},
		Message:    msg,
	}
}

// instanceID draws an EC2-style id matching the pipeline's extraction
// pattern (i-[0-9a-f]+).
func (g *generator) instanceID() string { return fmt.Sprintf("i-%08x", g.rng.Uint32()) }

// cleanTrace is the body of every line of one conforming n-instance
// rolling upgrade (the shape internal/upgrade emits).
func (g *generator) cleanTrace(asg, elb, ami string, n int) []string {
	lc := asg + "-lc-" + ami
	lines := []string{
		fmt.Sprintf("Starting rolling upgrade of group %s to image %s", asg, ami),
		fmt.Sprintf("Created launch configuration %s with image %s", lc, ami),
		fmt.Sprintf("Updated group %s to launch configuration %s", asg, lc),
		fmt.Sprintf("Sorted %d instances for replacement", n),
	}
	for i := 0; i < n; i++ {
		old, fresh := g.instanceID(), g.instanceID()
		lines = append(lines,
			fmt.Sprintf("Removed and deregistered instance %s from ELB %s", old, elb),
			fmt.Sprintf("Terminating old instance %s", old),
			fmt.Sprintf("Waiting for group %s to start a new instance", asg),
			fmt.Sprintf("Instance pm on %s is ready for use. %d of %d instance relaunches done.", fresh, i+1, n),
		)
	}
	return append(lines, "Rolling upgrade task completed")
}

// interleave merges per-operation traces into one stream that preserves
// each trace's order: a round-robin over a seeded permutation of the
// operations, each joining the ring after a seeded stagger of 0–3 passes.
func (g *generator) interleave(tasks []string, traces [][]string) []logging.Event {
	order := g.rng.Perm(len(traces))
	stagger := make([]int, len(traces))
	total := 0
	for i, tr := range traces {
		stagger[i] = g.rng.Intn(4)
		total += len(tr)
	}
	cursor := make([]int, len(traces))
	out := make([]logging.Event, 0, total)
	for pass := 0; len(out) < total; pass++ {
		for _, i := range order {
			if pass < stagger[i] || cursor[i] >= len(traces[i]) {
				continue
			}
			out = append(out, g.event(tasks[i], traces[i][cursor[i]]))
			cursor[i]++
		}
	}
	return out
}

// ingestPlan generates one epoch of ingest traffic: rounds × (burstOps +
// pacedOps) operations, each fed exactly once. lastPaced, when set, picks
// the operations (by index) of the final round's paced slice; the rest fill
// the other slices in order.
func (g *generator) ingestPlan(rounds, burstOps, pacedOps int, lastPaced func([]opSpec) []int) *ingestPlan {
	p := &ingestPlan{ops: make([]opSpec, rounds*(burstOps+pacedOps))}
	for k := range p.ops {
		p.ops[k] = opSpec{
			// The constant tail matters to fed_handoff only: the front's
			// FNV-1a ring spreads a varying last byte over ~6% of the
			// hash space, and with bare "op-0000"… ids one member owned
			// 293 of 300 operations. With the tail it is 53/91/156.
			id:   fmt.Sprintf("upgrade-%04d-task", k),
			task: fmt.Sprintf("pushing pm--asg %04d-%06x", k, g.rng.Intn(1<<24)),
		}
	}
	order := make([]int, 0, len(p.ops))
	var tail []int
	if lastPaced != nil {
		tail = lastPaced(p.ops)
	}
	pinned := make(map[int]bool, len(tail))
	for _, k := range tail {
		pinned[k] = true
	}
	for k := range p.ops {
		if !pinned[k] {
			order = append(order, k)
		}
	}
	order = append(order, tail...)

	slice := func(n int) ([]int, []logging.Event) {
		idx := order[:n]
		order = order[n:]
		tasks := make([]string, n)
		traces := make([][]string, n)
		for i, k := range idx {
			tasks[i] = p.ops[k].task
			traces[i] = g.cleanTrace("pm--asg", "pm-elb", fmt.Sprintf("ami-%08x", g.rng.Uint32()), clusterSize)
		}
		return idx, g.interleave(tasks, traces)
	}
	for r := 0; r < rounds; r++ {
		var rd ingestRound
		rd.burstOps, rd.burst = slice(burstOps)
		rd.pacedOps, rd.paced = slice(pacedOps)
		p.rounds = append(p.rounds, rd)
	}
	p.units = g.next
	p.digest = g.digest()
	return p
}

// stormPlan is one epoch of diagnose_storm traffic: every operation
// contributes the single "ready for use" line that fires its step
// assertion.
type stormPlan struct {
	ops    []opSpec
	rounds [][]logging.Event // rounds[r][i] belongs to ops[r*perRound+i]
	digest string
}

func (g *generator) stormPlan(rounds, perRound int, asg string) *stormPlan {
	p := &stormPlan{}
	for r := 0; r < rounds; r++ {
		evs := make([]logging.Event, perRound)
		for i := range evs {
			k := len(p.ops)
			op := opSpec{
				id:   fmt.Sprintf("storm-%05d", k),
				task: fmt.Sprintf("pushing %s %05d-%06x", asg, k, g.rng.Intn(1<<24)),
			}
			p.ops = append(p.ops, op)
			evs[i] = g.event(op.task, fmt.Sprintf(
				"Instance pm on %s is ready for use. 1 of 2 instance relaunches done.", g.instanceID()))
		}
		p.rounds = append(p.rounds, evs)
	}
	p.digest = g.digest()
	return p
}
