package main

import (
	"context"
	"fmt"
	"time"

	"poddiagnosis/internal/chaos"
	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/core"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/obs/flight"
	"poddiagnosis/internal/simaws"
)

// ingestSizes are a workload's frozen per-epoch dimensions.
type ingestSizes struct {
	rounds, burstOps, pacedOps int
}

// ingestWorkload covers ingest_clean and ingest_lossy: one Manager fed
// interleaved clean traces, directly or through the lossy chaos tap.
type ingestWorkload struct {
	lossy bool
	seed  int64
	plan  *ingestPlan
}

func newIngestWorkload(lossy bool, seed int64, sizes ingestSizes) *ingestWorkload {
	return &ingestWorkload{
		lossy: lossy, seed: seed,
		plan: newGenerator(seed).ingestPlan(sizes.rounds, sizes.burstOps, sizes.pacedOps, nil),
	}
}

func (w *ingestWorkload) name() string {
	if w.lossy {
		return "ingest_lossy"
	}
	return "ingest_clean"
}

func (w *ingestWorkload) unit() string { return "line" }

// timers: on the lossy stream the slow tail of result latency is the
// reorder window running out on a timer.
func (w *ingestWorkload) timers() timerBound { return timerBound{p95: w.lossy} }

func (w *ingestWorkload) digest() string { return w.plan.digest }
func (w *ingestWorkload) rounds() int    { return len(w.plan.rounds) }

// ingestEpoch is one freshly built Manager and the stream feeding it.
type ingestEpoch struct {
	stream
	w    *ingestWorkload
	mgr  *core.Manager
	sess []*core.Session // by plan op index
	// gaps0 is the reorder buffer's gap count at the last round boundary.
	gaps0 uint64
}

// ingestExpect is what every ingest-shaped session is told to expect; with
// assertions off only the names matter.
var ingestExpect = core.Expectation{ASGName: "pm--asg", ELBName: "pm-elb", ClusterSize: clusterSize}

// ingestManagerConfig is the Manager every ingest-shaped workload runs:
// assertions off (conformance is the subject), flight recorder on.
func ingestManagerConfig(cloud *simaws.Cloud, bus *logging.Bus) core.ManagerConfig {
	return core.ManagerConfig{
		Cloud:             cloud,
		Bus:               bus,
		DisableAssertions: true,
		// Nothing may be retired under the oracle: the default 10 min of
		// simulated retention is 0.6 s of wall time here.
		Retention: 24 * time.Hour,
	}
}

// idleCloud is a simulated account whose reconciler is deliberately never
// started: at FastProfile's 1 ms tick on a ×1000 clock it would wake every
// microsecond of wall time and bill ~25 µs of CPU to every line (README,
// "Measurement traps").
func idleCloud(clk clock.Clock, seed int64) *simaws.Cloud {
	return simaws.New(clk, simaws.FastProfile(), simaws.WithSeed(seed))
}

func (w *ingestWorkload) newEpoch(tr *tracer) (epoch, error) {
	clk := clock.NewScaled(clockScale, simEpoch)
	e := &ingestEpoch{w: w}
	bus := logging.NewBus()
	e.stream = newStream(tr, bus, w.plan.units)
	cfg := ingestManagerConfig(idleCloud(clk, w.seed), bus)
	if w.lossy {
		p, _ := chaos.ByName("lossy")
		p.Seed = w.seed
		cfg.LogTap = p.LogTap(clk)
		cfg.ChaosLabel = p.Name
		// The default 30 s hold is 30 ms of wall time here: one scheduling
		// stall that long on a shared box lets the hold lapse between two
		// gaps, and the lines processed before the next gap re-arms it are
		// judged at full confidence. Gaps arrive every ~10 lines, so a
		// longer hold changes no work, only removes that flake.
		cfg.DegradedHold = 10 * time.Minute
	}
	mgr, err := core.NewManager(cfg)
	if err != nil {
		e.obs.stop()
		bus.Close()
		return nil, err
	}
	e.mgr = mgr
	e.lossy, e.reorder = w.lossy, mgr.ReorderStats
	mgr.Start()
	e.sess = make([]*core.Session, len(w.plan.ops))
	for i, op := range w.plan.ops {
		sp := tr.begin("core.watch", op.id)
		s, err := mgr.Watch(ingestExpect, core.WithSessionID(op.id), core.BindInstance(op.task))
		tr.end(sp)
		if err != nil {
			e.close()
			return nil, err
		}
		e.sess[i] = s
	}
	return e, nil
}

func (e *ingestEpoch) close() {
	e.obs.stop()
	e.mgr.Stop()
	e.bus.Close()
}

func (e *ingestEpoch) round(r int) roundSample {
	rd := e.w.plan.rounds[r]
	d0, u0, l0 := chaosDropped.Value(), chaosDuplicated.Value(), chaosDelayed.Value()
	var h roundHooks
	if e.lossy {
		h.repaired = func() map[int]bool { return e.heldLines(rd.pacedOps) }
	}
	s := e.driveRound(r, rd, h)
	if e.lossy {
		s.count("chaos.dropped", chaosDropped.Value()-d0)
		s.count("chaos.duplicated", chaosDuplicated.Value()-u0)
		s.count("chaos.delayed", chaosDelayed.Value()-l0)
		gaps := e.mgr.ReorderStats().Gaps
		s.count("pipeline.gaps", float64(gaps-e.gaps0))
		e.gaps0 = gaps
	}
	for _, ops := range [][]int{rd.burstOps, rd.pacedOps} {
		for _, i := range ops {
			sess := e.sess[i]
			if !e.lossy {
				settle(sessionSettle, func() bool { return sess.State() == core.SessionEnded })
			}
			checkSession(&s, r, sess.ID(), sess.State(), sess.Detections(), e.lossy)
		}
	}
	return s
}

// heldLines reads, from the flight timelines of the given operations,
// which of their lines the reorder buffer held back or released after a
// declared gap. The Manager stamps that on the event and the session's
// log.event entry keeps it, with the line's own Timestamp. Such a line
// waited out the reorder window — a configuration constant on a timer — so
// it says nothing about how fast the system served it.
func (e *ingestEpoch) heldLines(ops []int) map[int]bool {
	held := map[int]bool{}
	for _, i := range ops {
		for _, en := range e.sess[i].Timeline(flight.KindLogEvent).Entries {
			if en.Attrs["reorder"] != "" {
				held[unitIndex(en.At)] = true
			}
		}
	}
	return held
}

// checkSession is the per-operation half of the ingest oracle, applied to
// every operation a round fed.
func checkSession(s *roundSample, r int, id string, state core.SessionState, dets []core.Detection, lossy bool) {
	s.count("core.detections", float64(len(dets)))
	if lossy {
		// The final line may itself have been dropped, so a lossy session
		// need not end; what it must never do is raise a full-confidence
		// detection out of a hole in its stream.
		for _, d := range dets {
			if !d.Degraded {
				s.fail(1, fmt.Sprintf("round %d: %s raised a non-degraded detection (%s)", r, id, d.TriggerID))
			}
		}
		return
	}
	if len(dets) > 0 {
		s.fail(len(dets), fmt.Sprintf("round %d: %s raised %d detections on a clean trace", r, id, len(dets)))
	}
	if state != core.SessionEnded {
		s.fail(1, fmt.Sprintf("round %d: %s is %s after its trace completed", r, id, state))
	}
}

// sessionSettle is how long the per-session oracle gives the pipeline
// goroutine to finish the line whose verdict ended the round: the verdict
// is published from inside OnConformance, before the same line's
// OnProcessEnd has ended the session.
const sessionSettle = 200 * time.Millisecond

// settle polls done, outside any timed window, until it holds or the wall
// deadline passes; the caller's oracle then judges whatever state it finds.
func settle(limit time.Duration, done func() bool) {
	deadline := wallNow().Add(limit)
	for !done() && wallNow().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
}

// finish applies the epoch-level oracle and drains the worker pool (lossy
// runs diagnose degraded detections on it) so nothing of this epoch bleeds
// into the next one's numbers.
func (e *ingestEpoch) finish() roundSample {
	var s roundSample
	drain(&s, e.mgr, !e.lossy)
	if e.lossy {
		stale := e.stale()
		s.count("pipeline.stale_discards", float64(stale))
		verdicts, want := e.obs.count.Load(), e.published-e.chaosDrops()-stale
		if verdicts != want {
			s.fail(abs(int(want-verdicts)), fmt.Sprintf("epoch: %d verdicts, want %d (published %d − dropped %d − stale %d)",
				verdicts, want, e.published, e.chaosDrops(), stale))
		}
	}
	return s
}

// drain waits for a Manager's backlog to clear. Drain's timeout is
// simulated time — 60 s is 60 ms of wall clock at ×1000 — so the stranded
// snapshot is what gets judged, not the bare bool.
func drain(s *roundSample, mgr *core.Manager, strict bool) {
	if ok, q := mgr.DrainStranded(context.Background(), 60*time.Second); !ok && strict {
		s.fail(q.Depth(), fmt.Sprintf("drain stranded %d items", q.Depth()))
	}
}
