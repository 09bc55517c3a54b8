package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/chaos"
	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/conformance"
	"poddiagnosis/internal/core"
	"poddiagnosis/internal/diagnosis"
	"poddiagnosis/internal/federate"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/logstore"
	"poddiagnosis/internal/obs/flight"
	"poddiagnosis/internal/pipeline"
	"poddiagnosis/internal/process"
	"poddiagnosis/internal/remediate"
	"poddiagnosis/internal/resilience"
	"poddiagnosis/internal/simaws"
)

// The isolated replay: the same generated inputs pushed through each
// layer's public entry point on ONE goroutine — which also makes it the
// single-threaded baseline. Where the benchmark can stand between two
// layers (the reorder buffer's deliver callback, the processor's router and
// sink) the spans nest and self time falls out of the arithmetic. Layers
// that are only ever called from inside another one (token replay and the
// flight ring inside Session.OnConformance) are probed standalone; their
// figures say how much of the enclosing layer they explain and are kept out
// of the coverage sum so nothing is counted twice.

// probeResult is what a replay adds beside its spans.
type probeResult struct {
	// units is how many workload units the chain replayed; chain layers'
	// per-unit self time divides by it.
	units int
	// counts are probe-level counters (snapshot sizes, ...).
	counts map[string]float64
}

// spanHandler stands between the processor and a Session.
type spanHandler struct {
	tr   *tracer
	sess *core.Session
}

func (h spanHandler) OnConformance(id, line string, ev logging.Event) {
	sp := h.tr.begin("core.session", h.sess.ID())
	h.sess.OnConformance(id, line, ev)
	h.tr.end(sp)
}

func (h spanHandler) OnStepEvent(id string, n *process.Node, ev logging.Event) {
	sp := h.tr.begin("core.session", h.sess.ID())
	h.sess.OnStepEvent(id, n, ev)
	h.tr.end(sp)
}

func (h spanHandler) OnErrorLine(id, line string, ev logging.Event) {
	h.sess.OnErrorLine(id, line, ev)
}

func (h spanHandler) OnProcessStart(id string, ev logging.Event) {
	sp := h.tr.begin("core.session", h.sess.ID())
	h.sess.OnProcessStart(id, ev)
	h.tr.end(sp)
}

func (h spanHandler) OnProcessEnd(id string, ev logging.Event) {
	sp := h.tr.begin("core.session", h.sess.ID())
	h.sess.OnProcessEnd(id, ev)
	h.tr.end(sp)
}

// spanSink stands between the processor and central storage.
type spanSink struct {
	tr    *tracer
	store *logstore.Store
}

func (s spanSink) Write(ev logging.Event) {
	sp := s.tr.begin("logstore.write", "")
	s.store.Write(ev)
	s.tr.end(sp)
}

// stamped returns the plan's lines in publish order carrying the sequence
// and causality numbers the bus would have stamped on them.
func stamped(plan *ingestPlan) []logging.Event {
	out := make([]logging.Event, 0, plan.units)
	for _, rd := range plan.rounds {
		out = append(out, rd.burst...)
		out = append(out, rd.paced...)
	}
	for i := range out {
		out[i].Seq, out[i].CauseID = uint64(i+1), uint64(i+1)
	}
	return out
}

// throughTap runs the stamped stream through the seeded lossy tap, in
// batches so the tap's cost per line can be read off a span, and returns
// the stream as the reorder buffer would see it.
func throughTap(tr *tracer, clk clock.Clock, seed int64, evs []logging.Event) []logging.Event {
	p, _ := chaos.ByName("lossy")
	p.Seed = seed
	in := make(chan logging.Event)
	out := p.LogTap(clk)(in)
	done := make(chan []logging.Event)
	go func() {
		var got []logging.Event
		for ev := range out {
			got = append(got, ev)
		}
		done <- got
	}()
	const batch = 100
	for lo := 0; lo < len(evs); lo += batch {
		hi := lo + batch
		if hi > len(evs) {
			hi = len(evs)
		}
		sp := tr.beginN("chaos.tap", "", hi-lo)
		for _, ev := range evs[lo:hi] {
			in <- ev // unbuffered: returns once the tap has taken the line
		}
		tr.end(sp)
	}
	close(in)
	return <-done
}

// degradeAll drives every session of mgr into degraded mode through the
// only public path there is: a declared sequence gap on the shared
// shipping fabric. Two noise lines on a stream of their own, sequence 1
// and 3, leave a hole the reorder buffer gives up on after its window.
func degradeAll(bus *logging.Bus, mgr *core.Manager) error {
	for _, seq := range []uint64{1, 3} {
		bus.Publish(logging.Event{
			Source: "podbench-gap.log", SourceHost: opHost, Type: logging.TypeOperation,
			Seq: seq, Message: "podbench: stream gap marker",
		})
	}
	declared := func() bool { return mgr.ReorderStats().Gaps > 0 }
	if settle(2*time.Second, declared); !declared() {
		return fmt.Errorf("reorder buffer declared no gap within 2 s")
	}
	return nil
}

// probeIngest replays one epoch's lines through reorder → process →
// {session, central store}, then probes the layers that only run inside a
// Session. kind is the workload name; it selects the lossy stream and the
// federation-only snapshot probes.
func probeIngest(tr *tracer, kind string, plan *ingestPlan, seed int64) (probeResult, error) {
	res := probeResult{counts: map[string]float64{}}
	lossy := kind == "ingest_lossy"
	clk := clock.NewScaled(clockScale, simEpoch)
	bus := logging.NewBus()
	defer bus.Close()
	cfg := ingestManagerConfig(idleCloud(clk, seed), bus)
	cfg.DegradedHold = 24 * time.Hour // outlasts the replay once degradeAll has armed it
	mgr, err := core.NewManager(cfg)
	if err != nil {
		return res, err
	}
	mgr.Start()
	defer mgr.Stop()

	handlers := make(map[string]pipeline.Handler, len(plan.ops))
	for _, op := range plan.ops {
		s, err := mgr.Watch(ingestExpect, core.WithSessionID(op.id), core.BindInstance(op.task))
		if err != nil {
			return res, err
		}
		handlers[op.task] = spanHandler{tr, s}
	}

	arriving := stamped(plan)
	res.units = len(arriving)
	if lossy {
		arriving = throughTap(tr, clk, seed, arriving)
		if err := degradeAll(bus, mgr); err != nil {
			return res, err
		}
	}

	store := logstore.NewStore()
	proc := pipeline.NewRouted(process.RollingUpgradeModel(), spanSink{tr, store},
		func(id string, _ logging.Event) pipeline.Handler { return handlers[id] })
	var repaired []logging.Event
	reorder := pipeline.NewReorderBuffer(clk, pipeline.ReorderOptions{}, func(d pipeline.Delivery) {
		repaired = append(repaired, d.Event)
		sp := tr.begin("pipeline.process", "")
		proc.Process(d.Event)
		tr.end(sp)
	})
	for _, ev := range arriving {
		sp := tr.begin("pipeline.reorder", "")
		reorder.Offer(ev)
		tr.end(sp)
	}
	sp := tr.begin("pipeline.reorder", "close")
	reorder.Close()
	tr.end(sp)

	// The central merge: every verdict a session publishes is stored a
	// second time by the central processor.
	central := logstore.NewCentralProcessor(store, nil)
	for _, ev := range repaired {
		verdict := logging.Event{Timestamp: ev.Timestamp, Type: logging.TypeConformance, Message: ev.Message}
		sp := tr.begin("logstore.write", "central")
		central.Process(verdict)
		tr.end(sp)
	}

	probeSessionInternals(tr, clk, repaired, lossy)
	if kind == "fed_handoff" {
		if err := probeSnapshots(tr, mgr, plan, seed, clk, bus, &res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// probeSessionInternals times the two layers that only ever run inside
// Session.OnConformance: the token replay and the flight ring.
func probeSessionInternals(tr *tracer, clk clock.Clock, repaired []logging.Event, lossy bool) {
	checker := conformance.NewChecker(process.RollingUpgradeModel())
	rec := flight.NewRecorder(clk, 0)
	for _, ev := range repaired {
		task, body := ev.Field("taskid"), pipeline.BodyOf(ev)
		if lossy {
			sp := tr.begin("conformance.checklossy", task)
			checker.CheckLossy(task, body, ev.Timestamp, true)
			tr.end(sp)
		} else {
			sp := tr.begin("conformance.check", task)
			checker.Check(task, body, ev.Timestamp)
			tr.end(sp)
		}
		ring := rec.Op(task)
		entry := flight.Entry{
			Kind: flight.KindLogEvent, At: ev.Timestamp, Seq: ev.Seq, Cause: ev.CauseID,
			Message: ev.Message, Attrs: map[string]string{"instance": task},
		}
		sp := tr.begin("flight.record", task)
		ring.Record(entry)
		tr.end(sp)
	}
}

// probeSnapshots exports every replayed session and restores it on a
// second Manager: the per-session work behind a heartbeat and a failover.
func probeSnapshots(tr *tracer, mgr *core.Manager, plan *ingestPlan, seed int64, clk clock.Clock, bus *logging.Bus, res *probeResult) error {
	adopter, err := core.NewManager(ingestManagerConfig(idleCloud(clk, seed), bus))
	if err != nil {
		return err
	}
	adopter.Start()
	defer adopter.Stop()
	renewal := federate.Renewal{}
	var snapBytes int
	for _, op := range plan.ops {
		sp := tr.begin("core.export", op.id)
		snap, err := mgr.ExportSession(op.id)
		tr.end(sp)
		if err != nil {
			return err
		}
		b, err := json.Marshal(snap)
		if err != nil {
			return err
		}
		snapBytes += len(b)
		renewal.Snapshots = append(renewal.Snapshots, snap)
		sp = tr.begin("core.restore", op.id)
		_, err = adopter.RestoreSession(snap)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	res.counts["core.snapshot_bytes"] = float64(snapBytes) / float64(len(plan.ops))
	// One member's renewal carries a third of the sessions on average.
	b, err := json.Marshal(renewal)
	if err != nil {
		return err
	}
	res.counts["federate.heartbeat_bytes"] = float64(len(b)) / float64(len(fedMemberIDs))
	return nil
}

// stormParams are the assertion parameters a storm session resolves for
// its step assertion (the expectation plus want = progress = 1).
func stormParams(x core.Expectation) assertion.Params {
	return assertion.Params{
		assertion.ParamASG: x.ASGName, assertion.ParamELB: x.ELBName,
		assertion.ParamAMI: x.NewImageID, assertion.ParamVersion: x.NewVersion,
		assertion.ParamLC: x.NewLCName, assertion.ParamKeyPair: x.KeyName,
		assertion.ParamSG: x.SGName, assertion.ParamInstanceType: x.InstanceType,
		assertion.ParamWant: "1",
	}
}

// probeStorm replays the storm's units through assertion → diagnosis →
// remediation by hand, one after the other, then probes the layers those
// three call into.
func probeStorm(tr *tracer, w *stormWorkload) (probeResult, error) {
	res := probeResult{counts: map[string]float64{}}
	ep, err := w.newEpoch(nil)
	if err != nil {
		return res, err
	}
	e := ep.(*stormEpoch)
	defer e.close()
	mgr := e.mgr
	params := stormParams(e.expect)
	ops := w.plan.ops
	if len(ops) > w.per {
		ops = ops[:w.per] // one round's worth: every unit is the same work
	}
	res.units = len(ops)
	for i, op := range ops {
		ring := mgr.Flight().Op(op.id)
		anchor := ring.Record(flight.Entry{Kind: flight.KindLogEvent, Message: w.plan.rounds[0][i].Message})
		trig := assertion.Trigger{Source: assertion.TriggerLog, ProcessInstanceID: op.task, StepID: process.StepNewReady}

		sp := tr.begin("assertion.evaluate", op.id)
		ares := mgr.Evaluator().Evaluate(context.Background(), assertion.CheckASGVersionCount, params, trig)
		tr.end(sp)
		if ares.Passed() {
			return res, fmt.Errorf("probe: step assertion passed on the faulted cluster")
		}

		ctx := flight.WithParent(flight.NewContext(context.Background(), ring), anchor)
		sp = tr.begin("diagnosis.diagnose", op.id)
		d := mgr.Diagnoser().Diagnose(ctx, diagnosis.Request{
			AssertionID: assertion.CheckASGVersionCount, Source: diagnosis.SourceAssertion,
			ProcessInstanceID: op.task, StepID: process.StepNewReady,
			Params: params, Detail: ares.Message,
		})
		tr.end(sp)
		if !d.HasCause(stormCause) {
			return res, fmt.Errorf("probe: diagnosis concluded %q, want %s", d.Conclusion, stormCause)
		}

		for _, c := range d.RootCauses {
			sp = tr.begin("remediate.trigger", op.id)
			mgr.Remediator().Trigger(context.Background(), remediate.Trigger{
				Operation: op.id, CauseNode: c.NodeID, CausePath: c.Path, CauseEntry: c.EvidenceID,
				StepID: process.StepNewReady, Flight: ring,
				Target: remediate.Target{
					Cloud: e.cloud, ASGName: e.expect.ASGName, ELBName: e.expect.ELBName,
					NewLCName: e.expect.NewLCName, OldLCName: e.expect.OldLCName, ClusterSize: e.expect.ClusterSize,
				},
			})
			tr.end(sp)
		}
	}
	res.counts["consistentapi.retries"] = probeStormInternals(tr, mgr, e.cloud, e.expect.ASGName, params, len(ops))
	return res, nil
}

// probeStormInternals times the layers assertion evaluation and the plan
// walk call into, n calls each, and returns how many API calls the
// consistent-API layer made beyond one per read.
func probeStormInternals(tr *tracer, mgr *core.Manager, cloud *simaws.Cloud, asg string, params assertion.Params, n int) (retries float64) {
	ctx := context.Background()
	client := mgr.Evaluator().Client()
	plans := mgr.Diagnoser().Catalog().Select(assertion.CheckASGVersionCount)
	resil := mgr.Diagnoser().Resilience()
	for i := 0; i < n; i++ {
		sp := tr.begin("simaws.describe", "")
		_, _ = cloud.DescribeAutoScalingGroup(ctx, asg) // timing probe: the result is irrelevant
		tr.end(sp)

		sp = tr.beginN("diagplan.instantiate", "", len(plans))
		for _, p := range plans {
			p.Instantiate(params).Prune(process.StepNewReady)
		}
		tr.end(sp)

		sp = tr.begin("resilience.do", "")
		resil.Do(ctx, "podbench-probe", func(context.Context) resilience.Verdict { return resilience.VerdictOK })
		tr.end(sp)
	}
	// The read whose expectation is unmet, as the storm's failing assertion
	// and confirming test make it: one API call, then one back-off sleep
	// even though no attempt is left.
	unmet := func(simaws.ASG) bool { return false }
	before := snapMetrics()
	for i := 0; i < n; i++ {
		sp := tr.begin("consistentapi.call", "")
		_, _, _ = client.DescribeASG(ctx, asg, unmet) // timing probe
		tr.end(sp)
	}
	calls := metricSnap{}
	calls.addSince(before, snapMetrics())
	return calls.sum("pod_simaws_api_calls_total", "") - float64(n)
}
