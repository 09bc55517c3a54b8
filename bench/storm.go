package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/consistentapi"
	"poddiagnosis/internal/core"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/obs/flight"
	"poddiagnosis/internal/remediate"
	"poddiagnosis/internal/simaws"
	"poddiagnosis/internal/upgrade"
)

const (
	// stormOutstanding is the closed loop's client count: callers that
	// each wait for their diagnosis before sending the next trigger, one
	// per core of the 2-vCPU node the benchmark models.
	stormOutstanding = 2
	// stormSpec binds the one step assertion the storm fires: the
	// high-level version count after a replacement reports ready, the
	// assertion of the paper's Figure 6 diagnosis (BenchmarkDiagnosisTime).
	stormSpec = "on step7 assert asg-version-count want={progress}\n"
	// stormCause is the root cause every diagnosis must confirm.
	stormCause = "wrong-ami"
)

type stormSizes struct {
	rounds, perRound int
}

// stormWorkload is diagnose_storm: the paper's main line, detection →
// confirmed cause → remediation outcome, once per unit.
type stormWorkload struct {
	seed int64
	plan *stormPlan
	per  int
}

func newStormWorkload(seed int64, sizes stormSizes) *stormWorkload {
	return &stormWorkload{
		seed: seed, per: sizes.perRound,
		plan: newGenerator(seed).stormPlan(sizes.rounds, sizes.perRound, "pm--asg"),
	}
}

func (w *stormWorkload) name() string { return "diagnose_storm" }
func (w *stormWorkload) unit() string { return "diagnosis" }

// timers: a storm unit waits out two back-off sleeps on the timer grid and
// spends a quarter of that time on the CPU.
func (w *stormWorkload) timers() timerBound { return timerBound{rate: true, p50: true, p95: true} }

func (w *stormWorkload) digest() string { return w.plan.digest }
func (w *stormWorkload) rounds() int    { return len(w.plan.rounds) }

// conclusionObserver is the storm's observer goroutine: it watches the
// diagnosis log for the line that concludes a plan walk and hands the
// waiting caller its slot back.
type conclusionObserver struct {
	sub   *logging.Subscription
	slots chan struct{}
	count atomic.Int64
	last  atomic.Int64 // unix ns of the latest conclusion
	done  sync.WaitGroup
}

func observeConclusions(bus *logging.Bus) *conclusionObserver {
	o := &conclusionObserver{
		sub:   bus.SubscribeNamed("podbench", 4096, logging.TypeFilter(logging.TypeDiagnosis)),
		slots: make(chan struct{}, stormOutstanding),
	}
	o.done.Add(1)
	go func() {
		defer o.done.Done()
		for ev := range o.sub.C {
			// Every walk ends in exactly one of: "One root cause is
			// identified", "N root causes are identified", "No root cause
			// identified", "Diagnosis inconclusive".
			if !strings.Contains(ev.Message, " identified") && !strings.Contains(ev.Message, "Diagnosis inconclusive") {
				continue
			}
			o.last.Store(wallNow().UnixNano())
			o.count.Add(1)
			select {
			case <-o.slots:
			default: // a walk nobody is waiting on; the oracle will say so
			}
		}
	}()
	return o
}

func (o *conclusionObserver) stop() {
	o.sub.Cancel()
	o.done.Wait()
}

type stormEpoch struct {
	w     *stormWorkload
	tr    *tracer
	clk   *clock.Scaled
	bus   *logging.Bus
	cloud *simaws.Cloud
	mgr   *core.Manager
	sess  []*core.Session
	obs   *conclusionObserver
	// wall0 and sim0 are one reading of both clocks, taken together, so
	// manager-clock timestamps convert to wall time without polling
	// inside a timed window.
	wall0 time.Time
	sim0  time.Time
	// actions is how many catalog actions bind the storm's cause: each
	// diagnosed operation must hold exactly that many remediations.
	actions int
	expect  core.Expectation
}

// faultedCluster deploys a 2-instance cluster and then points its group at
// a launch configuration with the wrong AMI — the fault of
// BenchmarkDiagnosisTime. It returns the expectation of an upgrade to the
// intended image, which the cluster can never meet.
func faultedCluster(ctx context.Context, cloud *simaws.Cloud) (core.Expectation, error) {
	cluster, err := upgrade.Deploy(ctx, cloud, "pm", 2, "v1")
	if err != nil {
		return core.Expectation{}, err
	}
	if err := cluster.WaitReady(ctx, cloud, 10*time.Minute); err != nil {
		return core.Expectation{}, err
	}
	intended, err := cloud.RegisterImage(ctx, "pm-v2", "v2", upgrade.AppServices)
	if err != nil {
		return core.Expectation{}, err
	}
	rogue, err := cloud.RegisterImage(ctx, "rogue", "v9", nil)
	if err != nil {
		return core.Expectation{}, err
	}
	lc := func(name, image string) simaws.LaunchConfig {
		return simaws.LaunchConfig{
			Name: name, ImageID: image, KeyName: cluster.KeyName,
			SecurityGroups: []string{cluster.SGName}, InstanceType: "m1.small",
		}
	}
	newLC := cluster.ASGName + "-lc-" + intended
	if err := cloud.CreateLaunchConfiguration(ctx, lc(newLC, intended)); err != nil {
		return core.Expectation{}, err
	}
	if err := cloud.CreateLaunchConfiguration(ctx, lc("rogue-lc", rogue)); err != nil {
		return core.Expectation{}, err
	}
	if err := cloud.UpdateAutoScalingGroup(ctx, cluster.ASGName, "rogue-lc", -1, -1, -1); err != nil {
		return core.Expectation{}, err
	}
	return core.Expectation{
		ASGName: cluster.ASGName, ELBName: cluster.ELBName,
		NewImageID: intended, NewVersion: "v2",
		NewLCName: newLC, OldLCName: cluster.LCName,
		KeyName: cluster.KeyName, SGName: cluster.SGName, InstanceType: "m1.small",
		ClusterSize: cluster.Size,
	}, nil
}

func (w *stormWorkload) newEpoch(tr *tracer) (epoch, error) {
	e := &stormEpoch{w: w, tr: tr}
	e.clk = clock.NewScaled(clockScale, simEpoch)
	e.wall0, e.sim0 = wallNow(), e.clk.Now()
	e.bus = logging.NewBus()
	// TickInterval is raised from FastProfile's 1 ms: on a ×1000 clock
	// that reconciler would tick every microsecond of wall time.
	profile := simaws.FastProfile()
	profile.TickInterval = time.Second
	e.cloud = simaws.New(e.clk, profile, simaws.WithSeed(w.seed))
	e.cloud.Start()
	expect, err := faultedCluster(context.Background(), e.cloud)
	if err != nil {
		e.cloud.Stop()
		return nil, err
	}
	e.expect = expect
	// Dry-run remediation leaves the cloud untouched, so every round
	// diagnoses the same fault. Conformance is off: a unit is the single
	// line that fires the step assertion, which a token replay of that
	// line alone would call unfit and diagnose a second time.
	policy := remediate.SuggestedPolicy(remediate.ModeDryRun)
	mgr, err := core.NewManager(core.ManagerConfig{
		Cloud: e.cloud, Bus: e.bus,
		AssertionSpec: stormSpec,
		// One attempt per API call. The consistent-API layer sleeps one
		// back-off after every read whose expectation is unmet, the last
		// attempt included, and on the sizing box's ~1.1 ms timer grid
		// every such sleep is one tick: a unit already waits about two
		// ticks (the failing assertion, then the failing diagnosis test
		// that confirms the cause). The fault is persistent and the cloud
		// has no staleness, so more attempts would only add ticks
		// (measured: 19.6 ms p50 at the default 5 attempts).
		API:                consistentapi.Config{MaxAttempts: 1},
		DisableConformance: true,
		Remediation:        policy,
		Retention:          24 * time.Hour,
	})
	if err != nil {
		e.cloud.Stop()
		return nil, err
	}
	e.mgr = mgr
	for _, b := range mgr.Remediator().Catalog().BindingsFor(stormCause) {
		if policy.ModeFor(b.Action.Class) != remediate.ModeOff {
			e.actions++
		}
	}
	mgr.Start()
	e.obs = observeConclusions(e.bus)
	e.sess = make([]*core.Session, len(w.plan.ops))
	for i, op := range w.plan.ops {
		sp := tr.begin("core.watch", op.id)
		s, err := mgr.Watch(expect, core.WithSessionID(op.id), core.BindInstance(op.task))
		tr.end(sp)
		if err != nil {
			e.close()
			return nil, err
		}
		e.sess[i] = s
	}
	return e, nil
}

func (e *stormEpoch) close() {
	e.obs.stop()
	e.mgr.Stop()
	e.cloud.Stop()
	e.bus.Close()
}

// wallOf converts a manager-clock timestamp to wall time.
func (e *stormEpoch) wallOf(sim time.Time) time.Time {
	return e.wall0.Add(time.Duration(float64(sim.Sub(e.sim0)) / clockScale))
}

func (e *stormEpoch) round(r int) roundSample {
	evs := e.w.plan.rounds[r]
	first := r * e.w.per
	var s roundSample
	sent := make([]time.Time, len(evs))
	busDrop0, done0 := e.bus.Dropped(), e.obs.count.Load()

	concluded := func() bool { return e.obs.count.Load()-done0 >= int64(len(evs)) }
	s.timeBurst(len(evs), func() time.Time {
		for i, ev := range evs {
			e.obs.slots <- struct{}{} // blocks while stormOutstanding walks are in flight
			sent[i] = wallNow()
			sp := e.tr.begin("logging.publish", "")
			e.bus.Publish(ev)
			e.tr.end(sp)
		}
		settle(10*time.Second, concluded)
		return time.Unix(0, e.obs.last.Load())
	})
	if !concluded() {
		// Hand back the slots of walks that never concluded so the next
		// round is not wedged behind them.
		for len(e.obs.slots) > 0 {
			<-e.obs.slots
		}
	}

	// Results are read back after the round: the remediation outcome is
	// committed by the worker that ran the walk, microseconds after the
	// conclusion line the closed loop waits on.
	e.awaitRemediations(first, len(evs))
	s.attempted = len(evs)
	for i := range evs {
		op := e.w.plan.ops[first+i]
		resolved, err := e.checkOp(e.sess[first+i])
		if err != nil {
			s.fail(1, fmt.Sprintf("round %d: %s: %v", r, op.id, err))
			continue // a failed unit misses any latency limit: no sample
		}
		s.latencies = append(s.latencies, e.wallOf(resolved).Sub(sent[i]))
	}
	if n := e.bus.Dropped() - busDrop0; n > 0 {
		s.fail(int(n), fmt.Sprintf("round %d: bus dropped %d events", r, n))
	}
	return s
}

// awaitRemediations waits (outside any timed window) until every
// operation of the round holds its full set of terminal remediations.
func (e *stormEpoch) awaitRemediations(first, n int) {
	rem := e.mgr.Remediator()
	settle(2*time.Second, func() bool {
		for ; n > 0; first, n = first+1, n-1 {
			if !settled(rem.List(e.w.plan.ops[first].id), e.actions) {
				return false
			}
		}
		return true
	})
}

func settled(rs []remediate.Remediation, want int) bool {
	if len(rs) < want {
		return false
	}
	for _, r := range rs {
		if !r.State.Terminal() {
			return false
		}
	}
	return true
}

// checkOp is the storm's oracle for one operation: exactly one detection,
// its diagnosis confirming the injected cause, exactly one dry-run
// remediation per catalog action bound to that cause, and an unbroken
// evidence chain from each outcome down to the raw log line. It returns
// when the last remediation resolved, on the manager's clock.
func (e *stormEpoch) checkOp(sess *core.Session) (time.Time, error) {
	return checkStormOp(sess.Detections(), e.mgr.Remediator().List(sess.ID()), sess.Timeline().Entries, e.actions)
}

func checkStormOp(dets []core.Detection, rems []remediate.Remediation, timeline []flight.Entry, actions int) (time.Time, error) {
	var resolved time.Time
	if len(dets) != 1 {
		return resolved, fmt.Errorf("%d detections, want 1", len(dets))
	}
	d := dets[0].Diagnosis
	if d == nil || !d.HasCause(stormCause) {
		return resolved, fmt.Errorf("diagnosis did not confirm %s", stormCause)
	}
	if len(rems) != actions {
		return resolved, fmt.Errorf("%d remediations, want %d", len(rems), actions)
	}
	seen := make(map[string]bool, len(rems))
	for _, r := range rems {
		switch {
		case r.State != remediate.StateDryRun:
			return resolved, fmt.Errorf("remediation %s is %s, want dry-run", r.Action, r.State)
		case !remediate.Matches(r.CauseNode, stormCause):
			return resolved, fmt.Errorf("remediation %s bound to %s, want %s", r.Action, r.CauseNode, stormCause)
		case seen[r.Action]:
			return resolved, fmt.Errorf("remediation %s fired twice", r.Action)
		}
		seen[r.Action] = true
		if _, ok := flight.ChainToLog(timeline, r.OutcomeEntry); !ok {
			return resolved, fmt.Errorf("evidence chain from %s outcome does not reach a log line", r.Action)
		}
		if r.ResolvedAt.After(resolved) {
			resolved = r.ResolvedAt
		}
	}
	return resolved, nil
}

func (e *stormEpoch) finish() roundSample {
	var s roundSample
	drain(&s, e.mgr, true)
	cache := e.mgr.Diagnoser().Cache().Stats()
	s.count("diagnosis.cache_hits", float64(cache.Hits))
	s.count("diagnosis.coalesced", float64(cache.Coalesced))
	s.count("diagnosis.evaluations", float64(cache.Evaluations))
	return s
}
