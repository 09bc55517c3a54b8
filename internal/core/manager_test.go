package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/consistentapi"
	"poddiagnosis/internal/diagnosis"
	"poddiagnosis/internal/faultinject"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/simaws"
	"poddiagnosis/internal/upgrade"
)

// multiRig is one simulated cloud with a single Manager watching many
// concurrently upgrading clusters.
type multiRig struct {
	clk   *clock.Scaled
	bus   *logging.Bus
	cloud *simaws.Cloud
	mgr   *Manager
	ctx   context.Context
}

// newSimCloud starts a simulated cloud on a 1200x clock, publishing to a
// fresh bus; tune adjusts the fast profile before the cloud is built.
// Cleanup stops the cloud and closes the bus.
func newSimCloud(t *testing.T, seed int64, tune func(*simaws.Profile)) (*clock.Scaled, *logging.Bus, *simaws.Cloud) {
	t.Helper()
	clk := clock.NewScaled(1200, time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC))
	bus := logging.NewBus()
	profile := simaws.FastProfile()
	profile.TickInterval = time.Second
	if tune != nil {
		tune(&profile)
	}
	cloud := simaws.New(clk, profile, simaws.WithSeed(seed), simaws.WithBus(bus))
	cloud.Start()
	t.Cleanup(func() { cloud.Stop(); bus.Close() })
	return clk, bus, cloud
}

// testManagerConfig is the manager configuration every rig starts from.
func testManagerConfig(cloud *simaws.Cloud, bus *logging.Bus) ManagerConfig {
	return ManagerConfig{
		Cloud: cloud,
		Bus:   bus,
		API: consistentapi.Config{
			MaxAttempts:    3,
			InitialBackoff: 500 * time.Millisecond,
			MaxBackoff:     4 * time.Second,
			CallTimeout:    30 * time.Second,
		},
	}
}

// deployForUpgrade deploys a size-n v1 cluster named app, registers a v2
// AMI, and returns the upcoming upgrade's spec and the expectation a
// session watching it declares.
func deployForUpgrade(t *testing.T, ctx context.Context, cloud *simaws.Cloud, app string, n int) (*upgrade.Cluster, upgrade.Spec, Expectation) {
	t.Helper()
	cluster, err := upgrade.Deploy(ctx, cloud, app, n, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.WaitReady(ctx, cloud, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	newAMI, err := cloud.RegisterImage(ctx, app+"-v2", "v2", upgrade.AppServices)
	if err != nil {
		t.Fatal(err)
	}
	spec := cluster.UpgradeSpec("pushing "+cluster.ASGName, newAMI)
	spec.NewLCName = cluster.ASGName + "-lc-" + newAMI
	spec.WaitTimeout = 5 * time.Minute
	spec.PollInterval = 5 * time.Second
	return cluster, spec, Expectation{
		ASGName:      cluster.ASGName,
		ELBName:      cluster.ELBName,
		NewImageID:   newAMI,
		NewVersion:   "v2",
		NewLCName:    spec.NewLCName,
		KeyName:      cluster.KeyName,
		SGName:       cluster.SGName,
		InstanceType: "m1.small",
		ClusterSize:  n,
	}
}

func newMultiRig(t *testing.T, mutate func(*ManagerConfig)) *multiRig {
	t.Helper()
	clk, bus, cloud := newSimCloud(t, 33, nil)
	cfg := testManagerConfig(cloud, bus)
	if mutate != nil {
		mutate(&cfg)
	}
	mgr, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Start()
	t.Cleanup(mgr.Stop)
	return &multiRig{clk: clk, bus: bus, cloud: cloud, mgr: mgr, ctx: context.Background()}
}

// op is one cluster under rolling upgrade with its monitoring session.
type op struct {
	cluster *upgrade.Cluster
	sess    *Session
	taskID  string
	spec    upgrade.Spec
	newAMI  string
}

// addOp deploys a v1 cluster named app, registers a v2 AMI and a session
// bound to the upcoming upgrade task.
func (r *multiRig) addOp(t *testing.T, app string, size int) *op {
	t.Helper()
	cluster, spec, x := deployForUpgrade(t, r.ctx, r.cloud, app, size)
	sess, err := r.mgr.Watch(x, BindInstance(spec.TaskID), WithSessionID(app))
	if err != nil {
		t.Fatal(err)
	}
	return &op{cluster: cluster, sess: sess, taskID: spec.TaskID, spec: spec, newAMI: x.NewImageID}
}

// runAll executes every op's upgrade concurrently and drains the manager.
func (r *multiRig) runAll(t *testing.T, ops []*op) {
	t.Helper()
	var wg sync.WaitGroup
	for _, o := range ops {
		o := o
		wg.Add(1)
		go func() {
			defer wg.Done()
			upgrade.NewUpgrader(r.cloud, r.bus).Run(r.ctx, o.spec)
		}()
	}
	wg.Wait()
	// A generous simulated budget: Drain returns as soon as the manager
	// goes quiet, but under -race on an oversubscribed box the backlog
	// can legitimately need several simulated minutes to empty.
	if ok, stranded := r.mgr.DrainStranded(r.ctx, 10*time.Minute); !ok {
		t.Logf("manager did not fully drain; %d backlog items stranded (continuing with snapshot): %+v",
			stranded.Depth(), stranded)
	}
}

func sessionHasCause(dets []Detection, base string) bool {
	for _, d := range dets {
		if d.Diagnosis != nil && d.Diagnosis.HasCause(base) {
			return true
		}
	}
	return false
}

// TestTwoOverlappingFaultedUpgrades runs two rolling upgrades with
// different injected faults under one Manager and checks that each
// session records only its own operation's detections (no dedup or
// detection bleed across sessions).
func TestTwoOverlappingFaultedUpgrades(t *testing.T) {
	r := newMultiRig(t, nil)
	alpha := r.addOp(t, "alpha", 3)
	beta := r.addOp(t, "beta", 3)

	// alpha: fault 2 (key pair changed mid-upgrade); beta: fault 1 (AMI
	// changed by a concurrent rogue team). Both are cluster-scoped. Each
	// flip strikes once its group runs the upgrade's launch configuration:
	// an upgrade takes only a few simulated seconds, so any fixed delay
	// could land after it.
	injA := faultinject.NewInjector(r.cloud, alpha.cluster, 7)
	defer injA.Heal()
	injB := faultinject.NewInjector(r.cloud, beta.cluster, 11)
	defer injB.Heal()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_ = injA.Inject(r.ctx, faultinject.KindKeyPairChanged, 0, alpha.spec.NewLCName, alpha.newAMI)
	}()
	go func() {
		defer wg.Done()
		_ = injB.Inject(r.ctx, faultinject.KindAMIChanged, 0, beta.spec.NewLCName, beta.newAMI)
	}()
	r.runAll(t, []*op{alpha, beta})
	wg.Wait()
	r.mgr.Drain(r.ctx, 2*time.Minute)

	detsA := alpha.sess.Detections()
	detsB := beta.sess.Detections()
	if len(detsA) == 0 {
		t.Fatal("alpha (key pair fault) produced no detections")
	}
	if len(detsB) == 0 {
		t.Fatal("beta (AMI fault) produced no detections")
	}
	for _, d := range detsA {
		if d.InstanceID != alpha.taskID {
			t.Errorf("alpha detection references foreign instance %q", d.InstanceID)
		}
		if d.Operation != alpha.sess.ID() {
			t.Errorf("alpha detection labelled %q, want %q", d.Operation, alpha.sess.ID())
		}
	}
	for _, d := range detsB {
		if d.InstanceID != beta.taskID {
			t.Errorf("beta detection references foreign instance %q", d.InstanceID)
		}
		if d.Operation != beta.sess.ID() {
			t.Errorf("beta detection labelled %q, want %q", d.Operation, beta.sess.ID())
		}
	}
	if !sessionHasCause(detsA, "wrong-keypair") {
		for _, d := range detsA {
			t.Logf("alpha: %s %s -> %v", d.Source, d.TriggerID, d.Diagnosis)
		}
		t.Error("alpha did not diagnose wrong-keypair")
	}
	if !sessionHasCause(detsB, "wrong-ami") {
		for _, d := range detsB {
			t.Logf("beta: %s %s -> %v", d.Source, d.TriggerID, d.Diagnosis)
		}
		t.Error("beta did not diagnose wrong-ami")
	}
	// Cross-bleed: alpha's fault must not surface in beta and vice versa.
	if sessionHasCause(detsB, "wrong-keypair") {
		t.Error("beta diagnosed alpha's key pair fault")
	}
	if sessionHasCause(detsA, "wrong-ami") {
		t.Error("alpha diagnosed beta's AMI fault")
	}
}

// TestManagerMonitorsEightConcurrentUpgrades drives 8 clean rolling
// upgrades through one Manager at once: every session must replay its own
// operation to completion, auto-end, and record no cross-operation or
// falsely identified detections.
func TestManagerMonitorsEightConcurrentUpgrades(t *testing.T) {
	r := newMultiRig(t, nil)
	const n = 8
	ops := make([]*op, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, r.addOp(t, fmt.Sprintf("app%d", i), 2))
	}
	r.runAll(t, ops)

	for _, o := range ops {
		if !o.sess.Checker().Completed(o.taskID) {
			t.Errorf("%s: conformance did not see completion", o.sess.ID())
		}
		for _, d := range o.sess.Detections() {
			if d.InstanceID != o.taskID {
				t.Errorf("%s: detection references foreign instance %q", o.sess.ID(), d.InstanceID)
			}
			if d.Diagnosis == nil || d.Diagnosis.Conclusion == diagnosis.ConclusionIdentified {
				t.Errorf("%s: unexpected detection on clean run: %+v", o.sess.ID(), d)
			}
		}
		// The sessions' private conformance contexts replay exactly one
		// instance each.
		if ids := o.sess.Checker().InstanceIDs(); len(ids) != 1 || ids[0] != o.taskID {
			t.Errorf("%s: checker instances = %v", o.sess.ID(), ids)
		}
	}
	// Bind-only sessions auto-end when their bound task completes.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		ended := 0
		for _, o := range ops {
			if o.sess.State() == SessionEnded {
				ended++
			}
		}
		if ended == n {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, o := range ops {
		if o.sess.State() != SessionEnded {
			t.Errorf("%s: state = %s, want ended", o.sess.ID(), o.sess.State())
		}
	}
	// The manager still lists all sessions (retention window not elapsed).
	if got := len(r.mgr.Sessions()); got != n {
		t.Errorf("sessions = %d, want %d", got, n)
	}
	q := r.mgr.QueueDepth()
	if len(q.Sessions) != n {
		t.Errorf("queue depth sessions = %d, want %d", len(q.Sessions), n)
	}
}

// TestSessionLifecycleAndGC covers explicit removal and the retention
// sweep.
func TestSessionLifecycleAndGC(t *testing.T) {
	r := newMultiRig(t, func(c *ManagerConfig) { c.Retention = 30 * time.Second })
	s1, err := r.mgr.Watch(Expectation{ASGName: "g1--asg", ClusterSize: 2}, BindInstance("t1"))
	if err != nil {
		t.Fatal(err)
	}
	if s1.State() != SessionActive {
		t.Fatalf("state = %s", s1.State())
	}
	s2, err := r.mgr.Watch(Expectation{ASGName: "g2--asg", ClusterSize: 2}, BindInstance("t2"))
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate ids are rejected.
	if _, err := r.mgr.Watch(Expectation{ASGName: "g3--asg", ClusterSize: 2}, WithSessionID(s2.ID())); err == nil {
		t.Fatal("duplicate session id accepted")
	}
	// Explicit removal is immediate.
	if !r.mgr.Remove(s2.ID()) {
		t.Fatal("Remove returned false")
	}
	if r.mgr.Session(s2.ID()) != nil {
		t.Fatal("removed session still listed")
	}
	if r.mgr.Remove(s2.ID()) {
		t.Fatal("second Remove returned true")
	}
	// Ended sessions are swept after the retention window (30s simulated
	// = 25ms wall at this scale; the GC ticks every Retention/4).
	s1.End()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && r.mgr.Session(s1.ID()) != nil {
		time.Sleep(5 * time.Millisecond)
	}
	if r.mgr.Session(s1.ID()) != nil {
		t.Fatal("ended session not garbage collected after retention window")
	}
}

// TestRetentionSweepTickerRepeats pins the GC loop's timer discipline: the
// retention sweep must keep firing interval after interval. The loop runs
// on one clock.NewTicker for its lifetime — the clk.After-per-iteration
// shape it replaced left a dead timer live every pass, and a regression to
// a one-shot timer would collect the first ended session but never the
// second.
func TestRetentionSweepTickerRepeats(t *testing.T) {
	r := newMultiRig(t, func(c *ManagerConfig) { c.Retention = 30 * time.Second })
	for i := 1; i <= 2; i++ {
		s, err := r.mgr.Watch(Expectation{ASGName: fmt.Sprintf("g%d--asg", i), ClusterSize: 2},
			BindInstance(fmt.Sprintf("t%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		s.End()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) && r.mgr.Session(s.ID()) != nil {
			time.Sleep(5 * time.Millisecond)
		}
		if r.mgr.Session(s.ID()) != nil {
			t.Fatalf("sweep %d never collected the ended session — the GC ticker stopped firing", i)
		}
	}
}

// TestSpecCadenceWithoutConfigOverride: with no manager-level
// PeriodicInterval, a periodic binding fires at its spec's own "every"
// cadence — 5s here, so about twelve evaluations per simulated minute,
// not the one a 60s default would allow.
func TestSpecCadenceWithoutConfigOverride(t *testing.T) {
	r := newMultiRig(t, nil)
	_, spec, x := deployForUpgrade(t, r.ctx, r.cloud, "cad", 2)
	sess, err := r.mgr.Watch(x, BindInstance(spec.TaskID),
		WithAssertionSpec("every 5s assert asg-instance-count want={n}\n"))
	if err != nil {
		t.Fatal(err)
	}
	now := r.clk.Now()
	r.bus.Publish(opEvent(now, spec.TaskID, "Starting rolling upgrade of group "+x.ASGName+" to image "+x.NewImageID))
	if err := r.clk.Sleep(r.ctx, time.Minute); err != nil {
		t.Fatal(err)
	}
	sess.End()
	r.mgr.Drain(r.ctx, time.Minute)
	fires := 0
	for _, res := range r.mgr.Evaluator().History() {
		if res.CheckID == "asg-instance-count" {
			fires++
		}
	}
	if fires < 6 || fires > 13 {
		t.Fatalf("periodic evaluations in one simulated minute = %d, want about 12 (every 5s)", fires)
	}
}

// TestUnstartedManagerBacklog: Start creates the manager's bus
// subscriptions, so before it the backlog reads count them as empty
// instead of dereferencing a nil subscription.
func TestUnstartedManagerBacklog(t *testing.T) {
	m := newGapManager(t, newManualClock(), nil)
	watchGap(t, m, "idle")
	if n := m.Backlog(); n != 0 {
		t.Errorf("Backlog = %d on an idle unstarted manager", n)
	}
	q := m.QueueDepth()
	if q.Depth() != 0 || q.OpEvents != 0 || q.CentralEvents != 0 || len(q.Sessions) != 1 {
		t.Errorf("QueueDepth = %+v on an idle unstarted manager", q)
	}
	if ok, q := m.DrainStranded(context.Background(), time.Second); !ok {
		t.Errorf("an idle unstarted manager did not drain: %+v", q)
	}
}

// TestStopIsSafeAndIdempotent: Stop on a built but never started
// manager has no bus subscriptions to cancel and must not dereference
// them; a second Stop, on either a started or an unstarted manager, does
// nothing.
func TestStopIsSafeAndIdempotent(t *testing.T) {
	unstarted := newGapManager(t, newManualClock(), nil)
	watchGap(t, unstarted, "idle")
	unstarted.Stop()
	unstarted.Stop()

	started := newGapManager(t, newManualClock(), nil)
	started.Start()
	started.Stop()
	started.Stop()
}
