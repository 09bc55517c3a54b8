package experiment

import (
	"context"
	"fmt"
	"sync"
	"time"

	"poddiagnosis/internal/chaos"
	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/consistentapi"
	"poddiagnosis/internal/core"
	"poddiagnosis/internal/faultinject"
	"poddiagnosis/internal/federate"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/remediate"
	"poddiagnosis/internal/simaws"
	"poddiagnosis/internal/upgrade"
)

// lane is one execution slot of a campaign: a simulated cloud watched
// either by a single POD Manager reused across the lane's sequential runs
// (each run registers its own monitoring session instead of rebuilding
// the engine stack: the paper's shared-services deployment, §IV) or by a
// federation of Managers behind one front.
type lane struct {
	clk     *clock.Scaled
	bus     *logging.Bus
	cloud   *simaws.Cloud
	profile simaws.Profile

	// mgr is the single-Manager lane's Manager; front and members replace
	// it on a federated lane.
	mgr     *core.Manager
	front   *federate.Front
	members []*federate.LocalMember
	// dead marks members whose Manager was stopped by kill and not
	// replaced by a restart, so close does not double-stop it.
	dead map[string]bool

	ctlMu sync.Mutex
	ctls  map[string]*healController
}

// newLane builds the lane's cloud and its Manager, or sc.members
// federated Managers joined to one front. seed drives the cloud's
// randomness. Every Manager gets the same configuration, adjusted by
// sc.manager, and under a chaos config its own lossy log tap; the
// cloud-level API fault injector is shared.
func newLane(cfg Config, seed int64, sc Scenario) (l *lane, err error) {
	cfg = cfg.withDefaults()
	clk := clock.NewScaled(cfg.Scale, time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC))
	bus := logging.NewBus()
	profile := calibratedProfile()
	if cfg.Profile != nil {
		profile = *cfg.Profile
	}
	cloudOpts := []simaws.Option{simaws.WithSeed(seed), simaws.WithBus(bus)}
	var chaosProfile *chaos.Profile
	if cfg.Chaos != nil && cfg.Chaos.Enabled() {
		cp := *cfg.Chaos
		if cp.Seed == 0 {
			cp.Seed = seed
		}
		if inj := cp.FaultInjector(clk); inj != nil {
			cloudOpts = append(cloudOpts, simaws.WithFaultInjector(inj))
		}
		chaosProfile = &cp
	}
	cloud := simaws.New(clk, profile, cloudOpts...)
	cloud.Start()
	l = &lane{
		clk: clk, bus: bus, cloud: cloud, profile: profile,
		dead: map[string]bool{}, ctls: map[string]*healController{},
	}

	newManager := func() (*core.Manager, error) {
		mc := core.ManagerConfig{
			Cloud: cloud,
			Bus:   bus,
			// Evaluation runs verify end-to-end evidence chains, so the
			// per-operation ring must hold a whole run: a chaos-duplicated
			// upgrade stays well under this, and rings are retired with the
			// run's session.
			FlightCapacity: 2048,
			API: consistentapi.Config{
				// Stale reads are masked by resampling (staleness is an 8%
				// per-read event), so a short budget suffices; a tight budget
				// also keeps failing diagnosis tests — which always burn the
				// full budget — within the paper's seconds-scale envelope.
				MaxAttempts:    3,
				InitialBackoff: 250 * time.Millisecond,
				MaxBackoff:     time.Second,
				CallTimeout:    20 * time.Second,
			},
			PeriodicInterval:   cfg.PeriodicInterval,
			StepTimeoutSlack:   cfg.StepTimeoutSlack,
			DisableConformance: cfg.DisableConformance,
			DisableAssertions:  cfg.DisableAssertions,
		}
		if chaosProfile != nil {
			mc.LogTap = chaosProfile.LogTap(clk)
			mc.ChaosLabel = chaosProfile.Name
		}
		if sc.manager != nil {
			sc.manager(&mc)
		}
		m, err := core.NewManager(mc)
		if err != nil {
			return nil, err
		}
		m.Start()
		return m, nil
	}

	defer func() {
		if err != nil {
			l.close()
			l = nil
		}
	}()
	if len(sc.members) == 0 {
		l.mgr, err = newManager()
		return l, err
	}
	// A short lease keeps the kill→suspect→dead→failover window well
	// inside the upgrade, so the adopting member does the diagnosing.
	l.front = federate.NewFront(clk, federate.Config{LeaseTTL: 15 * time.Second})
	controllerFor := func(opID string) remediate.OperationController { return l.controller(opID) }
	for _, id := range sc.members {
		m, err := federate.NewLocalMember(federate.LocalConfig{
			ID: id, NewManager: newManager, ControllerFor: controllerFor,
		})
		if err != nil {
			return l, err
		}
		l.members = append(l.members, m)
		if err := m.JoinFront(l.front); err != nil {
			return l, err
		}
	}
	return l, nil
}

// close tears the lane down, skipping Managers already stopped by kill.
func (l *lane) close() {
	if l.front != nil {
		l.front.Stop()
	}
	for _, m := range l.members {
		m.StopHeartbeats()
		if l.dead[m.ID()] {
			continue
		}
		if mgr := m.Manager(); mgr != nil {
			mgr.Stop()
		}
	}
	if l.mgr != nil {
		l.mgr.Stop()
	}
	l.cloud.Stop()
	l.bus.Close()
}

// controller hands every Manager the SAME controller for a given
// operation: remediation idempotency is per-operation, so the controller,
// like the ledger the snapshot carries, must survive the operation moving
// between members.
func (l *lane) controller(opID string) *healController {
	l.ctlMu.Lock()
	defer l.ctlMu.Unlock()
	c := l.ctls[opID]
	if c == nil {
		// One slot per distinct confirmed cause base is plenty; extra
		// signals coalesce (the lane re-runs the task once per wait).
		c = &healController{retry: make(chan struct{}, 16)}
		l.ctls[opID] = c
	}
	return c
}

// member resolves a federation member by id.
func (l *lane) member(id string) *federate.LocalMember {
	for _, m := range l.members {
		if m.ID() == id {
			return m
		}
	}
	return nil
}

// RunOne executes a single run of the scenario on a fresh, seeded lane.
// Campaigns use RunSpecs, which reuses one Manager per lane across runs.
func RunOne(ctx context.Context, sc Scenario, spec RunSpec, cfg Config) (*RunResult, error) {
	if sc.drive == nil {
		return nil, fmt.Errorf("experiment: run %d: zero Scenario", spec.ID)
	}
	l, err := newLane(cfg, spec.Seed, sc)
	if err != nil {
		return nil, fmt.Errorf("experiment: %s %d: %w", sc.label, spec.ID, err)
	}
	defer l.close()
	return l.run(ctx, sc, spec, sc.app)
}

// prepare deploys a cluster named appName, waits for it, registers the v2
// image and starts watching the scenario's operation on it.
func (l *lane) prepare(ctx context.Context, sc Scenario, spec RunSpec, appName string) (*operation, error) {
	if sc.auditTrail {
		// An idealized instant CloudTrail; the audit-staleness ablations
		// live in the assertion-library tests.
		l.cloud.EnableAuditTrail(0)
	}
	cluster, err := upgrade.Deploy(ctx, l.cloud, appName, spec.ClusterSize, "v1")
	if err != nil {
		return nil, err
	}
	if err := cluster.WaitReady(ctx, l.cloud, 10*time.Minute); err != nil {
		return nil, err
	}
	// Ready in the live state is not ready in every view: a stale read
	// inside the consistency window can still show a member booting, and
	// the orchestrator would leave that member off its replacement list.
	// The operation starts once no view predates the ready cluster.
	if err := l.clk.Sleep(ctx, l.profile.ConsistencyWindow()+l.profile.TickInterval); err != nil {
		return nil, err
	}
	newAMI, err := l.cloud.RegisterImage(ctx, appName+"-v2", "v2", upgrade.AppServices)
	if err != nil {
		return nil, err
	}
	o := sc.operation(cluster, newAMI, spec, replacementBudget(l.profile))
	if l.front == nil {
		o.sess, err = l.mgr.Watch(o.expect, core.BindInstance(o.task), core.WithSessionID(o.id),
			core.WithRemediationController(l.controller(o.id)))
	} else {
		_, o.owner, err = l.front.Watch(ctx, federate.WatchRequest{
			ID: o.id, Expect: o.expect, InstanceIDs: []string{o.task},
		})
	}
	if err != nil {
		return nil, err
	}
	for _, m := range l.members {
		m.HeartbeatNow()
	}
	return o, nil
}

// run executes one evaluation run on the lane: prepare the operation,
// inject the scenario's ground truth while the orchestrator drives it,
// run the closed loop, drain, classify and verify, then tear the cluster
// down so the account limit is free for the lane's next run.
func (l *lane) run(ctx context.Context, sc Scenario, spec RunSpec, appName string) (*RunResult, error) {
	runStart := l.clk.Now()
	if len(spec.ExpectedCauses) == 0 {
		spec.ExpectedCauses = sc.expectedCauses
	}
	o, err := l.prepare(ctx, sc, spec, appName)
	if err != nil {
		return nil, fmt.Errorf("experiment: %s %d: %w", sc.label, spec.ID, err)
	}

	// Delays are drawn here, before any goroutine starts, so a seed
	// reproduces them regardless of scheduling.
	injectDelay, interfereDelays := sc.delays(spec)
	injector := faultinject.NewInjector(l.cloud, o.watched, spec.Seed^0xfa17)
	// A federated run's ground truth strikes the adopter: its delay counts
	// from the failover, so the fault manifests after the handoff however
	// long the failover took, not at a fixed time racing the operation's
	// end.
	failedOver := make(chan struct{})
	if l.front == nil {
		close(failedOver)
	}
	var injecting sync.WaitGroup
	injecting.Add(2)
	go func() {
		defer injecting.Done()
		select {
		case <-failedOver:
		case <-ctx.Done():
			return
		}
		switch {
		case sc.storm:
			_ = injector.Storm(ctx, stormSize(spec), injectDelay, 15*time.Second)
		case spec.Fault != 0:
			_ = injector.Inject(ctx, spec.Fault, injectDelay, o.watched.LCName, o.newAMI)
		}
	}()
	go func() {
		defer injecting.Done()
		for i, interf := range spec.Interferences {
			_ = injector.Interfere(ctx, interf, interfereDelays[i])
		}
	}()

	up := upgrade.NewUpgrader(l.cloud, l.bus)
	reports := make(chan *upgrade.Report, 1)
	go func() { reports <- sc.drive(ctx, up, o) }()

	res := &RunResult{Spec: spec}
	holder, sess := l.mgr, o.sess // a federated lane has neither until failover
	if l.front != nil {
		res.KilledMember = o.owner
		adopter := l.failover(ctx, o)
		close(failedOver)
		if adopter != nil {
			res.AdoptedBy = adopter.ID()
			holder = adopter.Manager()
			sess = holder.Session(o.id)
		}
	}
	rep := <-reports
	injecting.Wait()

	if sc.closedLoop {
		rep = l.closeLoop(ctx, sc, up, o, holder, rep, res)
	}
	if rep.Err != nil {
		res.UpgradeErr = rep.Err.Error()
	}

	// Grace period: let timer-driven evaluations and in-flight diagnoses
	// finish, then wait (in simulated time) for the manager to go quiet.
	_ = l.clk.Sleep(ctx, 30*time.Second)
	if holder != nil {
		holder.Drain(ctx, 10*time.Minute)
	}
	if sess != nil {
		classify(res, sess.Detections())
		if eng := holder.Remediator(); eng != nil {
			res.Remediations = eng.List(o.id)
		}
		verifyChains(res, sess.Timeline())
	} else if res.Healed {
		res.Healed = false
		res.HealErr = "adopting member does not hold the session"
	}
	res.DuplicateRemediations = l.duplicateExecutions(o.id)
	res.SimDuration = l.clk.Since(runStart)

	// Retire the session and the cluster: heal injected faults, delete the
	// groups and wait for their instances to die.
	if l.front != nil {
		_ = l.front.Remove(ctx, o.id)
	} else {
		l.mgr.Remove(o.id)
	}
	injector.Heal()
	for _, asg := range o.asgs() {
		_ = l.cloud.DeleteAutoScalingGroup(ctx, asg)
	}
	l.awaitTeardown(ctx)
	return res, nil
}

// failover is the member-kill disruption: once the operation has put its
// new launch configuration and first conformance events on the books,
// replicate the owner's state with a last heartbeat, crash it, and let the
// front's lease machine walk it through suspect to dead while survivors
// keep renewing. It returns the member the operation failed over to, or
// nil.
func (l *lane) failover(ctx context.Context, o *operation) *federate.LocalMember {
	_ = l.clk.Sleep(ctx, 15*time.Second)
	victim := l.member(o.owner)
	victim.HeartbeatNow()
	victim.Kill()
	l.dead[victim.ID()] = true
	for i := 0; i < 40; i++ {
		for _, m := range l.members {
			m.HeartbeatNow() // the dead member skips itself
		}
		l.front.Tick(ctx)
		if owner, _, ok := l.front.Owner(o.id); ok && owner != o.owner {
			return l.member(owner)
		}
		if l.clk.Sleep(ctx, 5*time.Second) != nil {
			break
		}
	}
	return nil
}

// awaitTeardown waits until every instance of the lane's cloud is dead,
// freeing the account-wide instance limit for the next run.
func (l *lane) awaitTeardown(ctx context.Context) {
	deadline := l.clk.Now().Add(teardownBudget(l.profile))
	for l.clk.Now().Before(deadline) {
		insts, err := l.cloud.DescribeInstances(ctx)
		if err != nil {
			return
		}
		live := 0
		for i := range insts {
			if insts[i].Live() {
				live++
			}
		}
		if live == 0 {
			return
		}
		if l.clk.Sleep(ctx, 5*time.Second) != nil {
			return
		}
	}
}

// duplicateExecutions counts independent executions of the same
// remediation idempotency key for one operation across every Manager's
// ledger, including a killed member's post-mortem one. A record
// replicated by snapshot keeps its id and timestamps, so one execution
// seen on two ledgers collapses to a single identity; the split-brain
// failure this guards against (the old owner and the adopter both firing
// the same action) shows up as two identities under one key.
func (l *lane) duplicateExecutions(opID string) int {
	type identity struct {
		id       string
		created  time.Time
		resolved time.Time
	}
	mgrs := []*core.Manager{l.mgr}
	for _, m := range l.members {
		mgrs = append(mgrs, m.Manager())
	}
	byKey := map[string]map[identity]bool{}
	for _, mgr := range mgrs {
		if mgr == nil || mgr.Remediator() == nil {
			continue
		}
		for _, r := range mgr.Remediator().List(opID) {
			if r.State != remediate.StateExecuted {
				continue
			}
			set := byKey[r.IdempotencyKey]
			if set == nil {
				set = map[identity]bool{}
				byKey[r.IdempotencyKey] = set
			}
			set[identity{r.ID, r.CreatedAt, r.ResolvedAt}] = true
		}
	}
	dups := 0
	for _, set := range byKey {
		dups += len(set) - 1
	}
	return dups
}
