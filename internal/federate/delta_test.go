package federate

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"poddiagnosis/internal/core"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/pipeline"
	"poddiagnosis/internal/process"
	"poddiagnosis/internal/remediate"
	"poddiagnosis/internal/simaws"
)

// heldClock moves only when the test advances it, and its timers never
// fire: step deadlines and reorder watermarks stay armed, so nothing
// changes a session behind the schedule's back.
type heldClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *heldClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *heldClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *heldClock) Sleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }

// AfterFunc never fires: the clock is held.
func (c *heldClock) AfterFunc(time.Duration, func()) func() bool { return func() bool { return true } }

func (c *heldClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// deltaMembers are the rig's members. Each runs a different subset of
// the writers a snapshot reflects, so a write whose revision bump is
// missing is the only write of its step on at least one member: with
// the flight recorder off, the ring's own counter no longer moves for
// it, and with conformance off too, neither does the checker's.
var deltaMembers = []struct {
	id     string
	mutate func(*core.ManagerConfig)
}{
	{"full", nil},
	{"noflight", func(c *core.ManagerConfig) { c.DisableFlight = true }},
	{"bare", func(c *core.ManagerConfig) { c.DisableFlight = true; c.DisableConformance = true }},
}

// deltaCauses are the confirmed causes a schedule remediates: each binds
// actions of different classes, so one trigger admits auto, approve and
// dry-run records together.
var deltaCauses = []string{"elb-unreachable", "instance-not-registered", "wrong-ami"}

// deltaPolicy runs escalations at once and holds step retries for
// approval — both call the controller, whose hook renews mid-action —
// holds config repairs too and records traffic repairs as dry runs.
var deltaPolicy = remediate.Policy{
	Default: remediate.ModeApprove,
	ByClass: map[string]remediate.Mode{
		remediate.ClassEscalation: remediate.ModeAuto,
		remediate.ClassTraffic:    remediate.ModeDryRun,
	},
}

// deltaRig is a front over the three deltaMembers, on one bus and one
// simulated cloud, driven step by step. It is also the remediation
// controller of every session, so a test-driven remediation can renew
// its owner between the action's admission and its outcome.
type deltaRig struct {
	t     *testing.T
	clk   *heldClock
	bus   *logging.Bus
	cloud *simaws.Cloud
	front *Front
	model *process.Model

	members []*LocalMember
	killed  map[*LocalMember]bool
	cut     map[*LocalMember]bool // partitioned
	ops     []string
	cursor  map[string]int // operation -> next line of its upgrade
	serial  int            // numbers operations, adopted instances and barrier streams
	// gapSeq is the missing sequence number of the next declared gap on
	// the rig's gap stream.
	gapSeq uint64
	// hook is the operation whose owner the controller renews and checks
	// mid-action; nil outside a test-driven remediation.
	hook atomic.Pointer[string]
	// compared counts replica comparisons that ran.
	compared atomic.Int64
	// loose makes beat's checks tolerate concurrent writers (see
	// checkReplicas); the concurrent test sets it while renewals run
	// beside the schedule.
	loose bool
}

func newDeltaRig(t *testing.T) *deltaRig {
	t.Helper()
	clk := &heldClock{now: time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC)}
	bus := logging.NewBus()
	t.Cleanup(bus.Close)
	r := &deltaRig{
		t:      t,
		clk:    clk,
		bus:    bus,
		cloud:  simaws.New(clk, simaws.FastProfile(), simaws.WithSeed(5)),
		front:  NewFront(clk, Config{LeaseTTL: 30 * time.Second}),
		model:  process.RollingUpgradeModel(),
		killed: map[*LocalMember]bool{},
		cut:    map[*LocalMember]bool{},
		cursor: map[string]int{},
		gapSeq: 1,
	}
	for _, mc := range deltaMembers {
		cfg := core.ManagerConfig{
			Cloud: r.cloud, Bus: bus,
			DisableAssertions: true,
			Retention:         time.Hour * 24 * 365,
			Remediation:       deltaPolicy,
		}
		if mc.mutate != nil {
			mc.mutate(&cfg)
		}
		m, err := NewLocalMember(LocalConfig{
			ID: mc.id,
			NewManager: func() (*core.Manager, error) {
				mgr, err := core.NewManager(cfg)
				if err != nil {
					return nil, err
				}
				mgr.Start()
				return mgr, nil
			},
			ControllerFor: func(string) remediate.OperationController { return r },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.JoinFront(r.front); err != nil {
			t.Fatal(err)
		}
		r.members = append(r.members, m)
	}
	t.Cleanup(func() {
		for _, m := range r.members {
			if !r.killed[m] {
				m.Manager().Stop()
			}
		}
	})
	return r
}

// RetryStep and Abort make the rig a remediate.OperationController.
func (r *deltaRig) RetryStep(context.Context, string) error { r.midAction(); return nil }
func (r *deltaRig) Abort(context.Context, string) error     { r.midAction(); return nil }

// midAction renews the hooked operation's owner while one of its
// actions runs: the renewal lands after the admission and before the
// outcome, where a state change that moves no revision would leave the
// front a copy it never replaces. Only the schedule's goroutine sets
// the hook, and only when nothing else drives the rig.
func (r *deltaRig) midAction() {
	if op := r.hook.Load(); op != nil {
		if m := r.owner(*op); m != nil {
			r.beat(m)
		}
	}
}

// owner returns the live member the front routes opID to, or nil.
func (r *deltaRig) owner(opID string) *LocalMember {
	id, _, ok := r.front.Owner(opID)
	if !ok {
		return nil
	}
	for _, m := range r.members {
		if m.ID() == id && !r.killed[m] {
			return m
		}
	}
	return nil
}

// membersWhere lists the members satisfying keep.
func (r *deltaRig) membersWhere(keep func(*LocalMember) bool) []*LocalMember {
	var out []*LocalMember
	for _, m := range r.members {
		if keep(m) {
			out = append(out, m)
		}
	}
	return out
}

// reachable reports whether m runs and reaches the front.
func (r *deltaRig) reachable(m *LocalMember) bool { return !r.killed[m] && !r.cut[m] }

// heldOp returns the arg-th operation whose owner is alive and holds a
// session for it.
func (r *deltaRig) heldOp(arg byte) (string, *LocalMember, *core.Session) {
	if len(r.ops) == 0 {
		return "", nil, nil
	}
	for i := range r.ops {
		id := r.ops[(int(arg)+i)%len(r.ops)]
		if m := r.owner(id); m != nil {
			if s := m.Manager().Session(id); s != nil {
				return id, m, s
			}
		}
	}
	return "", nil, nil
}

// upgradeLine is line k of an operation's two-instance rolling upgrade,
// with the fields the log processor would have extracted from it.
func upgradeLine(op string, k int) (string, map[string]string) {
	asg := op + "--asg"
	lines := []string{
		"Starting rolling upgrade of group " + asg + " to image ami-new",
		"Created launch configuration " + asg + "-lc-ami-new with image ami-new",
		"Updated group " + asg + " to launch configuration " + asg + "-lc-ami-new",
		"Sorted 2 instances for replacement",
	}
	for i := 0; i < 2; i++ {
		lines = append(lines,
			fmt.Sprintf("Removed and deregistered instance i-%04d from ELB %s-elb", i, op),
			fmt.Sprintf("Terminating old instance i-%04d", i),
			"Waiting for group "+asg+" to start a new instance",
			fmt.Sprintf("Instance %s on i-9%03d is ready for use. %d of 2 instance relaunches done.", op, i, i+1),
		)
	}
	lines = append(lines, "Rolling upgrade task completed")
	k %= len(lines)
	fields := map[string]string{"taskid": op + "-task"}
	if k == 7 || k == 11 {
		fields["num"] = fmt.Sprint((k - 3) / 4)
		fields["total"] = "2"
	}
	return lines[k], fields
}

// feed hands one line to a session the way the log processor does:
// conformance first, then the step event, then the process end.
func (r *deltaRig) feed(s *core.Session, inst, line string, fields map[string]string) {
	ev := logging.Event{
		Timestamp: r.clk.Now(), Source: "asgard.log", SourceHost: "asgard",
		Type: logging.TypeOperation, Fields: fields, Message: line,
	}
	s.OnConformance(inst, line, ev)
	node, _ := r.model.Match(line)
	if node == nil {
		return
	}
	s.OnStepEvent(inst, node, ev)
	if node.ID == process.NodeCompleted {
		s.OnProcessEnd(inst, ev)
	}
}

// declareGap makes every running manager declare a sequence gap: the
// rig's gap stream skips gapSeq, and the successor arrives after the
// reorder window, so the watermark gives the missing event up.
func (r *deltaRig) declareGap() {
	before := map[*LocalMember]uint64{}
	for _, m := range r.members {
		if !r.killed[m] {
			before[m] = m.Manager().ReorderStats().Gaps
		}
	}
	publish := func(seq uint64) {
		r.bus.Publish(logging.Event{
			Timestamp: r.clk.Now(), Source: "gap.log", SourceHost: "gap-tap",
			Type: logging.TypeOperation, Fields: map[string]string{"taskid": "gap-noise"},
			Message: "gap noise", Seq: seq,
		})
	}
	// The watermark measures from when the buffer took the event, so the
	// clock moves only once every buffer holds it.
	publish(r.gapSeq + 1)
	r.waitPipelines("never held the event after the gap", held)
	r.clk.Advance(4 * time.Second) // past the default 3 s reorder window
	publish(r.gapSeq + 2)
	r.gapSeq += 3
	r.waitPipelines("declared no gap", func(m *LocalMember, st pipeline.ReorderStats) bool { return st.Gaps > before[m] })
}

// barrier returns once every running manager's pipeline has handled
// everything published before it, without touching a session: a fresh
// stream's second event is held until its first arrives, and a pipeline
// handles its events in order.
func (r *deltaRig) barrier() {
	r.serial++
	host := fmt.Sprint("barrier-", r.serial)
	publish := func(seq uint64) {
		r.bus.Publish(logging.Event{
			Timestamp: r.clk.Now(), Source: "barrier.log", SourceHost: host,
			Type: logging.TypeOperation, Fields: map[string]string{"taskid": "barrier-noise"},
			Message: "barrier", Seq: seq,
		})
	}
	publish(2)
	r.waitPipelines("never held the barrier", held)
	publish(1)
	r.waitPipelines("never released the barrier", func(_ *LocalMember, st pipeline.ReorderStats) bool { return st.Pending == 0 })
}

// held reports that a reorder buffer holds an event.
func held(_ *LocalMember, st pipeline.ReorderStats) bool { return st.Pending > 0 }

// waitPipelines waits until done holds for every running manager's
// reorder buffer.
func (r *deltaRig) waitPipelines(what string, done func(*LocalMember, pipeline.ReorderStats) bool) {
	deadline := time.Now().Add(10 * time.Second)
	for _, m := range r.members {
		if r.killed[m] {
			continue
		}
		for !done(m, m.Manager().ReorderStats()) {
			if time.Now().After(deadline) {
				r.t.Fatalf("member %s %s", m.ID(), what)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// quiesce waits until no running manager has queued or in-flight work.
func (r *deltaRig) quiesce() {
	deadline := time.Now().Add(20 * time.Second)
	for _, m := range r.members {
		if r.killed[m] {
			continue
		}
		for mgr := m.Manager(); mgr.Backlog() != 0; {
			if time.Now().After(deadline) {
				r.t.Fatalf("member %s did not quiesce: backlog %d", m.ID(), mgr.Backlog())
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// beat renews m once — twice when the first renewal was stale, since the
// re-join empties what the front holds — and checks its replicas.
// Unreachable members skip the renewal, as their agents would.
func (r *deltaRig) beat(m *LocalMember) {
	if !r.reachable(m) {
		m.HeartbeatNow()
		return
	}
	for i := 0; i < 3; i++ {
		epoch := m.Epoch()
		m.HeartbeatNow()
		if m.Epoch() == epoch {
			r.checkReplicas(m, !r.loose)
			return
		}
	}
	r.t.Errorf("member %s went stale on three renewals in a row", m.ID())
}

func (r *deltaRig) beatAll() {
	for _, m := range r.members {
		r.beat(m)
	}
}

// checkReplicas compares the snapshot the front holds of each operation
// m owns with a fresh export from m's manager — what a full renewal
// would have stored — with TakenAt cleared. It holds m's agent still
// meanwhile, so no renewal replaces the front's copy under it.
//
// Strict is for quiescent rigs just after an accepted renewal: every
// held session must be acknowledged at its current revision and match.
// Otherwise a comparison runs only while the session's revision equals
// the acknowledged one before and after the export, and it skips the
// conformance replay state: the checker locks on its own and the
// session bumps its revision after CheckLossy returns, so a replay
// write can be visible an instant before its bump.
func (r *deltaRig) checkReplicas(m *LocalMember, strict bool) {
	mgr := m.Manager()
	a := m.agent
	a.beat.Lock()
	defer a.beat.Unlock()
	r.front.mu.Lock()
	var owned []string
	held := map[string]*core.SessionSnapshot{}
	if e := r.front.members[m.ID()]; e != nil {
		for id, op := range r.front.ops {
			if op.owner == m.ID() {
				owned = append(owned, id)
				held[id] = e.snaps[id]
			}
		}
	}
	r.front.mu.Unlock()
	sort.Strings(owned)
	for _, id := range owned {
		s := mgr.Session(id)
		if s == nil {
			continue // the ownership invariants are other tests' concern
		}
		rev := s.Revision()
		acked, ok := a.acked[s]
		if !ok || acked != rev {
			if strict {
				r.t.Errorf("%s: session %s at revision %d after an accepted renewal, acknowledged %d (%v)", m.ID(), id, rev, acked, ok)
			}
			continue
		}
		want, err := mgr.ExportSession(id)
		if err != nil || (!strict && s.Revision() != rev) {
			continue
		}
		r.compared.Add(1)
		if diff := snapshotDiff(held[id], want, strict); diff != "" {
			r.t.Errorf("%s: front's copy of %s, acknowledged at revision %d, is not the session's state:\n%s", m.ID(), id, rev, diff)
		}
	}
}

// snapshotDiff describes where the front's copy and a fresh export
// differ, or returns "" when they match.
func snapshotDiff(got, want *core.SessionSnapshot, withReplay bool) string {
	if got == nil {
		return "the front holds no copy"
	}
	g, w := *got, *want
	g.TakenAt, w.TakenAt = time.Time{}, time.Time{}
	if !withReplay {
		g.Conformance, w.Conformance = nil, nil
	}
	gb, _ := json.Marshal(g) // snapshots always encode
	wb, _ := json.Marshal(w)
	if bytes.Equal(gb, wb) {
		return ""
	}
	i := 0
	for i < len(gb) && i < len(wb) && gb[i] == wb[i] {
		i++
	}
	clip := func(b []byte) string {
		lo, hi := max(0, i-120), min(len(b), i+120)
		return string(b[lo:hi])
	}
	return fmt.Sprintf("  front:  …%s…\n  export: …%s…", clip(gb), clip(wb))
}

// failover lets unreachable members' leases run out while the others
// renew, so the front declares them dead and re-homes their operations.
func (r *deltaRig) failover() {
	cfg := r.front.Config()
	r.clk.Advance(cfg.LeaseTTL + time.Second)
	r.beatAll()
	r.front.Tick(context.Background())
	r.clk.Advance(cfg.DeadAfter + time.Second)
	r.beatAll()
	r.front.Tick(context.Background())
}

// Schedule actions, one per step; each step's argument picks its target.
const (
	actWatch = iota
	actLine
	actProgress
	actAnomaly
	actUnknownLine
	actEnd
	actAdopt
	actGap
	actTrigger
	actApprove
	actBeat
	actBeatAll
	actRemove
	actKill
	actRestart
	actPartition
	actHeal
	actTick
	numActs
)

// step runs one schedule action. With settle, it waits for the rig to
// quiesce afterwards and renews and checks whenever the action renews.
func (r *deltaRig) step(act, arg byte, settle bool) {
	ctx := context.Background()
	switch int(act) % numActs {
	case actWatch:
		if len(r.ops) >= 12 {
			return
		}
		r.serial++
		// Spread ids: the ring piles sequential names onto one member.
		id := fmt.Sprintf("op-%08x", uint32(r.serial)*2654435761)
		if _, _, err := r.front.Watch(ctx, WatchRequest{
			ID:          id,
			Expect:      core.Expectation{ASGName: id + "--asg", ELBName: id + "-elb", ClusterSize: 2},
			InstanceIDs: []string{id + "-task", id + "-task2"},
			MatchASG:    true,
		}); err == nil {
			r.ops = append(r.ops, id)
		}
	case actLine:
		if id, _, s := r.heldOp(arg); s != nil {
			line, fields := upgradeLine(id, r.cursor[id])
			r.cursor[id]++
			r.feed(s, id+"-task", line, fields)
		}
	case actProgress:
		// A relaunch-count line, or the completion, on either instance:
		// progress, totals and process ends, each alone in its step.
		if id, _, s := r.heldOp(arg); s != nil {
			inst := id + "-task"
			if arg&1 == 1 {
				inst += "2"
			}
			line, fields := upgradeLine(id, []int{7, 11, 12}[int(arg>>1)%3])
			fields["taskid"] = inst
			// Sometimes only one counter, so each write stands alone.
			switch (arg >> 3) % 3 {
			case 1:
				delete(fields, "num")
			case 2:
				delete(fields, "total")
			}
			r.feed(s, inst, line, fields)
		}
	case actAnomaly:
		// A line out of the upgrade's order: conformance calls it unfit
		// and the session diagnoses it.
		if id, _, s := r.heldOp(arg); s != nil {
			line, fields := upgradeLine(id, r.cursor[id]+2+int(arg)%7)
			r.feed(s, id+"-task", line, fields)
		}
	case actUnknownLine:
		if id, _, s := r.heldOp(arg); s != nil {
			r.feed(s, id+"-task", fmt.Sprintf("Unexpected failure %d while relaunching", arg),
				map[string]string{"taskid": id + "-task"})
		}
	case actEnd:
		if _, _, s := r.heldOp(arg); s != nil {
			s.End()
		}
	case actAdopt:
		// A line from an instance nobody bound, naming the operation's
		// group, goes out on the bus: the owner's router adopts the
		// instance into the session. It opens a stream of its own at
		// sequence 1, so no reorder buffer holds it.
		if id, _, s := r.heldOp(arg); s != nil && s.State() == core.SessionActive {
			r.serial++
			r.bus.Publish(logging.Event{
				Timestamp: r.clk.Now(), Source: "asgard.log", SourceHost: fmt.Sprint("adopt-", r.serial),
				Type:    logging.TypeOperation,
				Fields:  map[string]string{"taskid": fmt.Sprintf("%s--asg-extra%d", id, r.serial)},
				Message: "Waiting for group " + id + "--asg to start a new instance",
				Seq:     1,
			})
			r.barrier()
		}
	case actGap:
		r.declareGap()
	case actTrigger:
		if id, m, _ := r.heldOp(arg); m != nil {
			mgr := m.Manager()
			r.setHook(&id)
			mgr.Remediator().Trigger(ctx, remediate.Trigger{
				Operation: id,
				CauseNode: deltaCauses[int(arg)%len(deltaCauses)],
				Flight:    mgr.Flight().Op(id),
				Target:    remediate.Target{Cloud: r.cloud, ASGName: id + "--asg", ClusterSize: 2, Op: r},
			})
			r.setHook(nil)
		}
	case actApprove:
		r.approve(ctx, arg)
	case actBeat:
		r.beat(r.members[int(arg)%len(r.members)])
	case actBeatAll:
		r.beatAll()
	case actRemove:
		if len(r.ops) > 4 {
			i := int(arg) % len(r.ops)
			_ = r.front.Remove(ctx, r.ops[i]) // an unreachable owner still loses it at the front
			r.ops = append(r.ops[:i], r.ops[i+1:]...)
		}
	case actKill, actPartition:
		// Keep one reachable member besides the victim, to fail over to.
		up := r.membersWhere(r.reachable)
		if len(up) < 2 {
			return
		}
		m := up[int(arg)%len(up)]
		if int(act)%numActs == actKill {
			m.Kill()
			r.killed[m] = true
		} else {
			m.SetPartitioned(true)
			r.cut[m] = true
		}
		r.failover()
	case actRestart:
		if down := r.membersWhere(func(m *LocalMember) bool { return r.killed[m] }); len(down) > 0 {
			m := down[int(arg)%len(down)]
			if err := m.Restart(); err != nil {
				r.t.Fatal(err)
			}
			delete(r.killed, m)
			if err := m.JoinFront(r.front); err != nil {
				r.t.Fatal(err)
			}
			r.beat(m)
		}
	case actHeal:
		if cut := r.membersWhere(func(m *LocalMember) bool { return r.cut[m] }); len(cut) > 0 {
			m := cut[int(arg)%len(cut)]
			m.SetPartitioned(false)
			delete(r.cut, m)
			r.beat(m) // stale: drops what it lost, re-joins, renews
		}
	case actTick:
		r.clk.Advance(time.Duration(arg%16) * time.Second)
		r.front.Tick(ctx)
	}
	if settle {
		r.quiesce()
	}
}

// approve approves the arg-th pending remediation of a held operation.
func (r *deltaRig) approve(ctx context.Context, arg byte) {
	type pending struct {
		op, id string
		m      *LocalMember
	}
	var ps []pending
	for _, op := range r.ops {
		m := r.owner(op)
		if m == nil {
			continue
		}
		for _, rec := range m.Manager().Remediator().List(op) {
			if rec.State == remediate.StatePending {
				ps = append(ps, pending{op, rec.ID, m})
			}
		}
	}
	if len(ps) == 0 {
		return
	}
	p := ps[int(arg)%len(ps)]
	r.setHook(&p.op)
	_, _ = p.m.Manager().Remediator().Approve(ctx, p.id) // failed actions are outcomes too
	r.setHook(nil)
}

// setHook arms (or, with nil, disarms) the mid-action renewal for a
// test-driven remediation. A loose rig arms none: its workers' own
// remediations could meet the hook.
func (r *deltaRig) setHook(op *string) {
	if !r.loose {
		r.hook.Store(op)
	}
}

// run drives a schedule of (action, argument) byte pairs to completion
// in strict mode, then renews every member and checks it once more.
func (r *deltaRig) run(schedule []byte) {
	for i := 0; i+1 < len(schedule) && !r.t.Failed(); i += 2 {
		r.step(schedule[i], schedule[i+1], true)
	}
	r.beatAll()
}

// actWeights weight a seeded schedule's draws: ingest and detections
// often, so sessions get somewhere between membership changes.
var actWeights = [numActs]int{
	actWatch: 3, actLine: 6, actProgress: 2, actAnomaly: 3, actUnknownLine: 2, actEnd: 1,
	actAdopt: 2, actGap: 2, actTrigger: 2, actApprove: 2, actBeat: 2, actBeatAll: 2, actRemove: 1,
	actKill: 1, actRestart: 2, actPartition: 1, actHeal: 2, actTick: 1,
}

// seededSchedule opens with a few operations and a renewal, then draws
// weighted steps.
func seededSchedule(seed int64, steps int) []byte {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, w := range actWeights {
		total += w
	}
	out := []byte{actWatch, 0, actWatch, 1, actWatch, 2, actWatch, 3, actBeatAll, 0}
	for i := 0; i < steps; i++ {
		act, n := 0, rng.Intn(total)
		for n >= actWeights[act] {
			n -= actWeights[act]
			act++
		}
		out = append(out, byte(act), byte(rng.Intn(256)))
	}
	return out
}

// TestDeltaRenewalMatchesFull is the delta renewal's oracle: over seeded
// schedules of ingest, detections, ends, declared gaps, remediations,
// removals, kills, restarts and partitions across three members, after
// every accepted renewal the front's copy of each operation a member
// owns equals a fresh export of its session — what a renewal carrying
// every session would have left there.
func TestDeltaRenewalMatchesFull(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			r := newDeltaRig(t)
			r.run(seededSchedule(seed, 160))
			if r.compared.Load() == 0 {
				t.Fatal("no replica was compared")
			}
			t.Logf("%d replica comparisons", r.compared.Load())
		})
	}
}

// TestDeltaRenewalConcurrent renews every member in a tight loop while
// the schedule drives ingest, remediation and membership changes beside
// it, so writes land between a renewal's revision read and its export.
// Every few steps the rig quiesces and the strict check runs.
func TestDeltaRenewalConcurrent(t *testing.T) {
	r := newDeltaRig(t)
	r.loose = true
	// pause stops the background renewals while the strict check runs: a
	// stale renewal's re-join may move operations between members.
	var pause sync.RWMutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			pause.RLock()
			for _, m := range r.members {
				m.HeartbeatNow()
				r.checkReplicas(m, false)
			}
			pause.RUnlock()
		}
	}()
	strict := func() {
		pause.Lock()
		defer pause.Unlock()
		r.loose = false
		r.quiesce()
		r.beatAll()
		r.loose = true
	}
	schedule := seededSchedule(7, 240)
	for i := 0; i+1 < len(schedule) && !t.Failed(); i += 2 {
		r.step(schedule[i], schedule[i+1], false)
		if i%16 == 14 {
			strict()
		}
	}
	close(stop)
	wg.Wait()
	strict()
}

// FuzzDeltaRenewal drives the same differential from fuzz bytes: pairs
// of (action, argument), each settled and checked like the seeded test.
func FuzzDeltaRenewal(f *testing.F) {
	f.Add(seededSchedule(1, 24))
	f.Add([]byte{actWatch, 0, actLine, 0, actBeatAll, 0, actAnomaly, 0, actBeat, 0, actKill, 0, actRestart, 0})
	f.Add([]byte{actWatch, 0, actWatch, 1, actBeatAll, 0, actTrigger, 1, actApprove, 0, actPartition, 0, actHeal, 0})
	f.Fuzz(func(t *testing.T, schedule []byte) {
		if len(schedule) > 120 {
			schedule = schedule[:120]
		}
		newDeltaRig(t).run(schedule)
	})
}

// idleMember is a member owning n idle operations, with no traffic and
// no timer that can fire, whose renewals count the snapshots they carry.
func idleMember(t *testing.T, n int) (*LocalMember, *int) {
	t.Helper()
	clk := &heldClock{now: time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC)}
	bus := logging.NewBus()
	t.Cleanup(bus.Close)
	cloud := simaws.New(clk, simaws.FastProfile(), simaws.WithSeed(1))
	front := NewFront(clk, Config{})
	m, err := NewLocalMember(LocalConfig{ID: "idle", NewManager: func() (*core.Manager, error) {
		mgr, err := core.NewManager(core.ManagerConfig{Cloud: cloud, Bus: bus, DisableAssertions: true})
		if err == nil {
			mgr.Start()
		}
		return mgr, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Manager().Stop)
	if err := m.JoinFront(front); err != nil {
		t.Fatal(err)
	}
	exported := new(int)
	m.agent.renew = func(_ context.Context, r Renewal) (RenewResult, error) {
		*exported += len(r.Snapshots)
		return front.Renew(r.ID, r.Epoch, r), nil
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("idle-%d", i)
		if _, _, err := front.Watch(context.Background(), WatchRequest{
			ID: id, Expect: core.Expectation{ASGName: id + "--asg", ClusterSize: 2},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return m, exported
}

// TestIdleRenewalIsConstant: once the front holds a copy of every
// session, renewing an idle member exports nothing, and allocates as
// often over 1000 sessions as over 10.
func TestIdleRenewalIsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	allocs := map[int]float64{}
	for _, n := range []int{10, 1000} {
		m, exported := idleMember(t, n)
		m.HeartbeatNow()
		if *exported != n {
			t.Fatalf("first renewal over %d sessions exported %d", n, *exported)
		}
		*exported = 0
		allocs[n] = testing.AllocsPerRun(20, m.HeartbeatNow)
		if *exported != 0 {
			t.Errorf("idle renewals over %d sessions exported %d snapshots", n, *exported)
		}
	}
	if allocs[10] != allocs[1000] {
		t.Errorf("an idle renewal allocates %.1f times over 10 sessions but %.1f over 1000", allocs[10], allocs[1000])
	}
	t.Logf("%.1f allocations per idle renewal", allocs[10])
}
