package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/core"
	"poddiagnosis/internal/federate"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/obs/flight"
)

const (
	// heartbeatEvery is how many published lines pass between lease
	// renewals of every member: a count, not a timer, so the snapshot
	// export work repeats exactly from run to run.
	heartbeatEvery = 1000
	// fedLeaseTTL is long enough (30 ms of wall time) that a scheduling
	// stall between a survivor's renewal and the front's Tick cannot
	// expire the survivor too.
	fedLeaseTTL = 30 * time.Second
)

var fedMemberIDs = []string{"fed-a", "fed-b", "fed-c"}

// fedWorkload is fed_handoff: three federated Managers on one bus, each
// running the whole pipeline on every line, heartbeats exporting full
// session snapshots beside ingest, and one member killed per epoch.
type fedWorkload struct {
	seed   int64
	plan   *ingestPlan
	victim string // the member owning the most operations; killed in the last round
}

// federation is the front plus its in-process members.
type federation struct {
	clk     *clock.Scaled
	bus     *logging.Bus
	front   *federate.Front
	members []*federate.LocalMember
	dead    map[string]bool
}

func newFederation(seed int64) (*federation, error) {
	f := &federation{
		clk:  clock.NewScaled(clockScale, simEpoch),
		bus:  logging.NewBus(),
		dead: map[string]bool{},
	}
	cloud := idleCloud(f.clk, seed)
	f.front = federate.NewFront(f.clk, federate.Config{LeaseTTL: fedLeaseTTL})
	for _, id := range fedMemberIDs {
		m, err := federate.NewLocalMember(federate.LocalConfig{
			ID: id,
			NewManager: func() (*core.Manager, error) {
				mgr, err := core.NewManager(ingestManagerConfig(cloud, f.bus))
				if err != nil {
					return nil, err
				}
				mgr.Start()
				return mgr, nil
			},
		})
		if err == nil {
			f.members = append(f.members, m)
			err = m.JoinFront(f.front)
		}
		if err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func (f *federation) close() {
	for _, m := range f.members {
		if !f.dead[m.ID()] {
			m.Manager().Stop() // Kill already stopped a dead member's Manager
		}
	}
	f.bus.Close()
}

func (f *federation) member(id string) *federate.LocalMember {
	for _, m := range f.members {
		if m.ID() == id {
			return m
		}
	}
	return nil
}

func fedRequest(op opSpec) federate.WatchRequest {
	return federate.WatchRequest{
		ID:          op.id,
		Expect:      ingestExpect,
		InstanceIDs: []string{op.task},
	}
}

// placement asks a throwaway federation where the front's hash ring puts
// each operation id. Ids and member names are fixed, so the answer is the
// same in every epoch; the generator needs it to aim the final paced slice
// at operations the victim will have owned.
func placement(ops []opSpec) (owners []string, victim string, err error) {
	f, err := newFederation(0)
	if err != nil {
		return nil, "", err
	}
	defer f.close()
	owners = make([]string, len(ops))
	load := map[string]int{}
	for i, op := range ops {
		_, owner, err := f.front.Watch(context.Background(), fedRequest(op))
		if err != nil {
			return nil, "", err
		}
		owners[i] = owner
		load[owner]++
	}
	for _, id := range fedMemberIDs { // ties go to the first id
		if load[id] > load[victim] {
			victim = id
		}
	}
	return owners, victim, nil
}

func newFedWorkload(seed int64, sizes ingestSizes) (*fedWorkload, error) {
	w := &fedWorkload{seed: seed}
	var perr error
	w.plan = newGenerator(seed).ingestPlan(sizes.rounds, sizes.burstOps, sizes.pacedOps, func(ops []opSpec) []int {
		owners, victim, err := placement(ops)
		if err != nil {
			perr = err
			return nil
		}
		w.victim = victim
		var pick []int
		for i, o := range owners {
			if o == victim && len(pick) < sizes.pacedOps {
				pick = append(pick, i)
			}
		}
		if len(pick) < sizes.pacedOps {
			perr = fmt.Errorf("fed_handoff: %s owns only %d operations, the final paced slice needs %d", victim, len(pick), sizes.pacedOps)
			return nil
		}
		return pick
	})
	return w, perr
}

func (w *fedWorkload) name() string       { return "fed_handoff" }
func (w *fedWorkload) unit() string       { return "line" }
func (w *fedWorkload) timers() timerBound { return timerBound{} }
func (w *fedWorkload) digest() string     { return w.plan.digest }
func (w *fedWorkload) rounds() int        { return len(w.plan.rounds) }

type fedEpoch struct {
	stream
	w *fedWorkload
	f *federation
	// owner0 is each operation's owner at registration, by op index.
	owner0 []string
	// sinceBeat counts published lines since the last heartbeat round.
	sinceBeat int
}

func (w *fedWorkload) newEpoch(tr *tracer) (epoch, error) {
	f, err := newFederation(w.seed)
	if err != nil {
		return nil, err
	}
	e := &fedEpoch{w: w, f: f, owner0: make([]string, len(w.plan.ops))}
	e.stream = newStream(tr, f.bus, w.plan.units)
	for i, op := range w.plan.ops {
		sp := tr.begin("federate.place", op.id)
		_, owner, err := f.front.Watch(context.Background(), fedRequest(op))
		tr.end(sp)
		if err != nil {
			e.close()
			return nil, err
		}
		e.owner0[i] = owner
	}
	return e, nil
}

func (e *fedEpoch) close() {
	e.obs.stop()
	e.f.close()
}

// heartbeat renews every live member's lease, replicating a full snapshot
// of each session it runs.
func (e *fedEpoch) heartbeat() {
	for _, m := range e.f.members {
		if e.f.dead[m.ID()] {
			continue
		}
		sp := e.tr.begin("federate.heartbeat", m.ID())
		m.HeartbeatNow()
		e.tr.end(sp)
	}
}

func (e *fedEpoch) afterLine() {
	if e.sinceBeat++; e.sinceBeat >= heartbeatEvery {
		e.sinceBeat = 0
		e.heartbeat()
	}
}

// failover kills the victim right after a heartbeat replicated its
// sessions, lets its lease run out on the clock while the survivors keep
// renewing, and has the front re-home its operations.
func (e *fedEpoch) failover() {
	ctx := context.Background()
	e.heartbeat()
	e.f.member(e.w.victim).Kill()
	e.f.dead[e.w.victim] = true
	cfg := e.f.front.Config()
	// First pass: the lease runs out and the victim turns suspect.
	_ = e.f.clk.Sleep(ctx, cfg.LeaseTTL+time.Second) // only a cancelled ctx fails a sleep
	e.heartbeat()
	e.f.front.Tick(ctx)
	// Second pass: the grace window runs out, the victim is declared dead
	// and the same Tick re-homes its operations on the survivors.
	_ = e.f.clk.Sleep(ctx, cfg.DeadAfter+time.Second)
	e.heartbeat()
	sp := e.tr.begin("federate.failover", e.w.victim)
	e.f.front.Tick(ctx)
	e.tr.end(sp)
}

func (e *fedEpoch) round(r int) roundSample {
	rd := e.w.plan.rounds[r]
	h := roundHooks{afterEach: e.afterLine}
	last := r == len(e.w.plan.rounds)-1
	if last {
		h.between = e.failover
	}
	s := e.driveRound(r, rd, h)
	ctx := context.Background()
	for _, ops := range [][]int{rd.burstOps, rd.pacedOps} {
		for _, i := range ops {
			op := e.w.plan.ops[i]
			sp := e.tr.begin("federate.route", op.id)
			m, ok := e.f.front.Route(op.id)
			e.tr.end(sp)
			if !ok {
				s.fail(1, fmt.Sprintf("round %d: %s has no owner", r, op.id))
				continue
			}
			var sum core.SessionSummary
			var err error
			settle(sessionSettle, func() bool {
				sum, err = m.Operation(ctx, op.id)
				return err != nil || sum.State == core.SessionEnded
			})
			if err != nil {
				s.fail(1, fmt.Sprintf("round %d: %s: %v", r, op.id, err))
				continue
			}
			dets, _ := m.Detections(ctx, op.id) // same lookup Operation just passed
			checkSession(&s, r, op.id, sum.State, dets, false)
		}
	}
	e.checkOwners(&s, r)
	if last {
		e.checkHandoffs(&s, r)
	}
	return s
}

// holders lists, per operation, the live members whose Manager holds a
// session for it.
func (e *fedEpoch) holders() map[string][]string {
	out := make(map[string][]string, len(e.w.plan.ops))
	for _, m := range e.f.members {
		if e.f.dead[m.ID()] {
			continue
		}
		mgr := m.Manager()
		for _, op := range e.w.plan.ops {
			if mgr.Session(op.id) != nil {
				out[op.id] = append(out[op.id], m.ID())
			}
		}
	}
	return out
}

func (e *fedEpoch) checkOwners(s *roundSample, r int) {
	routed := make(map[string]string, len(e.w.plan.ops))
	for _, op := range e.w.plan.ops {
		routed[op.id], _, _ = e.f.front.Owner(op.id)
	}
	for _, bad := range ownershipFaults(routed, e.holders()) {
		s.fail(1, fmt.Sprintf("round %d: %s", r, bad))
	}
}

// ownershipFaults is the federation invariant: every operation is held by
// exactly one live member, and it is the member the front routes to.
func ownershipFaults(routed map[string]string, holders map[string][]string) []string {
	var out []string
	for op, owner := range routed {
		h := holders[op]
		switch {
		case len(h) == 0:
			out = append(out, fmt.Sprintf("%s is held by no live member (front routes to %q)", op, owner))
		case len(h) > 1:
			out = append(out, fmt.Sprintf("%s has %d owners: %v", op, len(h), h))
		case h[0] != owner:
			out = append(out, fmt.Sprintf("%s is held by %s but the front routes to %q", op, h[0], owner))
		}
	}
	sort.Strings(out)
	return out
}

// checkHandoffs verifies the failover: every operation the victim owned
// now lives on a survivor and carries a federation.handoff evidence entry.
func (e *fedEpoch) checkHandoffs(s *roundSample, r int) {
	handoffs := 0
	for i, op := range e.w.plan.ops {
		if e.owner0[i] != e.w.victim {
			continue
		}
		owner, _, _ := e.f.front.Owner(op.id)
		if owner == e.w.victim || owner == "" {
			s.fail(1, fmt.Sprintf("round %d: %s was not failed over (owner %q)", r, op.id, owner))
			continue
		}
		tl := e.f.member(owner).Manager().Flight().Timeline(op.id, flight.KindHandoff)
		if len(tl.Entries) == 0 {
			s.fail(1, fmt.Sprintf("round %d: %s was adopted by %s without a handoff entry", r, op.id, owner))
			continue
		}
		handoffs++
	}
	s.count("federate.handoffs", float64(handoffs))
}

func (e *fedEpoch) finish() roundSample {
	var s roundSample
	for _, m := range e.f.members {
		if !e.f.dead[m.ID()] {
			drain(&s, m.Manager(), true)
		}
	}
	return s
}
