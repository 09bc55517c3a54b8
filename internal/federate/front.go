package federate

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/core"
)

// Config tunes the front's lease machine and placement.
type Config struct {
	// LeaseTTL is how long a renewal keeps a member healthy; at expiry
	// it turns suspect. Defaults to 10s (simulated time). The lease
	// monitor checks every LeaseTTL/4.
	LeaseTTL time.Duration
	// DeadAfter is the grace past expiry before a suspect member is
	// declared dead and failed over. Defaults to LeaseTTL.
	DeadAfter time.Duration
	// MaxRebalanceMoves bounds how many operations one join may pull
	// onto the new member. Defaults to 4.
	MaxRebalanceMoves int
	// ShedPending, when positive, makes placement skip members whose
	// last reported backlog exceeds it (overload shedding). The skipped
	// member keeps what it has; it just gets nothing new.
	ShedPending int
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = c.LeaseTTL
	}
	if c.MaxRebalanceMoves <= 0 {
		c.MaxRebalanceMoves = 4
	}
	return c
}

// Front is the federation's routing and membership authority: it
// consistent-hashes operations onto members, runs the lease state
// machine, replicates heartbeat-carried snapshots, and fails a dead
// member's operations over onto survivors.
type Front struct {
	clk clock.Clock
	cfg Config

	mu      sync.Mutex
	members map[string]*memberEntry
	ring    *hashRing
	ops     map[string]*opEntry
	nextOp  int
	epochs  uint64
	stop    chan struct{}
	stopped bool
	wg      sync.WaitGroup
}

// memberEntry is the front's view of one member: its lease, its last
// reported backlog, and the last replicated snapshot of every
// operation it owns (the failover state — a dead member cannot be
// exported from).
type memberEntry struct {
	m       Member
	state   MemberState
	epoch   uint64
	expires time.Time
	pending int
	snaps   map[string]*core.SessionSnapshot
}

// opEntry tracks one routed operation: its current owner, its handoff
// epoch (bumped on every move, stamped into restored snapshots), and
// the original request for snapshot-less re-registration.
type opEntry struct {
	owner string
	epoch uint64
	req   WatchRequest
}

// NewFront builds a front on the given (injected) clock. Call Start to
// run the lease monitor.
func NewFront(clk clock.Clock, cfg Config) *Front {
	if clk == nil {
		clk = clock.NewReal()
	}
	cfg = cfg.withDefaults()
	return &Front{
		clk:     clk,
		cfg:     cfg,
		members: make(map[string]*memberEntry),
		ring:    newRing(),
		ops:     make(map[string]*opEntry),
		stop:    make(chan struct{}),
	}
}

// Config returns the front's effective (defaulted) configuration.
func (f *Front) Config() Config { return f.cfg }

// Start runs the lease monitor until Stop.
func (f *Front) Start() {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		ticker := clock.NewTicker(f.clk, f.cfg.LeaseTTL/4)
		defer ticker.Stop()
		for {
			select {
			case <-f.stop:
				return
			case <-ticker.C:
				f.Tick(context.Background())
			}
		}
	}()
}

// Stop halts the lease monitor. Idempotent.
func (f *Front) Stop() {
	f.mu.Lock()
	if !f.stopped {
		f.stopped = true
		close(f.stop)
	}
	f.mu.Unlock()
	f.wg.Wait()
}

// Join admits (or re-admits) a member under a fresh, strictly
// increasing epoch, adds it to the ring, and pulls up to
// MaxRebalanceMoves operations it now owns off their current members
// via graceful export → restore → remove handoffs. Returns the epoch
// the member must renew with.
func (f *Front) Join(m Member) (uint64, error) {
	if m == nil || m.ID() == "" {
		return 0, fmt.Errorf("federate: member with empty id")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.epochs++
	epoch := f.epochs
	e := f.members[m.ID()]
	if e == nil {
		e = &memberEntry{}
		f.members[m.ID()] = e
	} else if e.state != StateDead {
		// A live member re-joining (e.g. after a stale renewal) resets
		// its lease; its old epoch is dead either way.
		mFedTransitions.With(string(StateHealthy)).Inc()
	}
	prevSnaps := e.snaps
	e.m = m
	e.epoch = epoch
	e.state = StateHealthy
	e.expires = f.clk.Now().Add(f.cfg.LeaseTTL)
	e.pending = 0
	e.snaps = make(map[string]*core.SessionSnapshot)
	f.ring.add(m.ID())
	f.rebalanceLocked(context.Background(), m.ID(), prevSnaps)
	f.gaugesLocked()
	return epoch, nil
}

// Renew extends a member's lease and stores its piggybacked snapshots.
// A renewal under a stale epoch — or from a member already declared
// dead — is refused: the split-brain guard. The refused member learns
// which operations it must drop and has to re-join for a fresh epoch.
func (f *Front) Renew(memberID string, epoch uint64, r Renewal) RenewResult {
	f.mu.Lock()
	defer f.mu.Unlock()
	e := f.members[memberID]
	if e == nil || e.state == StateDead || e.epoch != epoch {
		mFedRenewals.With("stale").Inc()
		return RenewResult{Stale: true, DropOps: f.foreignOpsLocked(memberID)}
	}
	if e.state == StateSuspect {
		e.state = StateHealthy
		mFedTransitions.With(string(StateHealthy)).Inc()
	}
	e.expires = f.clk.Now().Add(f.cfg.LeaseTTL)
	e.pending = r.Pending
	for _, snap := range r.Snapshots {
		if snap == nil || snap.ID == "" {
			continue
		}
		// Replicate only operations this member actually owns: a stale
		// snapshot of a failed-over operation must not shadow the
		// survivor's state.
		if op := f.ops[snap.ID]; op != nil && op.owner == memberID {
			e.snaps[snap.ID] = snap
		}
	}
	mFedRenewals.With("ok").Inc()
	f.gaugesLocked()
	return RenewResult{Expires: e.expires}
}

// Watch places a new operation on the ring and registers it with the
// chosen member. An empty id is assigned ("fed-op-N"). Returns the
// session summary and the owning member's id.
func (f *Front) Watch(ctx context.Context, req WatchRequest) (core.SessionSummary, string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if req.ID == "" {
		f.nextOp++
		req.ID = fmt.Sprintf("fed-op-%d", f.nextOp)
	}
	if _, dup := f.ops[req.ID]; dup {
		return core.SessionSummary{}, "", fmt.Errorf("federate: operation %q already registered", req.ID)
	}
	owner := f.placeLocked(req.ID)
	if owner == "" {
		return core.SessionSummary{}, "", fmt.Errorf("federate: no healthy members")
	}
	sum, err := f.members[owner].m.Watch(ctx, req)
	if err != nil {
		return core.SessionSummary{}, "", fmt.Errorf("federate: member %s: %w", owner, err)
	}
	f.ops[req.ID] = &opEntry{owner: owner, epoch: 1, req: req}
	f.gaugesLocked()
	return sum, owner, nil
}

// Route resolves the member currently owning an operation.
func (f *Front) Route(opID string) (Member, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	op := f.ops[opID]
	if op == nil {
		return nil, false
	}
	e := f.members[op.owner]
	if e == nil {
		return nil, false
	}
	return e.m, true
}

// Remove unregisters an operation from the federation and deletes its
// session from the owning member.
func (f *Front) Remove(ctx context.Context, opID string) error {
	f.mu.Lock()
	op := f.ops[opID]
	if op == nil {
		f.mu.Unlock()
		return fmt.Errorf("federate: no such operation: %s", opID)
	}
	var m Member
	if e := f.members[op.owner]; e != nil {
		m = e.m
		delete(e.snaps, opID)
	}
	delete(f.ops, opID)
	f.gaugesLocked()
	f.mu.Unlock()
	if m != nil {
		return m.Remove(ctx, opID)
	}
	return nil
}

// Owner reports an operation's owning member id and handoff epoch.
func (f *Front) Owner(opID string) (string, uint64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	op := f.ops[opID]
	if op == nil {
		return "", 0, false
	}
	return op.owner, op.epoch, true
}

// Members lists the membership, sorted by id.
func (f *Front) Members() []MemberInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	owned := make(map[string]int, len(f.members))
	for _, op := range f.ops {
		owned[op.owner]++
	}
	out := make([]MemberInfo, 0, len(f.members))
	for id, e := range f.members {
		out = append(out, MemberInfo{
			ID: id, State: e.state, Epoch: e.epoch,
			Expires: e.expires, Pending: e.pending, Operations: owned[id],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Operations aggregates the routed operations' summaries from their
// owners, sorted by operation id. Owners that fail to answer are
// skipped.
func (f *Front) Operations(ctx context.Context) []core.SessionSummary {
	type probe struct {
		id string
		m  Member
	}
	f.mu.Lock()
	probes := make([]probe, 0, len(f.ops))
	for id, op := range f.ops {
		if e := f.members[op.owner]; e != nil {
			probes = append(probes, probe{id, e.m})
		}
	}
	f.mu.Unlock()
	sort.Slice(probes, func(i, j int) bool { return probes[i].id < probes[j].id })
	out := make([]core.SessionSummary, 0, len(probes))
	for _, p := range probes {
		if sum, err := p.m.Operation(ctx, p.id); err == nil {
			out = append(out, sum)
		}
	}
	return out
}

// Tick advances the lease state machine once: expired leases turn
// suspect, suspects past the grace window turn dead and their
// operations fail over. Start calls it on the monitor cadence; tests
// call it directly for determinism.
func (f *Front) Tick(ctx context.Context) {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.clk.Now()
	ids := make([]string, 0, len(f.members))
	for id := range f.members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		e := f.members[id]
		if e.state == StateHealthy && !now.Before(e.expires) {
			e.state = StateSuspect
			mFedTransitions.With(string(StateSuspect)).Inc()
		}
		if e.state == StateSuspect && !now.Before(e.expires.Add(f.cfg.DeadAfter)) {
			e.state = StateDead
			mFedTransitions.With(string(StateDead)).Inc()
			f.ring.remove(id)
			f.failoverLocked(ctx, id)
		}
	}
	f.gaugesLocked()
}

// moveLocked hands one operation to target: it restores the snapshot,
// stamped with the previous owner and the bumped handoff epoch — the
// stamp that makes the old owner's state unreinstatable — or, with no
// snapshot, re-registers the original request. On success the
// operation changes owner and the old owner's replicated copy is
// dropped.
func (f *Front) moveLocked(ctx context.Context, opID, target string, snap *core.SessionSnapshot, reason string) bool {
	op := f.ops[opID]
	m := f.members[target].m
	newEpoch := op.epoch + 1
	var err error
	if snap != nil {
		// Stamp a copy: snap may be a member's replica, which the member
		// does not resend until its session changes.
		stamped := *snap
		stamped.FromMember = op.owner
		stamped.HandoffEpoch = newEpoch
		err = m.Restore(ctx, &stamped)
	} else {
		_, err = m.Watch(ctx, op.req)
	}
	if err != nil {
		return false
	}
	if old := f.members[op.owner]; old != nil {
		delete(old.snaps, opID)
	}
	op.owner = target
	op.epoch = newEpoch
	mFedHandoffs.With(reason).Inc()
	return true
}

// failoverLocked re-homes every operation of a dead member onto ring
// survivors, restoring each from its last replicated snapshot (or
// re-registering from the original request when none was replicated
// yet).
func (f *Front) failoverLocked(ctx context.Context, deadID string) {
	dead := f.members[deadID]
	opIDs := make([]string, 0)
	for id, op := range f.ops {
		if op.owner == deadID {
			opIDs = append(opIDs, id)
		}
	}
	sort.Strings(opIDs)
	for _, opID := range opIDs {
		// With no survivor the orphan stays put; a future join
		// rebalances it.
		if target := f.placeLocked(opID); target != "" {
			f.moveLocked(ctx, opID, target, dead.snaps[opID], "member-dead")
		}
	}
}

// rebalanceLocked moves up to MaxRebalanceMoves operations whose ring
// owner became newID off their current (healthy) members, gracefully:
// live export → restore → remove. Operations orphaned on dead (or the
// re-joining member's own previous) incarnations move too, restored
// from the last replicated snapshot — prevSnaps is the joiner's
// snapshot cache from before this join, so a dead member coming back
// reclaims its own operations onto its fresh Manager.
func (f *Front) rebalanceLocked(ctx context.Context, newID string, prevSnaps map[string]*core.SessionSnapshot) {
	opIDs := make([]string, 0, len(f.ops))
	for id := range f.ops {
		opIDs = append(opIDs, id)
	}
	sort.Strings(opIDs)
	moves := 0
	for _, opID := range opIDs {
		if moves >= f.cfg.MaxRebalanceMoves {
			break
		}
		op := f.ops[opID]
		var snap *core.SessionSnapshot
		var err error
		reclaim := op.owner == newID
		oldE := f.members[op.owner]
		orphaned := oldE == nil || oldE.state == StateDead
		switch {
		case reclaim:
			// The joiner's fresh Manager does not hold its previous
			// incarnation's sessions; re-adopt them from the snapshots
			// that incarnation replicated. A live re-join (stale-epoch
			// recovery) still owns its sessions, so Restore fails on the
			// duplicate and the operation is left untouched.
			snap = prevSnaps[opID]
		case orphaned:
			if oldE != nil {
				snap = oldE.snaps[opID]
			}
		case f.ring.owner(opID) == newID:
			snap, err = oldE.m.Export(ctx, opID)
			if err != nil {
				snap = oldE.snaps[opID]
			}
		default:
			continue
		}
		if !f.moveLocked(ctx, opID, newID, snap, "rebalance") {
			continue
		}
		if !orphaned && !reclaim {
			_ = oldE.m.Remove(ctx, opID)
		}
		moves++
	}
}

// placeLocked walks the ring preference sequence for a key: the first
// healthy member under the shed threshold wins; if every healthy
// member is overloaded, the first healthy one takes it anyway (shed
// diverts load, it never drops an operation).
func (f *Front) placeLocked(key string) string {
	var fallback string
	for _, id := range f.ring.sequence(key) {
		e := f.members[id]
		if e == nil || e.state != StateHealthy {
			continue
		}
		if f.cfg.ShedPending > 0 && e.pending > f.cfg.ShedPending {
			if fallback == "" {
				fallback = id
			}
			mFedShed.Inc()
			continue
		}
		return id
	}
	return fallback
}

// foreignOpsLocked lists the operations the given member does NOT own
// — the drop list handed to a stale renewer.
func (f *Front) foreignOpsLocked(memberID string) []string {
	out := make([]string, 0, len(f.ops))
	for id, op := range f.ops {
		if op.owner != memberID {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

func (f *Front) gaugesLocked() {
	var healthy, suspect, dead int
	for _, e := range f.members {
		switch e.state {
		case StateHealthy:
			healthy++
		case StateSuspect:
			suspect++
		case StateDead:
			dead++
		}
	}
	mFedMembers.With(string(StateHealthy)).Set(float64(healthy))
	mFedMembers.With(string(StateSuspect)).Set(float64(suspect))
	mFedMembers.With(string(StateDead)).Set(float64(dead))
	mFedOps.Set(float64(len(f.ops)))
}
