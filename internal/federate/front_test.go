package federate

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"poddiagnosis/internal/core"
	"poddiagnosis/internal/obs/flight"
)

// manualClock is a hand-advanced clock for deterministic lease tests.
// Front tests drive Tick directly, so only Now/Since matter.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func newManualClock() *manualClock {
	return &manualClock{now: time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *manualClock) Sleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

// AfterFunc fires at once: the call runs without waiting for the clock.
func (c *manualClock) AfterFunc(_ time.Duration, f func()) func() bool {
	go f()
	return func() bool { return false }
}

func (c *manualClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// fakeMember is an in-memory Member for front unit tests: it records
// what the front asked it to do.
type fakeMember struct {
	id string

	mu       sync.Mutex
	watched  map[string]WatchRequest
	restored map[string]*core.SessionSnapshot
	removed  []string
	exports  map[string]*core.SessionSnapshot
}

func newFakeMember(id string) *fakeMember {
	return &fakeMember{
		id:       id,
		watched:  make(map[string]WatchRequest),
		restored: make(map[string]*core.SessionSnapshot),
		exports:  make(map[string]*core.SessionSnapshot),
	}
}

func (m *fakeMember) ID() string { return m.id }

func (m *fakeMember) Watch(_ context.Context, req WatchRequest) (core.SessionSummary, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.watched[req.ID]; dup {
		return core.SessionSummary{}, fmt.Errorf("duplicate operation %q", req.ID)
	}
	m.watched[req.ID] = req
	return core.SessionSummary{ID: req.ID, State: core.SessionActive}, nil
}

func (m *fakeMember) Export(_ context.Context, opID string) (*core.SessionSnapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if snap := m.exports[opID]; snap != nil {
		return snap, nil
	}
	return nil, fmt.Errorf("no export for %q", opID)
}

func (m *fakeMember) Restore(_ context.Context, snap *core.SessionSnapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.restored[snap.ID]; dup {
		return fmt.Errorf("duplicate operation %q", snap.ID)
	}
	if _, dup := m.watched[snap.ID]; dup {
		return fmt.Errorf("duplicate operation %q", snap.ID)
	}
	m.restored[snap.ID] = snap
	return nil
}

func (m *fakeMember) Remove(_ context.Context, opID string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.removed = append(m.removed, opID)
	delete(m.watched, opID)
	delete(m.restored, opID)
	return nil
}

func (m *fakeMember) Operation(_ context.Context, opID string) (core.SessionSummary, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.watched[opID]; ok {
		return core.SessionSummary{ID: opID, State: core.SessionActive}, nil
	}
	if _, ok := m.restored[opID]; ok {
		return core.SessionSummary{ID: opID, State: core.SessionActive}, nil
	}
	return core.SessionSummary{}, fmt.Errorf("no operation %q", opID)
}

func (m *fakeMember) Detections(_ context.Context, opID string) ([]core.Detection, error) {
	return nil, nil
}

func (m *fakeMember) Timeline(_ context.Context, opID string) (flight.Timeline, error) {
	return flight.Timeline{Operation: opID}, nil
}

func (m *fakeMember) holds(opID string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, w := m.watched[opID]
	_, r := m.restored[opID]
	return w || r
}

func memberState(t *testing.T, f *Front, id string) MemberState {
	t.Helper()
	for _, info := range f.Members() {
		if info.ID == id {
			return info.State
		}
	}
	t.Fatalf("member %s not listed", id)
	return ""
}

// watchOwnedBy registers operations until one lands on the wanted
// member (the ring is deterministic, so this terminates fast).
func watchOwnedBy(t *testing.T, f *Front, want string) string {
	t.Helper()
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("seek-%s-%d", want, i)
		_, owner, err := f.Watch(context.Background(), WatchRequest{ID: id})
		if err != nil {
			t.Fatal(err)
		}
		if owner == want {
			return id
		}
	}
	t.Fatalf("no key landed on member %s in 200 tries", want)
	return ""
}

// TestLeaseTransitions: healthy → suspect at lease expiry, back to
// healthy on renewal, suspect → dead after the grace window.
func TestLeaseTransitions(t *testing.T) {
	clk := newManualClock()
	f := NewFront(clk, Config{LeaseTTL: 10 * time.Second})
	m1, m2 := newFakeMember("m1"), newFakeMember("m2")
	e1, err := f.Join(m1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Join(m2); err != nil {
		t.Fatal(err)
	}

	clk.Advance(10 * time.Second)
	f.Tick(context.Background())
	if got := memberState(t, f, "m1"); got != StateSuspect {
		t.Fatalf("m1 after expiry: %s, want suspect", got)
	}

	if res := f.Renew("m1", e1, Renewal{}); res.Stale {
		t.Fatalf("renewal of suspect m1 with current epoch refused")
	}
	if got := memberState(t, f, "m1"); got != StateHealthy {
		t.Fatalf("m1 after renewal: %s, want healthy", got)
	}

	clk.Advance(10 * time.Second) // m1 expires again; m2 reaches expiry+grace
	f.Tick(context.Background())
	if got := memberState(t, f, "m1"); got != StateSuspect {
		t.Fatalf("m1: %s, want suspect", got)
	}
	if got := memberState(t, f, "m2"); got != StateDead {
		t.Fatalf("m2 after grace window: %s, want dead", got)
	}
}

// TestStaleEpochRejected is the split-brain guard: a member declared
// dead (e.g. it was partitioned) cannot renew under its old epoch, is
// told which operations to drop, and re-joins under a strictly newer
// epoch.
func TestStaleEpochRejected(t *testing.T) {
	clk := newManualClock()
	f := NewFront(clk, Config{LeaseTTL: 10 * time.Second})
	m1, m2 := newFakeMember("m1"), newFakeMember("m2")
	e1, _ := f.Join(m1)
	e2, _ := f.Join(m2)
	opID := watchOwnedBy(t, f, "m1")

	// m2 keeps renewing; m1 goes silent until declared dead.
	clk.Advance(10 * time.Second)
	f.Renew("m2", e2, Renewal{})
	f.Tick(context.Background())
	clk.Advance(10 * time.Second)
	f.Renew("m2", e2, Renewal{})
	f.Tick(context.Background())
	if got := memberState(t, f, "m1"); got != StateDead {
		t.Fatalf("m1: %s, want dead", got)
	}
	if owner, epoch, ok := f.Owner(opID); !ok || owner != "m2" || epoch != 2 {
		t.Fatalf("operation %s: owner=%s epoch=%d ok=%v, want failover to m2 at epoch 2", opID, owner, epoch, ok)
	}

	// The partition heals; m1's renewal under the old epoch must be
	// refused and must name the operation it no longer owns.
	res := f.Renew("m1", e1, Renewal{})
	if !res.Stale {
		t.Fatalf("dead m1 renewed under old epoch %d; split-brain guard failed", e1)
	}
	drops := map[string]bool{}
	for _, id := range res.DropOps {
		drops[id] = true
	}
	if !drops[opID] {
		t.Fatalf("DropOps %v does not list failed-over operation %s", res.DropOps, opID)
	}

	e1b, err := f.Join(m1)
	if err != nil {
		t.Fatal(err)
	}
	if e1b <= e2 {
		t.Fatalf("re-join epoch %d not newer than every prior epoch (%d, %d)", e1b, e1, e2)
	}
	if res := f.Renew("m1", e1b, Renewal{}); res.Stale {
		t.Fatalf("renewal under fresh epoch refused")
	}
}

// TestDeathFailoverRestoresSnapshot: a dead member's operation is
// restored onto a survivor from the last heartbeat-replicated
// snapshot, stamped with the source member and a bumped handoff epoch.
func TestDeathFailoverRestoresSnapshot(t *testing.T) {
	clk := newManualClock()
	f := NewFront(clk, Config{LeaseTTL: 10 * time.Second})
	m1, m2 := newFakeMember("m1"), newFakeMember("m2")
	e1, _ := f.Join(m1)
	e2, _ := f.Join(m2)
	opID := watchOwnedBy(t, f, "m1")

	snap := &core.SessionSnapshot{ID: opID, Detections: []core.Detection{{TriggerID: "keypair-changed"}}}
	f.Renew("m1", e1, Renewal{Snapshots: []*core.SessionSnapshot{snap}})

	clk.Advance(20 * time.Second)
	f.Renew("m2", e2, Renewal{})
	f.Tick(context.Background())
	f.Tick(context.Background())
	if got := memberState(t, f, "m1"); got != StateDead {
		t.Fatalf("m1: %s, want dead", got)
	}

	m2.mu.Lock()
	adopted := m2.restored[opID]
	m2.mu.Unlock()
	if adopted == nil {
		t.Fatalf("survivor did not adopt %s via Restore", opID)
	}
	if adopted.FromMember != "m1" || adopted.HandoffEpoch != 2 {
		t.Fatalf("adopted snapshot stamped from=%q epoch=%d, want m1/2", adopted.FromMember, adopted.HandoffEpoch)
	}
	if len(adopted.Detections) != 1 {
		t.Fatalf("snapshot state lost in failover: %+v", adopted)
	}
	if m, ok := f.Route(opID); !ok || m.ID() != "m2" {
		t.Fatalf("Route(%s) does not resolve to the survivor", opID)
	}
}

// TestJoinRebalanceBounded: a join pulls over only operations the new
// member now owns on the ring, gracefully (export → restore → remove),
// and never more than MaxRebalanceMoves.
func TestJoinRebalanceBounded(t *testing.T) {
	clk := newManualClock()
	f := NewFront(clk, Config{LeaseTTL: 10 * time.Second, MaxRebalanceMoves: 2})
	m1 := newFakeMember("m1")
	if _, err := f.Join(m1); err != nil {
		t.Fatal(err)
	}
	var ops []string
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("rb-op-%d", i)
		if _, _, err := f.Watch(context.Background(), WatchRequest{ID: id}); err != nil {
			t.Fatal(err)
		}
		m1.mu.Lock()
		m1.exports[id] = &core.SessionSnapshot{ID: id}
		m1.mu.Unlock()
		ops = append(ops, id)
	}

	m2 := newFakeMember("m2")
	if _, err := f.Join(m2); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, id := range ops {
		owner, _, _ := f.Owner(id)
		switch owner {
		case "m2":
			moved++
			if !m2.holds(id) {
				t.Errorf("front says m2 owns %s but m2 never adopted it", id)
			}
			if m1.holds(id) {
				t.Errorf("%s moved to m2 but was not removed from m1", id)
			}
		case "m1":
			if !m1.holds(id) {
				t.Errorf("front says m1 owns %s but m1 does not hold it", id)
			}
		default:
			t.Errorf("operation %s owned by unknown member %q", id, owner)
		}
	}
	if moved == 0 {
		t.Fatalf("join rebalanced nothing; expected up to 2 moves")
	}
	if moved > 2 {
		t.Fatalf("join moved %d operations, exceeding MaxRebalanceMoves=2", moved)
	}
}

// TestRejoinReclaimsOrphans: when every member is dead, operations
// orphan; the first re-join adopts them from the replicated snapshots.
func TestRejoinReclaimsOrphans(t *testing.T) {
	clk := newManualClock()
	f := NewFront(clk, Config{LeaseTTL: 10 * time.Second})
	m1 := newFakeMember("m1")
	e1, _ := f.Join(m1)
	_, _, err := f.Watch(context.Background(), WatchRequest{ID: "solo-op"})
	if err != nil {
		t.Fatal(err)
	}
	f.Renew("m1", e1, Renewal{Snapshots: []*core.SessionSnapshot{{ID: "solo-op"}}})

	clk.Advance(25 * time.Second)
	f.Tick(context.Background())
	if got := memberState(t, f, "m1"); got != StateDead {
		t.Fatalf("m1: %s, want dead", got)
	}

	// The crashed member restarts with an empty Manager and re-joins.
	m1b := newFakeMember("m1")
	if _, err := f.Join(m1b); err != nil {
		t.Fatal(err)
	}
	if !m1b.holds("solo-op") {
		t.Fatalf("re-joined member did not reclaim its orphaned operation from the replicated snapshot")
	}
	if owner, epoch, _ := f.Owner("solo-op"); owner != "m1" || epoch != 2 {
		t.Fatalf("solo-op owner=%s epoch=%d, want m1/2", owner, epoch)
	}
}

// TestOverloadShedding: a member reporting backlog above ShedPending is
// skipped at placement time in favour of the next ring successor, but
// still used when it is the only healthy member — shed diverts, never
// drops.
func TestOverloadShedding(t *testing.T) {
	clk := newManualClock()
	f := NewFront(clk, Config{LeaseTTL: 10 * time.Second, ShedPending: 5})
	m1, m2 := newFakeMember("m1"), newFakeMember("m2")
	e1, _ := f.Join(m1)
	e2, _ := f.Join(m2)
	f.Renew("m1", e1, Renewal{Pending: 50})
	f.Renew("m2", e2, Renewal{Pending: 0})

	for i := 0; i < 40; i++ {
		_, owner, err := f.Watch(context.Background(), WatchRequest{ID: fmt.Sprintf("shed-op-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if owner == "m1" {
			t.Fatalf("overloaded m1 received placement shed-op-%d", i)
		}
	}

	// Both overloaded: placement must still succeed (fallback).
	f.Renew("m2", e2, Renewal{Pending: 50})
	if _, owner, err := f.Watch(context.Background(), WatchRequest{ID: "shed-fallback"}); err != nil || owner == "" {
		t.Fatalf("placement with every member overloaded failed: owner=%q err=%v", owner, err)
	}
}

// TestSuspectGetsNoPlacements: new operations avoid suspect members.
func TestSuspectGetsNoPlacements(t *testing.T) {
	clk := newManualClock()
	f := NewFront(clk, Config{LeaseTTL: 10 * time.Second})
	m1, m2 := newFakeMember("m1"), newFakeMember("m2")
	_, _ = f.Join(m1)
	e2, _ := f.Join(m2)
	clk.Advance(10 * time.Second)
	f.Renew("m2", e2, Renewal{})
	f.Tick(context.Background())
	if got := memberState(t, f, "m1"); got != StateSuspect {
		t.Fatalf("m1: %s, want suspect", got)
	}
	for i := 0; i < 20; i++ {
		_, owner, err := f.Watch(context.Background(), WatchRequest{ID: fmt.Sprintf("sus-op-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if owner != "m2" {
			t.Fatalf("placement landed on %s while m1 is suspect", owner)
		}
	}
}

// TestRenewIgnoresForeignSnapshots: a renewal must not replicate
// snapshots for operations the renewing member does not own (a stale
// holder must not shadow the survivor's state).
func TestRenewIgnoresForeignSnapshots(t *testing.T) {
	clk := newManualClock()
	f := NewFront(clk, Config{LeaseTTL: 10 * time.Second})
	m1, m2 := newFakeMember("m1"), newFakeMember("m2")
	e1, _ := f.Join(m1)
	e2, _ := f.Join(m2)
	opID := watchOwnedBy(t, f, "m1")

	// m2 claims a snapshot of m1's operation; the front must drop it.
	f.Renew("m2", e2, Renewal{Snapshots: []*core.SessionSnapshot{{ID: opID, FromMember: "bogus"}}})
	// Let m1 die without ever replicating a snapshot: the failover path
	// must fall back to re-registration, not restore m2's bogus copy.
	clk.Advance(20 * time.Second)
	f.Renew("m2", e2, Renewal{})
	f.Tick(context.Background())
	f.Tick(context.Background())
	_ = e1
	m2.mu.Lock()
	_, restoredBogus := m2.restored[opID]
	_, rewatched := m2.watched[opID]
	m2.mu.Unlock()
	if restoredBogus {
		t.Fatalf("failover restored a snapshot replicated by a non-owner")
	}
	if !rewatched {
		t.Fatalf("failover without a replicated snapshot did not re-register the operation")
	}
}
