package federate

import (
	"context"
	"sync"
	"testing"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/consistentapi"
	"poddiagnosis/internal/core"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/obs/flight"
	"poddiagnosis/internal/simaws"
)

// fedRig is a two-member federation over one simulated cloud.
type fedRig struct {
	clk   *clock.Scaled
	front *Front
	m1    *LocalMember
	m2    *LocalMember
	ctx   context.Context
}

func newFedRig(t *testing.T) *fedRig {
	t.Helper()
	clk := clock.NewScaled(1200, time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC))
	bus := logging.NewBus()
	profile := simaws.FastProfile()
	profile.TickInterval = time.Second
	cloud := simaws.New(clk, profile, simaws.WithSeed(41), simaws.WithBus(bus))
	cloud.Start()
	t.Cleanup(func() { cloud.Stop(); bus.Close() })
	factory := func() (*core.Manager, error) {
		mgr, err := core.NewManager(core.ManagerConfig{
			Cloud: cloud,
			Bus:   bus,
			API: consistentapi.Config{
				MaxAttempts:    3,
				InitialBackoff: 500 * time.Millisecond,
				MaxBackoff:     4 * time.Second,
				CallTimeout:    30 * time.Second,
			},
		})
		if err != nil {
			return nil, err
		}
		mgr.Start()
		return mgr, nil
	}
	newMember := func(id string) *LocalMember {
		m, err := NewLocalMember(LocalConfig{ID: id, NewManager: factory})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.StopHeartbeats(); m.Manager().Stop() })
		return m
	}
	front := NewFront(clk, Config{LeaseTTL: 30 * time.Second})
	m1, m2 := newMember("m1"), newMember("m2")
	if err := m1.JoinFront(front); err != nil {
		t.Fatal(err)
	}
	if err := m2.JoinFront(front); err != nil {
		t.Fatal(err)
	}
	return &fedRig{clk: clk, front: front, m1: m1, m2: m2, ctx: context.Background()}
}

// TestRenewUnstartedMember renews a member whose factory builds its
// Manager without starting it: the renewal reads the backlog of a manager
// with no bus subscriptions yet, and reports it empty.
func TestRenewUnstartedMember(t *testing.T) {
	clk := clock.NewScaled(1200, time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC))
	bus := logging.NewBus()
	t.Cleanup(bus.Close)
	cloud := simaws.New(clk, simaws.FastProfile(), simaws.WithSeed(1), simaws.WithBus(bus))
	m, err := NewLocalMember(LocalConfig{ID: "cold", NewManager: func() (*core.Manager, error) {
		return core.NewManager(core.ManagerConfig{Cloud: cloud, Bus: bus})
	}})
	if err != nil {
		t.Fatal(err)
	}
	front := NewFront(clk, Config{LeaseTTL: 30 * time.Second})
	if err := m.JoinFront(front); err != nil {
		t.Fatal(err)
	}
	if err := m.agent.RenewOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ms := front.Members(); len(ms) != 1 || ms[0].Pending != 0 {
		t.Errorf("front membership after the renewal: %+v", ms)
	}
}

func (r *fedRig) byID(id string) (*LocalMember, *LocalMember) {
	if r.m1.ID() == id {
		return r.m1, r.m2
	}
	return r.m2, r.m1
}

// TestLocalMemberHandoff kills the member owning a live session and
// checks the survivor adopts it from the heartbeat-replicated snapshot
// with a federation.handoff entry on its flight ring; a later restart
// re-admits the dead member without ever leaving the operation held by
// two managers at once.
func TestLocalMemberHandoff(t *testing.T) {
	r := newFedRig(t)
	const opID = "fed-handoff-op"
	_, ownerID, err := r.front.Watch(r.ctx, WatchRequest{
		ID:          opID,
		Expect:      core.Expectation{ASGName: "fed--asg", ClusterSize: 2},
		InstanceIDs: []string{"fed-task"},
	})
	if err != nil {
		t.Fatal(err)
	}
	owner, survivor := r.byID(ownerID)

	// Replicate state to the front, then crash the owner.
	owner.HeartbeatNow()
	survivor.HeartbeatNow()
	owner.Kill()

	deadline := 40
	for ; deadline > 0; deadline-- {
		survivor.HeartbeatNow()
		r.front.Tick(r.ctx)
		if cur, _, _ := r.front.Owner(opID); cur == survivor.ID() {
			break
		}
		if err := r.clk.Sleep(r.ctx, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if deadline == 0 {
		t.Fatalf("operation never failed over to the survivor")
	}
	if _, epoch, _ := r.front.Owner(opID); epoch != 2 {
		t.Fatalf("handoff epoch = %d, want 2", epoch)
	}

	sess := survivor.Manager().Session(opID)
	if sess == nil {
		t.Fatalf("survivor's manager does not hold the adopted session")
	}
	tl := survivor.Manager().Flight().Timeline(opID)
	if len(tl.Entries) == 0 || tl.Entries[len(tl.Entries)-1].Kind != flight.KindHandoff {
		t.Fatalf("adopted session's flight ring does not end with a federation.handoff entry")
	}

	// The dead member's manager stays readable post-mortem.
	if owner.Manager() == nil {
		t.Fatalf("killed member lost its post-mortem manager handle")
	}

	// Restart and re-join: the operation must end up held by exactly one
	// manager, whatever the ring decides.
	if err := owner.Restart(); err != nil {
		t.Fatal(err)
	}
	if err := owner.JoinFront(r.front); err != nil {
		t.Fatal(err)
	}
	owner.HeartbeatNow()
	survivor.HeartbeatNow()
	r.front.Tick(r.ctx)
	holders := 0
	for _, m := range []*LocalMember{r.m1, r.m2} {
		if m.Manager().Session(opID) != nil {
			holders++
		}
	}
	if holders != 1 {
		t.Fatalf("operation held by %d managers after rejoin, want exactly 1", holders)
	}
	curOwner, _, _ := r.front.Owner(opID)
	cur, _ := r.byID(curOwner)
	if cur.Manager().Session(opID) == nil {
		t.Fatalf("front routes %s to %s, whose manager does not hold it", opID, curOwner)
	}
}

// TestLocalMemberPartitionSplitBrain partitions the owner instead of
// killing it: the session keeps running on the stale member, but after
// the front fails it over, the healed member's first heartbeat learns
// it is stale, drops the foreign session and re-joins — leaving the
// operation monitored by exactly one current owner.
func TestLocalMemberPartitionSplitBrain(t *testing.T) {
	r := newFedRig(t)
	const opID = "fed-partition-op"
	_, ownerID, err := r.front.Watch(r.ctx, WatchRequest{
		ID:          opID,
		Expect:      core.Expectation{ASGName: "fedp--asg", ClusterSize: 2},
		InstanceIDs: []string{"fedp-task"},
	})
	if err != nil {
		t.Fatal(err)
	}
	owner, survivor := r.byID(ownerID)
	owner.HeartbeatNow()
	survivor.HeartbeatNow()
	oldEpoch := owner.Epoch()
	owner.SetPartitioned(true)

	deadline := 40
	for ; deadline > 0; deadline-- {
		owner.HeartbeatNow() // silently skipped while partitioned
		survivor.HeartbeatNow()
		r.front.Tick(r.ctx)
		if cur, _, _ := r.front.Owner(opID); cur == survivor.ID() {
			break
		}
		if err := r.clk.Sleep(r.ctx, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if deadline == 0 {
		t.Fatalf("operation never failed over away from the partitioned owner")
	}
	// Both sides hold the session right now: the partitioned member does
	// not know it lost ownership. Heal the partition; the next heartbeat
	// must fire the split-brain guard.
	if owner.Manager().Session(opID) == nil {
		t.Fatalf("partitioned member should still hold the stale session before healing")
	}
	owner.SetPartitioned(false)
	owner.HeartbeatNow()
	if owner.Epoch() <= oldEpoch {
		t.Fatalf("healed member's epoch %d did not advance past %d", owner.Epoch(), oldEpoch)
	}
	// The guard made the healed member drop the stale copy before
	// re-joining; the join's rebalance may then have handed the
	// operation back gracefully. Either way exactly one manager may
	// hold it, and it must be the one the front routes to.
	holders := 0
	for _, m := range []*LocalMember{r.m1, r.m2} {
		if m.Manager().Session(opID) != nil {
			holders++
		}
	}
	if holders != 1 {
		t.Fatalf("operation held by %d managers after the partition healed, want exactly 1", holders)
	}
	curOwner, epoch, _ := r.front.Owner(opID)
	cur, _ := r.byID(curOwner)
	if cur.Manager().Session(opID) == nil {
		t.Fatalf("front routes %s to %s, whose manager does not hold it", opID, curOwner)
	}
	if epoch < 2 {
		t.Fatalf("operation epoch %d did not advance across the failover", epoch)
	}
}

// TestHeartbeatLoopConcurrentWithHeartbeatNow runs each member's
// heartbeat loop while other goroutines renew by hand through the same
// agent. Under -race this covers the state both paths share; and since
// nothing re-joins, no renewal may come back stale and move an epoch.
func TestHeartbeatLoopConcurrentWithHeartbeatNow(t *testing.T) {
	r := newFedRig(t)
	if _, _, err := r.front.Watch(r.ctx, WatchRequest{
		ID:          "fed-beat-op",
		Expect:      core.Expectation{ASGName: "fedb--asg", ClusterSize: 2},
		InstanceIDs: []string{"fedb-task"},
	}); err != nil {
		t.Fatal(err)
	}
	members := []*LocalMember{r.m1, r.m2}
	epochs := []uint64{r.m1.Epoch(), r.m2.Epoch()}
	var wg sync.WaitGroup
	for _, m := range members {
		m.StartHeartbeats(time.Second)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m.HeartbeatNow()
			}
		}()
	}
	wg.Wait()
	for i, m := range members {
		m.StopHeartbeats()
		if m.Epoch() != epochs[i] {
			t.Errorf("member %s epoch moved %d -> %d without a re-join", m.ID(), epochs[i], m.Epoch())
		}
	}
	for _, info := range r.front.Members() {
		if info.State != StateHealthy {
			t.Errorf("member %s is %s after concurrent renewals", info.ID, info.State)
		}
	}
}
