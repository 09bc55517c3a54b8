package rest

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/consistentapi"
	"poddiagnosis/internal/core"
	"poddiagnosis/internal/federate"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/obs/flight"
	"poddiagnosis/internal/simaws"
)

// fedEnv is a REST federation: two member servers (each its own
// Manager over one shared simulated cloud) and one front server that
// proxies the /operations surface.
type fedEnv struct {
	clk      *clock.Scaled
	front    *federate.Front
	frontSrv *httptest.Server
	frontCl  *Client
	members  map[string]*fedEnvMember
	ctx      context.Context
}

type fedEnvMember struct {
	mgr     *core.Manager
	srv     *httptest.Server
	agent   *federate.Agent
	stopped bool
}

// kill crashes the member: REST server gone, manager stopped.
func (m *fedEnvMember) kill() {
	m.srv.Close()
	if !m.stopped {
		m.stopped = true
		m.mgr.Stop()
	}
}

func newFedEnv(t *testing.T) *fedEnv {
	t.Helper()
	clk := clock.NewScaled(1000, time.Unix(0, 0))
	bus := logging.NewBus()
	profile := simaws.FastProfile()
	profile.TickInterval = 200 * time.Millisecond
	cloud := simaws.New(clk, profile, simaws.WithSeed(17), simaws.WithBus(bus))
	cloud.Start()
	t.Cleanup(func() { cloud.Stop(); bus.Close() })
	ctx := context.Background()

	front := federate.NewFront(clk, federate.Config{LeaseTTL: 30 * time.Second})
	frontSrv := httptest.NewServer(NewServer(nil, nil, nil, WithFront(front)))
	t.Cleanup(frontSrv.Close)
	frontCl := NewClient(frontSrv.URL, nil, WithClientClock(clk))

	env := &fedEnv{
		clk: clk, front: front, frontSrv: frontSrv, frontCl: frontCl,
		members: map[string]*fedEnvMember{}, ctx: ctx,
	}
	for _, id := range []string{"ma", "mb"} {
		mgr, err := core.NewManager(core.ManagerConfig{
			Cloud: cloud, Bus: bus,
			API: consistentapi.Config{
				MaxAttempts: 3, InitialBackoff: 50 * time.Millisecond,
				MaxBackoff: time.Second, CallTimeout: 20 * time.Second,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		mgr.Start()
		srv := httptest.NewServer(NewServer(mgr.Checker(), mgr.Evaluator(), mgr.Diagnoser(), WithManager(mgr)))
		t.Cleanup(srv.Close)
		agent := NewFederationAgent(id, srv.URL, mgr, frontCl)
		if err := agent.Join(ctx); err != nil {
			t.Fatal(err)
		}
		mem := &fedEnvMember{mgr: mgr, srv: srv, agent: agent}
		t.Cleanup(func() {
			if !mem.stopped {
				mem.stopped = true
				mem.mgr.Stop()
			}
		})
		env.members[id] = mem
	}
	return env
}

// TestFederationOverREST drives the whole lease protocol across the
// wire: join, renew with piggybacked snapshots, member death, failover
// via POST /operations/restore on the survivor, and proxy reads that
// keep answering from the front's single base URL across the handoff.
func TestFederationOverREST(t *testing.T) {
	e := newFedEnv(t)
	const opID = "wire-op"
	sum, err := e.frontCl.CreateOperation(e.ctx, federate.WatchRequest{
		ID:          opID,
		Expect:      core.Expectation{ASGName: "wire--asg", ClusterSize: 2},
		InstanceIDs: []string{"wire-task"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.ID != opID {
		t.Fatalf("created operation id %q, want %q", sum.ID, opID)
	}
	route, err := e.frontCl.FederationRoute(e.ctx, opID)
	if err != nil {
		t.Fatal(err)
	}
	owner := e.members[route.Owner]
	if owner == nil {
		t.Fatalf("route names unknown member %q", route.Owner)
	}
	var survivor *fedEnvMember
	for id, m := range e.members {
		if id != route.Owner {
			survivor = m
		}
	}

	// Heartbeats replicate both members' snapshots to the front.
	if err := owner.agent.RenewOnce(e.ctx); err != nil {
		t.Fatal(err)
	}
	if err := survivor.agent.RenewOnce(e.ctx); err != nil {
		t.Fatal(err)
	}
	infos, err := e.frontCl.FederationMembers(e.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("membership size %d, want 2", len(infos))
	}

	// The owner dies: its server goes away and its heartbeats stop.
	owner.kill()
	for i := 0; i < 40; i++ {
		if err := survivor.agent.RenewOnce(e.ctx); err != nil {
			t.Fatal(err)
		}
		e.front.Tick(e.ctx)
		if r, err := e.frontCl.FederationRoute(e.ctx, opID); err == nil && r.Owner == survivor.agent.ID {
			break
		}
		if err := e.clk.Sleep(e.ctx, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	route, err = e.frontCl.FederationRoute(e.ctx, opID)
	if err != nil {
		t.Fatal(err)
	}
	if route.Owner != survivor.agent.ID {
		t.Fatalf("operation never failed over; still routed to %q", route.Owner)
	}
	if route.Epoch != 2 {
		t.Fatalf("handoff epoch %d, want 2", route.Epoch)
	}

	// The adopted session is live on the survivor, restored over REST,
	// with the handoff recorded on its flight ring — and the front's
	// proxy keeps serving it from the same base URL.
	if survivor.mgr.Session(opID) == nil {
		t.Fatalf("survivor's manager does not hold the adopted session")
	}
	got, err := e.frontCl.Operation(e.ctx, opID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != opID {
		t.Fatalf("front proxy returned operation %q, want %q", got.ID, opID)
	}
	tl, err := e.frontCl.OperationTimeline(e.ctx, opID)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Entries) == 0 || tl.Entries[len(tl.Entries)-1].Kind != flight.KindHandoff {
		t.Fatalf("proxied timeline does not end with a federation.handoff entry")
	}
}

// TestWatchRequestSameThroughFront posts one request with every field
// set to a single-manager server and to a front server, which places it
// on a REST-backed member: both paths must register the same session.
func TestWatchRequestSameThroughFront(t *testing.T) {
	single := newOpsEnv(t)
	fed := newFedEnv(t)
	req := federate.WatchRequest{
		ID:            "same-op",
		Expect:        core.Expectation{ASGName: "same--asg", ELBName: "same-elb", ClusterSize: 4},
		InstanceIDs:   []string{"same-task"},
		MatchASG:      true,
		MatchAny:      true,
		AssertionSpec: "on step8 assert asg-instance-count want={n}\n",
		MaxDetections: 9,
	}
	direct, err := single.client.CreateOperation(single.ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	viaFront, err := fed.frontCl.CreateOperation(fed.ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, viaFront) {
		t.Fatalf("summaries differ:\n direct    %+v\n via front %+v", direct, viaFront)
	}
	if direct.Expect.MinInService != 3 || !reflect.DeepEqual(direct.Instances, []string{"same-task"}) {
		t.Fatalf("summary = %+v", direct)
	}
	route, err := fed.frontCl.FederationRoute(fed.ctx, req.ID)
	if err != nil {
		t.Fatal(err)
	}
	a, err := single.mgr.ExportSession(req.ID)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fed.members[route.Owner].mgr.ExportSession(req.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*core.SessionSnapshot{a, b} {
		if !s.MatchASG || !s.MatchAny || s.SpecText != req.AssertionSpec || s.MaxDetections != req.MaxDetections {
			t.Errorf("session %s lost a request field: %+v", s.ID, s)
		}
	}
}

// TestFederationAgentStaleRecoveryOverREST drives the split-brain guard
// across the wire: a member that stops renewing while it keeps running
// loses its operation to the survivor; its next renewal comes back
// stale, so it drops the operation and re-joins under a higher epoch,
// leaving exactly one manager holding it.
func TestFederationAgentStaleRecoveryOverREST(t *testing.T) {
	e := newFedEnv(t)
	const opID = "stale-op"
	if _, err := e.frontCl.CreateOperation(e.ctx, federate.WatchRequest{
		ID:          opID,
		Expect:      core.Expectation{ASGName: "stale--asg", ClusterSize: 2},
		InstanceIDs: []string{"stale-task"},
	}); err != nil {
		t.Fatal(err)
	}
	route, err := e.frontCl.FederationRoute(e.ctx, opID)
	if err != nil {
		t.Fatal(err)
	}
	owner := e.members[route.Owner]
	var survivor *fedEnvMember
	for id, m := range e.members {
		if id != route.Owner {
			survivor = m
		}
	}
	for _, m := range []*fedEnvMember{owner, survivor} {
		if err := m.agent.RenewOnce(e.ctx); err != nil {
			t.Fatal(err)
		}
	}
	oldEpoch := owner.agent.Epoch()

	// Only the survivor renews until the front fails the operation over.
	for i := 0; i < 40; i++ {
		if err := survivor.agent.RenewOnce(e.ctx); err != nil {
			t.Fatal(err)
		}
		e.front.Tick(e.ctx)
		if r, err := e.frontCl.FederationRoute(e.ctx, opID); err == nil && r.Owner == survivor.agent.ID {
			break
		}
		if err := e.clk.Sleep(e.ctx, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if r, _ := e.frontCl.FederationRoute(e.ctx, opID); r.Owner != survivor.agent.ID {
		t.Fatalf("operation never failed over; still routed to %q", r.Owner)
	}
	if owner.mgr.Session(opID) == nil {
		t.Fatalf("the lapsed member should still hold its stale copy")
	}

	if err := owner.agent.RenewOnce(e.ctx); err != nil {
		t.Fatal(err)
	}
	if owner.agent.Epoch() <= oldEpoch {
		t.Fatalf("stale member's epoch %d did not advance past %d", owner.agent.Epoch(), oldEpoch)
	}
	holders := 0
	for _, m := range e.members {
		if m.mgr.Session(opID) != nil {
			holders++
		}
	}
	if holders != 1 {
		t.Fatalf("operation held by %d managers after stale recovery, want exactly 1", holders)
	}
	route, err = e.frontCl.FederationRoute(e.ctx, opID)
	if err != nil {
		t.Fatal(err)
	}
	if e.members[route.Owner].mgr.Session(opID) == nil {
		t.Fatalf("front routes %s to %s, whose manager does not hold it", opID, route.Owner)
	}
	infos, err := e.frontCl.FederationMembers(e.ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if info.ID == owner.agent.ID && (info.State != federate.StateHealthy || info.Epoch != owner.agent.Epoch()) {
			t.Fatalf("re-joined member at the front: %+v, want healthy at epoch %d", info, owner.agent.Epoch())
		}
	}
}

// TestIdleRenewalBodyIsConstant: over the wire, a member's second
// renewal carries no snapshot of a session the first one delivered, so
// its body is as long over 200 sessions as over 10.
func TestIdleRenewalBodyIsConstant(t *testing.T) {
	ctx := context.Background()
	second := map[int]int{}
	for _, n := range []int{10, 200} {
		clk := clock.NewScaled(1000, time.Unix(0, 0))
		front := federate.NewFront(clk, federate.Config{LeaseTTL: time.Hour})
		h := NewServer(nil, nil, nil, WithFront(front))
		var mu sync.Mutex
		var bodies []int
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/federation/renew" {
				b, _ := io.ReadAll(r.Body) // a short body fails the decode below
				mu.Lock()
				bodies = append(bodies, len(b))
				mu.Unlock()
				r.Body = io.NopCloser(bytes.NewReader(b))
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		bus := logging.NewBus()
		t.Cleanup(bus.Close)
		mgr, err := core.NewManager(core.ManagerConfig{
			Cloud: simaws.New(clk, simaws.FastProfile()), Bus: bus, DisableAssertions: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		mgr.Start()
		t.Cleanup(mgr.Stop)
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("idle-%d", i)
			if _, err := mgr.Watch(core.Expectation{ASGName: id + "--asg", ClusterSize: 2}, core.WithSessionID(id)); err != nil {
				t.Fatal(err)
			}
		}
		agent := NewFederationAgent("ma", "http://127.0.0.1:1", mgr, NewClient(srv.URL, nil, WithClientClock(clk)))
		if err := agent.Join(ctx); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := agent.RenewOnce(ctx); err != nil {
				t.Fatal(err)
			}
		}
		mu.Lock()
		if len(bodies) != 2 || bodies[1] >= bodies[0] {
			t.Fatalf("renewal bodies over %d sessions: %v bytes, want a shorter second one", n, bodies)
		}
		second[n] = bodies[1]
		mu.Unlock()
	}
	if second[10] != second[200] {
		t.Errorf("second renewal body is %d bytes over 10 sessions but %d over 200", second[10], second[200])
	}
}
