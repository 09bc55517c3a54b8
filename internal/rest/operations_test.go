package rest

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/consistentapi"
	"poddiagnosis/internal/core"
	"poddiagnosis/internal/faultinject"
	"poddiagnosis/internal/federate"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/simaws"
	"poddiagnosis/internal/upgrade"
)

// opsEnv is a live Manager fronted by the REST server.
type opsEnv struct {
	clk    *clock.Scaled
	bus    *logging.Bus
	cloud  *simaws.Cloud
	mgr    *core.Manager
	client *Client
	base   string
	ctx    context.Context
}

func newOpsEnv(t *testing.T) *opsEnv {
	t.Helper()
	clk := clock.NewScaled(1200, time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC))
	bus := logging.NewBus()
	profile := simaws.FastProfile()
	// Instances boot slowly enough that a fault injected 10s into an
	// upgrade strikes mid-flight, before the last step's assertions run.
	profile.BootTime = clock.Fixed(30 * time.Second)
	profile.TickInterval = time.Second
	cloud := simaws.New(clk, profile, simaws.WithSeed(17), simaws.WithBus(bus))
	cloud.Start()
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
		t.Fatal(err)
	}
	mgr.Start()
	srv := httptest.NewServer(NewServer(mgr.Checker(), mgr.Evaluator(), mgr.Diagnoser(), WithManager(mgr)))
	t.Cleanup(func() { srv.Close(); mgr.Stop(); cloud.Stop(); bus.Close() })
	return &opsEnv{
		clk: clk, bus: bus, cloud: cloud, mgr: mgr,
		client: NewClient(srv.URL, nil), base: srv.URL, ctx: context.Background(),
	}
}

// TestOperationsRoundTrip registers a session over HTTP, runs a faulted
// rolling upgrade under it, and reads the detections back over HTTP.
func TestOperationsRoundTrip(t *testing.T) {
	e := newOpsEnv(t)

	cluster, err := upgrade.Deploy(e.ctx, e.cloud, "pm", 2, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.WaitReady(e.ctx, e.cloud, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	newAMI, err := e.cloud.RegisterImage(e.ctx, "pm-v2", "v2", upgrade.AppServices)
	if err != nil {
		t.Fatal(err)
	}
	taskID := "pushing " + cluster.ASGName
	spec := cluster.UpgradeSpec(taskID, newAMI)
	spec.NewLCName = cluster.ASGName + "-lc-" + newAMI
	spec.WaitTimeout = 5 * time.Minute
	spec.PollInterval = 5 * time.Second

	// Register the monitoring session over the wire.
	sum, err := e.client.CreateOperation(e.ctx, federate.WatchRequest{
		ID: "push-pm",
		Expect: core.Expectation{
			ASGName:      cluster.ASGName,
			ELBName:      cluster.ELBName,
			NewImageID:   newAMI,
			NewVersion:   "v2",
			NewLCName:    spec.NewLCName,
			KeyName:      cluster.KeyName,
			SGName:       cluster.SGName,
			InstanceType: "m1.small",
			ClusterSize:  2,
		},
		InstanceIDs: []string{taskID},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.ID != "push-pm" || sum.State != core.SessionActive {
		t.Fatalf("created operation = %+v", sum)
	}
	// Duplicate registration is rejected with a client-visible error.
	if _, err := e.client.CreateOperation(e.ctx, federate.WatchRequest{
		ID:     "push-pm",
		Expect: core.Expectation{ASGName: cluster.ASGName, ClusterSize: 2},
	}); err == nil || !strings.Contains(err.Error(), "status 400") {
		t.Fatalf("duplicate id error = %v", err)
	}

	ops, err := e.client.Operations(e.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 || ops[0].ID != "push-pm" {
		t.Fatalf("operations list = %+v", ops)
	}
	if _, err := e.client.Operation(e.ctx, "nope"); err == nil || !strings.Contains(err.Error(), "status 404") {
		t.Fatalf("unknown id error = %v", err)
	}

	// Run the upgrade with a key-pair fault injected mid-flight: once the
	// group runs the upgrade's launch configuration.
	inj := faultinject.NewInjector(e.cloud, cluster, 7)
	defer inj.Heal()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = inj.Inject(e.ctx, faultinject.KindKeyPairChanged, 0, spec.NewLCName, newAMI)
	}()
	upgrade.NewUpgrader(e.cloud, e.bus).Run(e.ctx, spec)
	wg.Wait()
	e.mgr.Drain(e.ctx, 2*time.Minute)

	dets, err := e.client.OperationDetections(e.ctx, "push-pm")
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) == 0 {
		t.Fatal("no detections over REST after faulted upgrade")
	}
	for _, d := range dets {
		if d.Operation != "push-pm" {
			t.Errorf("detection labelled %q, want push-pm", d.Operation)
		}
		if d.InstanceID != taskID {
			t.Errorf("detection references foreign instance %q", d.InstanceID)
		}
	}

	// Readiness aggregates the per-session backlog.
	ready, err := e.client.Ready(e.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !ready.Ready {
		t.Fatalf("ready = %+v", ready)
	}
	if _, ok := ready.PerOperation["push-pm"]; !ok {
		t.Fatalf("readyz missing per-operation backlog: %+v", ready)
	}

	// Removal over the wire is immediate and idempotent-false.
	if err := e.client.RemoveOperation(e.ctx, "push-pm"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.client.Operation(e.ctx, "push-pm"); err == nil || !strings.Contains(err.Error(), "status 404") {
		t.Fatalf("removed operation still served: %v", err)
	}
	if err := e.client.RemoveOperation(e.ctx, "push-pm"); err == nil || !strings.Contains(err.Error(), "status 404") {
		t.Fatalf("second remove error = %v", err)
	}
}

// TestOperationsWithoutManager checks the endpoints degrade to 503 when
// the server has no manager attached.
func TestOperationsWithoutManager(t *testing.T) {
	srv := httptest.NewServer(NewServer(nil, nil, nil))
	defer srv.Close()
	client := NewClient(srv.URL, nil)
	ctx := context.Background()
	if _, err := client.Operations(ctx); err == nil || !strings.Contains(err.Error(), "status 503") {
		t.Fatalf("list without manager: %v", err)
	}
	if _, err := client.CreateOperation(ctx, federate.WatchRequest{}); err == nil || !strings.Contains(err.Error(), "status 503") {
		t.Fatalf("create without manager: %v", err)
	}
	if _, err := client.OperationDetections(ctx, "x"); err == nil || !strings.Contains(err.Error(), "status 503") {
		t.Fatalf("detections without manager: %v", err)
	}
	if _, err := client.OperationTimeline(ctx, "x"); err == nil || !strings.Contains(err.Error(), "status 503") {
		t.Fatalf("timeline without manager: %v", err)
	}
	if err := client.RemoveOperation(ctx, "x"); err == nil || !strings.Contains(err.Error(), "status 503") {
		t.Fatalf("remove without manager: %v", err)
	}
}
