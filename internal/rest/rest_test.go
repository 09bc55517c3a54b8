package rest

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/conformance"
	"poddiagnosis/internal/consistentapi"
	"poddiagnosis/internal/diagnosis"
	"poddiagnosis/internal/diagplan"
	"poddiagnosis/internal/process"
	"poddiagnosis/internal/simaws"
	"poddiagnosis/internal/upgrade"
)

// restEnv spins up all three services over a deployed cluster.
type restEnv struct {
	srv     *httptest.Server
	client  *Client
	cloud   *simaws.Cloud
	cluster *upgrade.Cluster
	ctx     context.Context
}

func newRESTEnv(t *testing.T) *restEnv {
	t.Helper()
	clk := clock.NewScaled(1000, time.Unix(0, 0))
	profile := simaws.FastProfile()
	profile.BootTime = clock.Fixed(time.Second)
	profile.TickInterval = 200 * time.Millisecond
	cloud := simaws.New(clk, profile, simaws.WithSeed(8))
	cloud.Start()
	t.Cleanup(cloud.Stop)

	ctx := context.Background()
	cluster, err := upgrade.Deploy(ctx, cloud, "pm", 2, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.WaitReady(ctx, cloud, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	client := consistentapi.New(cloud, consistentapi.Config{
		MaxAttempts: 3, InitialBackoff: 50 * time.Millisecond,
		MaxBackoff: time.Second, CallTimeout: 20 * time.Second,
	})
	eval := assertion.NewEvaluator(client, assertion.DefaultRegistry(), nil)
	checker := conformance.NewChecker(process.RollingUpgradeModel())
	diag := diagnosis.NewEngine(diagplan.FullCatalog(), eval, nil, diagnosis.Options{})
	srv := httptest.NewServer(NewServer(checker, eval, diag))
	t.Cleanup(srv.Close)
	return &restEnv{
		srv: srv, client: NewClient(srv.URL, nil),
		cloud: cloud, cluster: cluster, ctx: ctx,
	}
}

func TestHealthz(t *testing.T) {
	e := newRESTEnv(t)
	if !e.client.Healthy(e.ctx) {
		t.Fatal("server not healthy")
	}
}

func TestConformanceEndpoint(t *testing.T) {
	e := newRESTEnv(t)
	res, err := e.client.CheckConformance(e.ctx, ConformanceRequest{
		TraceID: "task-1",
		Line:    "Starting rolling upgrade of group pm--asg to image ami-2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != conformance.VerdictFit {
		t.Fatalf("verdict = %s", res.Verdict)
	}
	// Out-of-order line is unfit, with context crossing the wire.
	res, err = e.client.CheckConformance(e.ctx, ConformanceRequest{
		TraceID: "task-1",
		Line:    "Terminating old instance i-1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != conformance.VerdictUnfit || res.Context == nil {
		t.Fatalf("res = %+v", res)
	}
	ids, err := e.client.Instances(e.ctx)
	if err != nil || len(ids) != 1 || ids[0] != "task-1" {
		t.Fatalf("instances = %v, %v", ids, err)
	}
}

func TestConformanceValidation(t *testing.T) {
	e := newRESTEnv(t)
	_, err := e.client.CheckConformance(e.ctx, ConformanceRequest{TraceID: "", Line: ""})
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("err = %v", err)
	}
}

func TestEvaluateEndpoint(t *testing.T) {
	e := newRESTEnv(t)
	res, err := e.client.Evaluate(e.ctx, EvaluateRequest{
		CheckID: assertion.CheckASGInstanceCount,
		Params: assertion.Params{
			assertion.ParamASG:  e.cluster.ASGName,
			assertion.ParamWant: "2",
		},
		Trigger: assertion.Trigger{Source: assertion.TriggerOnDemand},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("result = %+v", res)
	}
	checks, err := e.client.Checks(e.ctx)
	if err != nil || len(checks) < 15 {
		t.Fatalf("checks = %d, %v", len(checks), err)
	}
}

func TestEvaluateValidation(t *testing.T) {
	e := newRESTEnv(t)
	if _, err := e.client.Evaluate(e.ctx, EvaluateRequest{}); err == nil {
		t.Fatal("empty evaluate accepted")
	}
}

func TestDiagnosisEndpoint(t *testing.T) {
	e := newRESTEnv(t)
	// Break the configuration, then diagnose over the wire.
	rogueAMI, _ := e.cloud.RegisterImage(e.ctx, "rogue", "v9", nil)
	_ = e.cloud.CreateLaunchConfiguration(e.ctx, simaws.LaunchConfig{
		Name: "rogue-lc", ImageID: rogueAMI, KeyName: e.cluster.KeyName,
		SecurityGroups: []string{e.cluster.SGName}, InstanceType: "m1.small",
	})
	_ = e.cloud.UpdateAutoScalingGroup(e.ctx, e.cluster.ASGName, "rogue-lc", -1, -1, -1)

	d, err := e.client.Diagnose(e.ctx, diagnosis.Request{
		AssertionID:       assertion.CheckASGVersionCount,
		Source:            diagnosis.SourceAssertion,
		ProcessInstanceID: "task-1",
		StepID:            process.StepNewReady,
		Params: assertion.Params{
			assertion.ParamASG:          e.cluster.ASGName,
			assertion.ParamELB:          e.cluster.ELBName,
			assertion.ParamAMI:          e.cluster.ImageID,
			assertion.ParamKeyPair:      e.cluster.KeyName,
			assertion.ParamSG:           e.cluster.SGName,
			assertion.ParamInstanceType: "m1.small",
			assertion.ParamVersion:      "v1",
			assertion.ParamWant:         "2",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Conclusion != diagnosis.ConclusionIdentified {
		t.Fatalf("conclusion = %s", d.Conclusion)
	}
	if !d.HasCause("wrong-ami") {
		t.Fatalf("causes = %+v", d.RootCauses)
	}
	if len(d.TestsRun) == 0 {
		t.Error("no tests returned over the wire")
	}
}

func TestModelEndpoint(t *testing.T) {
	e := newRESTEnv(t)
	resp, err := http.Get(e.srv.URL + "/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestNilComponentsReturn503(t *testing.T) {
	srv := httptest.NewServer(NewServer(nil, nil, nil))
	defer srv.Close()
	c := NewClient(srv.URL, nil)
	ctx := context.Background()
	if _, err := c.CheckConformance(ctx, ConformanceRequest{TraceID: "t", Line: "x"}); err == nil || !strings.Contains(err.Error(), "503") {
		t.Errorf("conformance err = %v", err)
	}
	if _, err := c.Evaluate(ctx, EvaluateRequest{CheckID: "x"}); err == nil || !strings.Contains(err.Error(), "503") {
		t.Errorf("evaluate err = %v", err)
	}
	if _, err := c.Diagnose(ctx, diagnosis.Request{}); err == nil || !strings.Contains(err.Error(), "503") {
		t.Errorf("diagnose err = %v", err)
	}
	if c.Healthy(ctx) != true {
		t.Error("healthz should still work")
	}
}

func TestBadJSONRejected(t *testing.T) {
	e := newRESTEnv(t)
	resp, err := http.Post(e.srv.URL+"/conformance/check", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	// Unknown fields are rejected too.
	resp2, err := http.Post(e.srv.URL+"/conformance/check", "application/json",
		strings.NewReader(`{"traceId":"t","line":"x","bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field status = %d", resp2.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	e := newRESTEnv(t)
	_, err := e.client.CheckConformance(e.ctx, ConformanceRequest{
		TraceID: "t", Line: "Starting rolling upgrade of group g to image ami-1",
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.client.Stats(e.ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != 1 || stats.Fit != 1 || stats.Fitness != 1.0 || stats.Completed {
		t.Fatalf("stats = %+v", stats)
	}
	if _, err := e.client.Stats(e.ctx, ""); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestDiagnosisPlanEndpoints(t *testing.T) {
	e := newRESTEnv(t)
	plans, err := e.client.Plans(e.ctx)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]PlanSummary, len(plans))
	for _, p := range plans {
		byID[p.ID] = p
	}
	bg, ok := byID["plan-bluegreen"]
	if !ok {
		t.Fatalf("plan-bluegreen missing from listing: %+v", plans)
	}
	if bg.AssertionID != "asg-version-count" || bg.Causes == 0 {
		t.Fatalf("plan-bluegreen summary = %+v", bg)
	}
	if _, ok := byID["ft-version-count"]; !ok {
		t.Fatal("compiled tree plans missing from listing")
	}

	p, err := e.client.Plan(e.ctx, "plan-bluegreen")
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != "bg-version-violated" || len(p.Nodes) != bg.Nodes {
		t.Fatalf("plan body = entry %q, %d nodes", p.Entry, len(p.Nodes))
	}

	dot, err := e.client.PlanDOT(e.ctx, "plan-bluegreen")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(dot, "digraph") || !strings.Contains(dot, "bg-version-violated") {
		t.Fatalf("dot render = %.80q", dot)
	}

	if _, err := e.client.Plan(e.ctx, "no-such-plan"); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown plan: err = %v, want 404", err)
	}
	resp, err := http.Get(e.srv.URL + "/diagnosis/plans/plan-bluegreen?format=yaml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad format: status %d, want 400", resp.StatusCode)
	}
}

func TestDiagnosisConfigEndpoint(t *testing.T) {
	e := newRESTEnv(t)
	resp, err := http.Get(e.srv.URL + "/diagnosis/config")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var cfg DiagnosisConfig
	if err := json.NewDecoder(resp.Body).Decode(&cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.MaxTests != 64 {
		t.Errorf("maxTests = %d, want the default 64", cfg.MaxTests)
	}
	// FastProfile permits no stale reads, so the shared cache's
	// consistency-window TTL is zero.
	if cfg.SharedCache.TTL != 0 {
		t.Errorf("cache stats ttl = %v, want 0 under FastProfile", cfg.SharedCache.TTL)
	}
	if cfg.SharedCacheTTL != "0s" {
		t.Errorf("ttl = %s, want 0s under FastProfile", cfg.SharedCacheTTL)
	}

	srv := httptest.NewServer(NewServer(nil, nil, nil))
	defer srv.Close()
	resp2, err := http.Get(srv.URL + "/diagnosis/config")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("nil-engine status = %d", resp2.StatusCode)
	}
}
