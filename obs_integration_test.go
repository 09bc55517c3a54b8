package poddiagnosis

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/faultinject"
	"poddiagnosis/internal/obs"
	"poddiagnosis/internal/rest"
	"poddiagnosis/internal/simaws"
	"poddiagnosis/internal/upgrade"
)

// TestObservabilityEndToEnd scripts a faulty rolling upgrade under a
// monitor, then scrapes the REST surface and asserts that /metrics
// reflects the run's activity across every instrumented layer and that
// /traces holds the diagnosis walk with its fault-tree node test spans.
func TestObservabilityEndToEnd(t *testing.T) {
	clk := clock.NewScaled(1200, time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC))
	bus := NewLogBus()
	defer bus.Close()
	profile := FastProfile()
	profile.BootTime = clock.Fixed(30 * time.Second)
	profile.TickInterval = time.Second
	cloud := simaws.New(clk, profile, simaws.WithSeed(7), simaws.WithBus(bus))
	cloud.Start()
	defer cloud.Stop()

	ctx := context.Background()
	cluster, err := Deploy(ctx, cloud, "pm", 2, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.WaitReady(ctx, cloud, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	newAMI, err := cloud.RegisterImage(ctx, "pm-v2", "v2", upgrade.AppServices)
	if err != nil {
		t.Fatal(err)
	}
	spec := cluster.UpgradeSpec("pushing pm--asg", newAMI)
	spec.NewLCName = cluster.ASGName + "-lc-" + newAMI

	mgr, err := NewManager(ManagerConfig{
		Cloud: cloud,
		Bus:   bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := mgr.Watch(Expectation{
		ASGName:      cluster.ASGName,
		ELBName:      cluster.ELBName,
		NewImageID:   newAMI,
		NewVersion:   "v2",
		NewLCName:    spec.NewLCName,
		KeyName:      cluster.KeyName,
		SGName:       cluster.SGName,
		InstanceType: "m1.small",
		ClusterSize:  2,
	}, MatchAnyInstance())
	if err != nil {
		t.Fatal(err)
	}
	mgr.Start()

	// Fault 2 (key pair changed mid-upgrade): a concurrent team flips the
	// launch configuration once the group runs the upgrade's own LC, so
	// the monitor must detect and diagnose a wrong-keypair root cause.
	injector := faultinject.NewInjector(cloud, cluster, 7)
	defer injector.Heal()
	injectDone := make(chan struct{})
	go func() {
		defer close(injectDone)
		_ = injector.Inject(ctx, faultinject.KindKeyPairChanged, 0, spec.NewLCName, newAMI)
	}()

	rep := NewUpgrader(cloud, bus).Run(ctx, spec)
	<-injectDone
	mgr.Drain(ctx, 2*time.Minute)
	mgr.Stop()
	_ = rep // the upgrade may fail or limp home mixed-version; either is fine

	detections := sess.Detections()
	if len(detections) == 0 {
		t.Fatal("faulty upgrade produced no detections")
	}
	diagnosed := false
	for _, d := range detections {
		if d.Diagnosis != nil && len(d.Diagnosis.TestsRun) > 0 {
			diagnosed = true
		}
	}
	if !diagnosed {
		t.Fatal("no detection carried a diagnosis with tests run")
	}

	// Serve the observability surface the way podserve does and scrape it.
	srv := httptest.NewServer(rest.NewServer(sess.Checker(), mgr.Evaluator(), mgr.Diagnoser(),
		rest.WithManager(mgr)))
	defer srv.Close()

	// /readyz first: it both checks the drained manager and puts one
	// request through the HTTP middleware before /metrics renders.
	rResp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready rest.ReadyStatus
	err = json.NewDecoder(rResp.Body).Decode(&ready)
	rResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !ready.Ready {
		t.Errorf("readyz = %+v", ready)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	metrics := string(raw)
	for _, family := range []string{
		// One family per instrumented layer, per the acceptance criteria.
		"pod_simaws_api_calls_total{",
		"pod_simaws_api_errors_total",
		"pod_conformance_check_seconds_bucket{",
		"pod_assertion_evaluations_total{",
		"pod_diagnosis_walk_seconds_bucket{",
		"pod_logbus_dropped_total",
		"pod_logbus_published_total",
		"pod_engine_detections_total{",
		"pod_pipeline_events_total{",
		"pod_http_request_seconds_bucket{",
	} {
		if !strings.Contains(metrics, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}
	// The scripted run must actually move the needles, not just declare
	// the families: failed assertions and at least one diagnosis walk.
	if !strings.Contains(metrics, `status="fail"`) {
		t.Error("no failed assertion evaluation recorded for the faulty run")
	}
	if !strings.Contains(metrics, "pod_diagnosis_tests_total") {
		t.Error("no diagnosis test counter")
	}

	// /traces: a completed diagnosis walk with fault-tree node children.
	tResp, err := http.Get(srv.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer tResp.Body.Close()
	var traces struct {
		Spans []obs.SpanData `json:"spans"`
	}
	if err := json.NewDecoder(tResp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	walks := map[uint64]obs.SpanData{}
	for _, s := range traces.Spans {
		if s.Name == "diagnosis.walk" {
			walks[s.SpanID] = s
		}
	}
	if len(walks) == 0 {
		t.Fatal("/traces has no diagnosis.walk span")
	}
	childTests := 0
	for _, s := range traces.Spans {
		if s.Name == "diagnosis.test" {
			if parent, ok := walks[s.ParentID]; ok {
				childTests++
				if s.TraceID != parent.TraceID {
					t.Errorf("test span %d has trace %d, parent walk has %d",
						s.SpanID, s.TraceID, parent.TraceID)
				}
				if s.Attrs["node"] == "" {
					t.Errorf("test span %d missing fault-tree node attr", s.SpanID)
				}
			}
		}
	}
	if childTests == 0 {
		t.Error("no diagnosis.test span is linked under a diagnosis.walk span")
	}
}
