package core

import (
	"context"
	"encoding/json"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/consistentapi"
	"poddiagnosis/internal/diagnosis"
	"poddiagnosis/internal/diagplan"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/obs/flight"
	"poddiagnosis/internal/process"
	"poddiagnosis/internal/simaws"
	"poddiagnosis/internal/upgrade"
)

// Race-detector coverage for many concurrent Diagnose calls through one
// Manager's engine, the shared cross-run cache deduplicating identical tests.
// The cloud profile permits stale reads, so the cache TTL (the
// consistency window) is non-zero and cross-run reuse actually happens.
func TestConcurrentDiagnosesShareTestCache(t *testing.T) {
	clk := clock.NewScaled(1200, time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC))
	bus := logging.NewBus()
	profile := simaws.FastProfile()
	profile.TickInterval = time.Second
	profile.StaleProb = 0.05
	profile.StaleLag = clock.Fixed(5 * time.Second)
	cloud := simaws.New(clk, profile, simaws.WithSeed(44), simaws.WithBus(bus))
	cloud.Start()
	mgr, err := NewManager(ManagerConfig{
		Cloud: cloud,
		Bus:   bus,
		API: consistentapi.Config{
			MaxAttempts:    3,
			InitialBackoff: 500 * time.Millisecond,
			MaxBackoff:     4 * time.Second,
			CallTimeout:    30 * time.Second,
		},
		Workers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr.Start()
	t.Cleanup(func() { mgr.Stop(); cloud.Stop(); bus.Close() })

	ctx := context.Background()
	cluster, err := upgrade.Deploy(ctx, cloud, "cc", 2, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.WaitReady(ctx, cloud, 5*time.Minute); err != nil {
		t.Fatal(err)
	}

	eng := mgr.Diagnoser()
	cache := eng.Cache()
	if cache.TTL() <= 0 {
		t.Fatalf("cache TTL = %v, want > 0 under a stale-read profile", cache.TTL())
	}

	req := diagnosis.Request{
		AssertionID:       assertion.CheckASGVersionCount,
		Source:            diagnosis.SourceAssertion,
		ProcessInstanceID: "pushing " + cluster.ASGName,
		StepID:            process.StepNewReady,
		Params:            clusterParams(cluster),
	}

	const n = 8
	var wg sync.WaitGroup
	results := make([]*diagnosis.Diagnosis, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = eng.Diagnose(ctx, req)
		}(i)
	}
	wg.Wait()

	for i, d := range results {
		if d == nil {
			t.Fatalf("diagnosis %d missing", i)
		}
		// Healthy cluster: every run must agree nothing is wrong.
		if d.Conclusion == diagnosis.ConclusionIdentified {
			t.Errorf("diagnosis %d fabricated a cause: %+v", i, d.RootCauses)
		}
	}
	st := cache.Stats()
	if st.Hits+st.Coalesced == 0 {
		t.Errorf("identical concurrent runs shared nothing: stats %+v", st)
	}
	if st.Evaluations == 0 {
		t.Errorf("no evaluations flowed through the shared cache: stats %+v", st)
	}
}

// clusterParams are the diagnosis parameters of a healthy 2-instance
// cluster.
func clusterParams(cluster *upgrade.Cluster) assertion.Params {
	return assertion.Params{
		assertion.ParamASG:          cluster.ASGName,
		assertion.ParamELB:          cluster.ELBName,
		assertion.ParamAMI:          cluster.ImageID,
		assertion.ParamKeyPair:      cluster.KeyName,
		assertion.ParamSG:           cluster.SGName,
		assertion.ParamInstanceType: "m1.small",
		assertion.ParamVersion:      cluster.Version,
		assertion.ParamWant:         "2",
		assertion.ParamLC:           cluster.LCName,
	}
}

// goroutineID parses the running goroutine's id from its stack header.
func goroutineID() string {
	var buf [64]byte
	header := strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine ")
	return header[:strings.IndexByte(header, ' ')]
}

// A conformance-triggered diagnosis (no assertion id, so every plan of the
// catalog is walked) on an engine configured as NewManager configures it
// is the paper's walk: every diagnosis test runs on the goroutine that
// called Diagnose, in the order the zero-Options engine visits the plans,
// and repeating the walk reproduces the Diagnosis document, its tests
// included, and the flight timeline exactly. Each repeat builds a fresh
// manager (fresh breakers and shared cache) over one frozen cloud;
// simulated timestamps are zeroed, since the scaled clock follows the wall.
func TestConformanceWalkIsSequentialAndReproducible(t *testing.T) {
	clk := clock.NewScaled(1000, time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC))
	profile := simaws.FastProfile()
	profile.TickInterval = time.Second
	cloud := simaws.New(clk, profile, simaws.WithSeed(44))
	cloud.Start()
	ctx := context.Background()
	cluster, err := upgrade.Deploy(ctx, cloud, "cw", 2, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.WaitReady(ctx, cloud, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	// Freeze the account: every repeat reads the same state.
	cloud.Stop()

	// Every check reports the goroutine it ran on.
	type call struct{ goroutine, check string }
	var calls []call
	reg := assertion.NewRegistry()
	base := assertion.DefaultRegistry()
	for _, id := range base.IDs() {
		c, _ := base.Lookup(id)
		eval := c.Eval
		c.Eval = func(ctx context.Context, client *consistentapi.Client, p assertion.Params) assertion.Result {
			calls = append(calls, call{goroutineID(), id})
			return eval(ctx, client, p)
		}
		reg.Register(c)
	}
	req := diagnosis.Request{
		Source:            diagnosis.SourceConformance,
		ProcessInstanceID: "pushing " + cluster.ASGName,
		StepID:            process.StepNewReady,
		Detail:            "conformance unfit on line \"x\"",
		Params:            clusterParams(cluster),
	}
	// walk diagnoses req once on eng and renders the Diagnosis document
	// and the timeline messages of a fresh evidence ring.
	walk := func(eng *diagnosis.Engine) (doc, timeline string, tests []string) {
		ring := flight.NewRecorder(clk, 0)
		op := ring.Op("op")
		anchor := op.Record(flight.Entry{Kind: flight.KindLogEvent, Message: "trigger"})
		d := eng.Diagnose(flight.WithParent(flight.NewContext(ctx, op), anchor), req)
		d.StartedAt, d.Duration = time.Time{}, 0
		for i := range d.TestsRun {
			d.TestsRun[i].EvaluatedAt, d.TestsRun[i].Duration = time.Time{}, 0
			tests = append(tests, d.TestsRun[i].CheckID)
		}
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		var msgs []string
		for _, e := range ring.Timeline("op").Entries {
			msgs = append(msgs, e.Message)
		}
		return string(b), strings.Join(msgs, "\n"), tests
	}

	client := consistentapi.New(cloud, consistentapi.Config{MaxAttempts: 1})
	paper := diagnosis.NewEngine(diagplan.DefaultCatalog(), assertion.NewEvaluator(client, reg, nil), nil, diagnosis.Options{})
	calls = nil
	_, _, planOrder := walk(paper)
	if len(planOrder) < 2 {
		t.Fatalf("conformance walk ran %d tests, want several", len(planOrder))
	}

	caller := goroutineID()
	var firstDoc, firstTimeline string
	for i := 0; i < 20; i++ {
		bus := logging.NewBus()
		mgr, err := NewManager(ManagerConfig{Cloud: cloud, Bus: bus, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		calls = nil
		doc, timeline, tests := walk(mgr.Diagnoser())
		bus.Close()
		for _, c := range calls {
			if c.goroutine != caller {
				t.Fatalf("repeat %d: test %s ran on goroutine %s, Diagnose was called on %s", i, c.check, c.goroutine, caller)
			}
		}
		if !slices.Equal(tests, planOrder) {
			t.Fatalf("repeat %d: tests %v, want plan order %v", i, tests, planOrder)
		}
		if i == 0 {
			firstDoc, firstTimeline = doc, timeline
			continue
		}
		if doc != firstDoc {
			t.Fatalf("repeat %d: diagnosis differs\n got %s\nwant %s", i, doc, firstDoc)
		}
		if timeline != firstTimeline {
			t.Fatalf("repeat %d: timeline differs\n got %s\nwant %s", i, timeline, firstTimeline)
		}
	}
}

// timerCountingClock is a scaled clock that counts the timers armed on it.
// It wraps the clock rather than embedding it, so every timer goes through
// AfterFunc and is counted.
type timerCountingClock struct {
	inner *clock.Scaled
	armed atomic.Int64
}

func (c *timerCountingClock) Now() time.Time { return c.inner.Now() }

func (c *timerCountingClock) Sleep(ctx context.Context, d time.Duration) error {
	return c.inner.Sleep(ctx, d)
}

func (c *timerCountingClock) AfterFunc(d time.Duration, f func()) func() bool {
	c.armed.Add(1)
	return c.inner.AfterFunc(d, f)
}

func (c *timerCountingClock) Since(t time.Time) time.Duration { return c.inner.Since(t) }

// A diagnose_storm unit arms no clock timer: the step assertion and the
// three diagnosis tests it triggers run under their caller's context, and
// each cloud read is bounded by the consistent API's CallTimeout, a
// deadline read off the clock. The unit is the session's own path: a
// failing asg-version-count at step7 on a group whose launch configuration
// carries the wrong AMI, diagnosed as wrong-ami after three tests.
func TestEvaluationsArmNoClockTimer(t *testing.T) {
	clk := &timerCountingClock{inner: clock.NewScaled(1000, time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC))}
	bus := logging.NewBus()
	defer bus.Close()
	profile := simaws.FastProfile()
	// clock.NewTicker scales only a *clock.Scaled: on the wrapper the
	// period is wall time, and 1ms of it is 1s of simulated time.
	profile.TickInterval = time.Millisecond
	cloud := simaws.New(clk, profile, simaws.WithSeed(1), simaws.WithBus(bus))
	cloud.Start()
	ctx := context.Background()
	cluster, err := upgrade.Deploy(ctx, cloud, "pm", 2, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.WaitReady(ctx, cloud, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	intended, err := cloud.RegisterImage(ctx, "pm-v2", "v2", upgrade.AppServices)
	if err != nil {
		t.Fatal(err)
	}
	rogue, err := cloud.RegisterImage(ctx, "rogue", "v9", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cloud.CreateLaunchConfiguration(ctx, simaws.LaunchConfig{
		Name: "rogue-lc", ImageID: rogue, KeyName: cluster.KeyName,
		SecurityGroups: []string{cluster.SGName}, InstanceType: "m1.small",
	}); err != nil {
		t.Fatal(err)
	}
	if err := cloud.UpdateAutoScalingGroup(ctx, cluster.ASGName, "rogue-lc", -1, -1, -1); err != nil {
		t.Fatal(err)
	}
	// The reconciler's timers are not the unit's: count with it stopped.
	cloud.Stop()

	mgr, err := NewManager(ManagerConfig{
		Cloud: cloud, Bus: bus, API: consistentapi.Config{MaxAttempts: 1}, DisableConformance: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := mgr.Watch(Expectation{ASGName: cluster.ASGName, ClusterSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	params := clusterParams(cluster)
	params[assertion.ParamAMI] = intended
	params[assertion.ParamVersion] = "v2"
	params[assertion.ParamWant] = "1"
	trig := assertion.Trigger{
		Source: assertion.TriggerLog, ProcessInstanceID: "pushing " + cluster.ASGName, StepID: process.StepNewReady,
	}

	armed := clk.armed.Load()
	sess.evaluateAndMaybeDiagnose(assertion.CheckASGVersionCount, params, trig, 0, clk.Now())
	armed = clk.armed.Load() - armed

	dets := sess.Detections()
	if len(dets) != 1 || dets[0].Diagnosis == nil {
		t.Fatalf("detections = %+v, want one diagnosed detection", dets)
	}
	d := dets[0].Diagnosis
	if !d.HasCause("wrong-ami") || len(d.TestsRun) != 3 {
		t.Fatalf("diagnosis %s after %d tests, want wrong-ami confirmed after 3", d.Conclusion, len(d.TestsRun))
	}
	if armed != 0 {
		t.Errorf("the step assertion and its 3 diagnosis tests armed %d clock timers, want 0", armed)
	}
}
