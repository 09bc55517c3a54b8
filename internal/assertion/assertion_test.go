package assertion

import (
	"context"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/consistentapi"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/simaws"
	"poddiagnosis/internal/upgrade"
)

// testEnv provisions a cloud with a deployed cluster and an evaluator.
type testEnv struct {
	cloud   *simaws.Cloud
	client  *consistentapi.Client
	eval    *Evaluator
	cluster *upgrade.Cluster
	bus     *logging.Bus
	sink    *logging.MemorySink
	ctx     context.Context
}

func newTestEnv(t *testing.T, size int) *testEnv {
	t.Helper()
	clk := clock.NewScaled(800, time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC))
	bus := logging.NewBus()
	profile := simaws.FastProfile()
	profile.BootTime = clock.Fixed(time.Second)
	profile.TickInterval = 200 * time.Millisecond
	cloud := simaws.New(clk, profile, simaws.WithSeed(5), simaws.WithBus(bus))
	cloud.Start()
	t.Cleanup(func() { cloud.Stop(); bus.Close() })

	sink := logging.NewMemorySink()
	sub := bus.Subscribe(1024, logging.TypeFilter(logging.TypeAssertion))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for e := range sub.C {
			sink.Write(e)
		}
	}()
	t.Cleanup(func() { sub.Cancel(); <-done })

	ctx := context.Background()
	cluster, err := upgrade.Deploy(ctx, cloud, "pm", size, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.WaitReady(ctx, cloud, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	client := consistentapi.New(cloud, consistentapi.Config{
		MaxAttempts:    4,
		InitialBackoff: 100 * time.Millisecond,
		MaxBackoff:     time.Second,
		CallTimeout:    20 * time.Second,
	})
	return &testEnv{
		cloud: cloud, client: client,
		eval:    NewEvaluator(client, DefaultRegistry(), bus),
		cluster: cluster, bus: bus, sink: sink, ctx: ctx,
	}
}

func (e *testEnv) params(extra Params) Params {
	base := Params{
		ParamASG:     e.cluster.ASGName,
		ParamELB:     e.cluster.ELBName,
		ParamAMI:     e.cluster.ImageID,
		ParamKeyPair: e.cluster.KeyName,
		ParamSG:      e.cluster.SGName,
		ParamVersion: e.cluster.Version,
	}
	return base.Merge(extra)
}

func TestInstanceCountPassAndFail(t *testing.T) {
	e := newTestEnv(t, 3)
	res := e.eval.Evaluate(e.ctx, CheckASGInstanceCount, e.params(Params{ParamWant: "3"}), Trigger{Source: TriggerLog})
	if !res.Passed() {
		t.Fatalf("count=3 failed: %s / %s", res.Message, res.Err)
	}
	res = e.eval.Evaluate(e.ctx, CheckASGInstanceCount, e.params(Params{ParamWant: "5"}), Trigger{Source: TriggerLog})
	if !res.Failed() {
		t.Fatalf("count=5 did not fail: %v %s", res.Status, res.Message)
	}
}

func TestVersionCount(t *testing.T) {
	e := newTestEnv(t, 2)
	res := e.eval.Evaluate(e.ctx, CheckASGVersionCount, e.params(Params{ParamWant: "2"}), Trigger{})
	if !res.Passed() {
		t.Fatalf("v1 count failed: %s", res.Message)
	}
	res = e.eval.Evaluate(e.ctx, CheckASGVersionCount,
		e.params(Params{ParamWant: "1", ParamVersion: "v2"}), Trigger{})
	if !res.Failed() {
		t.Fatalf("v2 count passed: %s", res.Message)
	}
}

func TestConfigurationChecks(t *testing.T) {
	e := newTestEnv(t, 1)
	for _, id := range []string{CheckASGUsesAMI, CheckASGUsesKeyPair, CheckASGUsesSG} {
		if res := e.eval.Evaluate(e.ctx, id, e.params(nil), Trigger{}); !res.Passed() {
			t.Errorf("%s: %v %s %s", id, res.Status, res.Message, res.Err)
		}
	}
	res := e.eval.Evaluate(e.ctx, CheckASGUsesType, e.params(Params{ParamInstanceType: "m1.small"}), Trigger{})
	if !res.Passed() {
		t.Errorf("instance type: %s", res.Message)
	}
	// Wrong expectations must fail.
	res = e.eval.Evaluate(e.ctx, CheckASGUsesAMI, e.params(Params{ParamAMI: "ami-wrong"}), Trigger{})
	if !res.Failed() {
		t.Errorf("wrong AMI passed")
	}
	res = e.eval.Evaluate(e.ctx, CheckASGUsesKeyPair, e.params(Params{ParamKeyPair: "other"}), Trigger{})
	if !res.Failed() {
		t.Errorf("wrong key pair passed")
	}
	res = e.eval.Evaluate(e.ctx, CheckASGUsesSG, e.params(Params{ParamSG: "other"}), Trigger{})
	if !res.Failed() {
		t.Errorf("wrong SG passed")
	}
	res = e.eval.Evaluate(e.ctx, CheckASGUsesType, e.params(Params{ParamInstanceType: "m1.large"}), Trigger{})
	if !res.Failed() {
		t.Errorf("wrong type passed")
	}
}

func TestResourceExistenceChecks(t *testing.T) {
	e := newTestEnv(t, 1)
	checks := map[string]Params{
		CheckAMIAvailable:  e.params(nil),
		CheckKeyPairExists: e.params(nil),
		CheckSGExists:      e.params(nil),
		CheckELBReachable:  e.params(nil),
		CheckLCExists:      e.params(Params{ParamLC: e.cluster.LCName}),
	}
	for id, p := range checks {
		if res := e.eval.Evaluate(e.ctx, id, p, Trigger{}); !res.Passed() {
			t.Errorf("%s: %v %s %s", id, res.Status, res.Message, res.Err)
		}
	}
	// Delete resources and watch them fail.
	if err := e.cloud.DeregisterImage(e.ctx, e.cluster.ImageID); err != nil {
		t.Fatal(err)
	}
	if res := e.eval.Evaluate(e.ctx, CheckAMIAvailable, e.params(nil), Trigger{}); !res.Failed() {
		t.Errorf("deregistered AMI passed: %v", res.Status)
	}
	if err := e.cloud.DeleteKeyPair(e.ctx, e.cluster.KeyName); err != nil {
		t.Fatal(err)
	}
	if res := e.eval.Evaluate(e.ctx, CheckKeyPairExists, e.params(nil), Trigger{}); !res.Failed() {
		t.Errorf("deleted key pair passed: %v", res.Status)
	}
}

func TestELBChecks(t *testing.T) {
	e := newTestEnv(t, 2)
	res := e.eval.Evaluate(e.ctx, CheckELBInstanceCount, e.params(Params{ParamWant: "2"}), Trigger{})
	if !res.Passed() {
		t.Fatalf("elb count: %s %s", res.Message, res.Err)
	}
	// A registered instance.
	elb, _, err := e.client.DescribeELB(e.ctx, e.cluster.ELBName, nil)
	if err != nil || len(elb.Instances) == 0 {
		t.Fatalf("describe elb: %v", err)
	}
	res = e.eval.Evaluate(e.ctx, CheckInstanceRegistered,
		e.params(Params{ParamInstance: elb.Instances[0]}), Trigger{})
	if !res.Passed() {
		t.Fatalf("registered check: %s", res.Message)
	}
	res = e.eval.Evaluate(e.ctx, CheckInstanceRegistered,
		e.params(Params{ParamInstance: "i-ghost"}), Trigger{})
	if !res.Failed() {
		t.Fatalf("ghost registered: %v", res.Status)
	}
	// ELB disruption: reachability fails (not error — it is a definitive
	// service-down signal).
	e.cloud.SetELBServiceDisruption(true)
	res = e.eval.Evaluate(e.ctx, CheckELBReachable, e.params(nil), Trigger{})
	if !res.Failed() {
		t.Fatalf("disrupted ELB check = %v (%s)", res.Status, res.Err)
	}
}

func TestInstanceChecks(t *testing.T) {
	e := newTestEnv(t, 1)
	insts, _, err := e.client.DescribeInstances(e.ctx, nil)
	if err != nil || len(insts) == 0 {
		t.Fatal(err)
	}
	id := insts[0].ID
	res := e.eval.Evaluate(e.ctx, CheckInstanceVersion,
		e.params(Params{ParamInstance: id}), Trigger{})
	if !res.Passed() {
		t.Fatalf("version check: %s", res.Message)
	}
	res = e.eval.Evaluate(e.ctx, CheckInstanceHealthy,
		e.params(Params{ParamInstance: id}), Trigger{})
	if !res.Passed() {
		t.Fatalf("healthy check: %s", res.Message)
	}
	res = e.eval.Evaluate(e.ctx, CheckInstanceVersion,
		e.params(Params{ParamInstance: id, ParamVersion: "v9"}), Trigger{})
	if !res.Failed() {
		t.Fatalf("wrong version passed")
	}
}

func TestActivityChecks(t *testing.T) {
	e := newTestEnv(t, 2)
	p := e.params(Params{ParamWindow: "10m"})
	if res := e.eval.Evaluate(e.ctx, CheckNoFailedLaunches, p, Trigger{}); !res.Passed() {
		t.Fatalf("clean group has failed launches: %s", res.Message)
	}
	if res := e.eval.Evaluate(e.ctx, CheckNoScaleIn, p, Trigger{}); !res.Passed() {
		t.Fatalf("clean group has scale-in: %s", res.Message)
	}
	// Trigger a scale-in.
	if err := e.cloud.SetDesiredCapacity(e.ctx, e.cluster.ASGName, 1); err != nil {
		t.Fatal(err)
	}
	if res := e.eval.Evaluate(e.ctx, CheckNoScaleIn, p, Trigger{}); !res.Failed() {
		t.Fatalf("scale-in not detected: %v %s", res.Status, res.Message)
	}
	// Wait for the scale-in to take effect before raising desired again,
	// otherwise the two capacity changes cancel within one tick.
	shrunk := time.Now().Add(5 * time.Second)
	for time.Now().Before(shrunk) {
		asg, _, err := e.client.DescribeASG(e.ctx, e.cluster.ASGName, nil)
		if err == nil && len(asg.Instances) == 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Break the AMI and force a replacement failure for the launch check.
	if err := e.cloud.DeregisterImage(e.ctx, e.cluster.ImageID); err != nil {
		t.Fatal(err)
	}
	if err := e.cloud.SetDesiredCapacity(e.ctx, e.cluster.ASGName, 2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	detected := false
	for time.Now().Before(deadline) {
		if res := e.eval.Evaluate(e.ctx, CheckNoFailedLaunches, p, Trigger{}); res.Failed() {
			detected = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !detected {
		t.Fatal("failed launches never detected")
	}
}

func TestUnknownCheckAndMissingParams(t *testing.T) {
	e := newTestEnv(t, 1)
	res := e.eval.Evaluate(e.ctx, "no-such-check", nil, Trigger{})
	if res.Status != StatusError {
		t.Fatalf("unknown check status = %v", res.Status)
	}
	res = e.eval.Evaluate(e.ctx, CheckASGInstanceCount, Params{}, Trigger{})
	if res.Status != StatusError {
		t.Fatalf("missing params status = %v", res.Status)
	}
	res = e.eval.Evaluate(e.ctx, CheckASGInstanceCount,
		Params{ParamASG: "g", ParamWant: "abc"}, Trigger{})
	if res.Status != StatusError {
		t.Fatalf("bad int status = %v", res.Status)
	}
}

func TestEvaluatorPublishesAndRecords(t *testing.T) {
	e := newTestEnv(t, 1)
	trig := Trigger{Source: TriggerLog, ProcessInstanceID: "pushing pm--asg", StepID: "step4"}
	e.eval.Evaluate(e.ctx, CheckASGInstanceCount, e.params(Params{ParamWant: "1"}), trig)
	if len(e.eval.History()) != 1 {
		t.Fatalf("history = %d", len(e.eval.History()))
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && e.sink.Len() == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	events := e.sink.Events()
	if len(events) == 0 {
		t.Fatal("no assertion event published")
	}
	ev := events[0]
	if ev.Type != logging.TypeAssertion {
		t.Errorf("type = %s", ev.Type)
	}
	if ev.Field("taskid") != "pushing pm--asg" || ev.Field("steppostcon") != "step4" {
		t.Errorf("fields = %v", ev.Fields)
	}
	if !ev.HasTag("step4") {
		t.Errorf("tags = %v", ev.Tags)
	}
}

func TestParamsHelpers(t *testing.T) {
	p := Params{"a": "1"}
	q := p.Merge(Params{"b": "2"})
	if _, ok := p["b"]; ok {
		t.Error("Merge mutated receiver")
	}
	if q["a"] != "1" || q["b"] != "2" {
		t.Errorf("Merge result %v", q)
	}
	if n, err := q.Int("a"); err != nil || n != 1 {
		t.Errorf("Int = %d, %v", n, err)
	}
	if _, err := q.Int("missing"); err == nil {
		t.Error("Int(missing) no error")
	}
	if _, err := q.Str("missing"); err == nil {
		t.Error("Str(missing) no error")
	}
	if s := Status(99).String(); s != "unknown" {
		t.Errorf("Status(99) = %s", s)
	}
	for st, want := range map[Status]string{StatusPass: "pass", StatusFail: "fail", StatusError: "error"} {
		if st.String() != want {
			t.Errorf("%v = %s", st, st.String())
		}
	}
}

func TestTimerSetAfterFiresOnce(t *testing.T) {
	clk := clock.NewScaled(1000, time.Unix(0, 0))
	ts := NewTimerSet(clk)
	defer ts.StopAll()
	var n atomic.Int32
	ts.After(time.Second, func() { n.Add(1) })
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && n.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if n.Load() != 1 {
		t.Fatalf("fired %d times", n.Load())
	}
	if ts.Pending() != 0 {
		t.Fatalf("pending = %d after fire", ts.Pending())
	}
}

func TestTimerSetCancelPreventsFire(t *testing.T) {
	clk := clock.NewScaled(10, time.Unix(0, 0))
	ts := NewTimerSet(clk)
	defer ts.StopAll()
	var n atomic.Int32
	cancel := ts.After(time.Hour, func() { n.Add(1) })
	cancel()
	cancel() // idempotent
	if ts.Pending() != 0 {
		t.Fatalf("pending = %d", ts.Pending())
	}
	if n.Load() != 0 {
		t.Fatal("cancelled timer fired")
	}
}

func TestTimerSetEveryRepeats(t *testing.T) {
	clk := clock.NewScaled(1000, time.Unix(0, 0))
	ts := NewTimerSet(clk)
	var n atomic.Int32
	cancel := ts.Every(500*time.Millisecond, func() { n.Add(1) })
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && n.Load() < 3 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if n.Load() < 3 {
		t.Fatalf("ticked %d times", n.Load())
	}
	ts.StopAll()
}

func TestTimerSetStopAllRejectsNew(t *testing.T) {
	clk := clock.NewScaled(1000, time.Unix(0, 0))
	ts := NewTimerSet(clk)
	ts.StopAll()
	var n atomic.Int32
	ts.After(time.Millisecond, func() { n.Add(1) })
	ts.Every(time.Millisecond, func() { n.Add(1) })
	time.Sleep(10 * time.Millisecond)
	if n.Load() != 0 {
		t.Fatal("timer fired after StopAll")
	}
}

func TestTimerSetStopAllWaitsForRunningCallback(t *testing.T) {
	clk := clock.NewScaled(1000, time.Unix(0, 0))
	ts := NewTimerSet(clk)
	entered, release := make(chan struct{}), make(chan struct{})
	var finished atomic.Bool
	ts.After(time.Millisecond, func() {
		close(entered)
		<-release
		finished.Store(true)
	})
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("timer did not fire")
	}
	stopped := make(chan struct{})
	go func() {
		ts.StopAll()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("StopAll returned while a callback was running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("StopAll did not return after the callback finished")
	}
	if !finished.Load() {
		t.Fatal("StopAll returned before the callback finished")
	}
}

// goroutineSlack bounds the goroutines unrelated to the code under test
// that a goroutine count may catch exiting.
const goroutineSlack = 5

// A one-off timer is a clock timer, not a goroutine.
func TestTimerSetAfterStartsNoGoroutine(t *testing.T) {
	clk := clock.NewScaled(1, time.Unix(0, 0))
	ts := NewTimerSet(clk)
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		ts.After(time.Hour, func() {})
	}
	// Goroutines other tests left exiting may still be counted: allow a
	// few, against the thousand a goroutine per timer would add.
	if after := runtime.NumGoroutine(); after > before+goroutineSlack {
		t.Errorf("1000 pending timers: %d goroutines, was %d", after, before)
	}
	if ts.Pending() != 1000 {
		t.Errorf("pending = %d, want 1000", ts.Pending())
	}
	ts.StopAll()
	if ts.Pending() != 0 {
		t.Errorf("pending = %d after StopAll", ts.Pending())
	}
}

func TestHighLevelFlagOnLibrary(t *testing.T) {
	r := DefaultRegistry()
	for _, id := range []string{CheckASGInstanceCount, CheckASGVersionCount, CheckELBInstanceCount} {
		c, ok := r.Lookup(id)
		if !ok || !c.HighLevel {
			t.Errorf("%s not high-level", id)
		}
	}
	c, _ := r.Lookup(CheckInstanceVersion)
	if c.HighLevel {
		t.Error("instance-version marked high-level")
	}
	if len(r.IDs()) < 15 {
		t.Errorf("library too small: %d checks", len(r.IDs()))
	}
	_ = strconv.Itoa(0) // keep strconv imported via test usage symmetry
}

// The evaluator retains a bounded window of results: a long-lived manager
// must not pin every parameter map it ever evaluated.
func TestEvaluatorHistoryBounded(t *testing.T) {
	clk := clock.NewScaled(1000, time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC))
	client := consistentapi.New(simaws.New(clk, simaws.FastProfile()), consistentapi.Config{})
	reg := NewRegistry()
	n := 0
	reg.Register(Check{ID: "counting", Eval: func(_ context.Context, _ *consistentapi.Client, p Params) Result {
		n++
		return Result{CheckID: "counting", Status: StatusPass, Params: p, Message: strconv.Itoa(n)}
	}})
	eval := NewEvaluator(client, reg, nil)
	const total = 5000
	for i := 0; i < total; i++ {
		eval.Evaluate(context.Background(), "counting", Params{"i": strconv.Itoa(i)}, Trigger{})
	}
	h := eval.History()
	if len(h) != historyCap || historyCap != 1024 {
		t.Fatalf("len(History()) = %d, want 1024", len(h))
	}
	for i, r := range h {
		if want := strconv.Itoa(total - historyCap + 1 + i); r.Message != want {
			t.Fatalf("History()[%d] = %s, want %s (oldest first, newest last)", i, r.Message, want)
		}
	}
	if got := eval.Count(); got != total {
		t.Fatalf("Count() = %d, want %d", got, total)
	}
}
