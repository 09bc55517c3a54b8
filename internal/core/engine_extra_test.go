package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"poddiagnosis/internal/clock"

	"poddiagnosis/internal/diagnosis"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/process"
	"poddiagnosis/internal/simaws"
)

// opEvent fabricates an annotated operation event as the upgrader would
// emit it.
func opEvent(clkNow time.Time, taskID, body string) logging.Event {
	return logging.Event{
		Timestamp: clkNow,
		Source:    "asgard.log",
		Type:      logging.TypeOperation,
		Fields:    map[string]string{"taskid": taskID},
		Message:   logging.FormatOperationLine(clkNow, taskID, body),
	}
}

func TestProgressTrackingFromReadyLines(t *testing.T) {
	r := newRig(t, 2, nil)
	r.mgr.Start()
	defer r.mgr.Stop()
	now := r.cloud.Clock().Now()
	r.bus.Publish(opEvent(now, "task-p", "Starting rolling upgrade of group pm--asg to image ami-x"))
	r.bus.Publish(opEvent(now, "task-p", "Sorted 5 instances for replacement"))
	r.bus.Publish(opEvent(now, "task-p", "Instance pm on i-1 is ready for use. 3 of 5 instance relaunches done."))
	sess := r.sess
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if sess.progressOf("task-p") == 3 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := sess.progressOf("task-p"); got != 3 {
		t.Fatalf("progress = %d, want 3", got)
	}
	sess.mu.Lock()
	total := sess.instance("task-p").total
	sess.mu.Unlock()
	if total != 5 {
		t.Fatalf("total = %d, want 5", total)
	}
}

func TestProcessEndCancelsTimers(t *testing.T) {
	r := newRig(t, 2, nil)
	r.mgr.Start()
	defer r.mgr.Stop()
	now := r.cloud.Clock().Now()
	r.bus.Publish(opEvent(now, "task-t", "Starting rolling upgrade of group pm--asg to image ami-x"))
	r.bus.Publish(opEvent(now, "task-t", "Waiting for group pm--asg to start a new instance"))
	// Wait for the periodic + step timers to be registered.
	sess := r.sess
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		n := armedTimers(sess)
		if n >= 2 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	r.bus.Publish(opEvent(now, "task-t", "Rolling upgrade task completed"))
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		n := armedTimers(sess)
		if n == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("timers not cancelled at process end")
}

func TestDetectionCapBoundsRecording(t *testing.T) {
	r := newRig(t, 2, nil, WithMaxDetections(2))
	r.mgr.Start()
	defer r.mgr.Stop()
	// Flood with distinct conformance errors (distinct steps via fit
	// progress is hard; use error lines with distinct dedup keys by
	// changing step context through valid progress).
	now := r.cloud.Clock().Now()
	for i := 0; i < 10; i++ {
		r.bus.Publish(opEvent(now, "task-c", "ERROR: boom number "+string(rune('a'+i))))
	}
	r.mgr.Drain(context.Background(), 2*time.Minute)
	if got := len(r.sess.Detections()); got > 2 {
		t.Fatalf("detections = %d, cap 2", got)
	}
}

func TestReDiagnosisAfterInconclusive(t *testing.T) {
	r := newRig(t, 2, nil)
	sess := r.sess
	// First diagnosis for a key concludes nothing: the key may retry.
	key := "assert|t|x|step1"
	if !sess.shouldDiagnose(key) {
		t.Fatal("first attempt blocked")
	}
	sess.record(Detection{InstanceID: "t", TriggerID: "x", StepID: "step1",
		Diagnosis: &diagnosis.Diagnosis{Conclusion: diagnosis.ConclusionNone}}, key)
	if !sess.shouldDiagnose(key) {
		t.Fatal("retry after inconclusive blocked")
	}
	// Once identified, the key is settled.
	sess.record(Detection{InstanceID: "t", TriggerID: "x", StepID: "step1",
		Diagnosis: &diagnosis.Diagnosis{Conclusion: diagnosis.ConclusionIdentified}}, key)
	if sess.shouldDiagnose(key) {
		t.Fatal("retry after identification allowed")
	}
	// Only the originating key settles: a conformance key sharing the
	// same parts is unaffected (the old code blindly settled both).
	if !sess.shouldDiagnose("conf|t|x|step1") {
		t.Fatal("conformance key settled by assertion identification")
	}
	// Unrelated keys unaffected.
	if !sess.shouldDiagnose("assert|t|y|step1") {
		t.Fatal("unrelated key blocked")
	}
}

func TestConformanceEventsPublished(t *testing.T) {
	r := newRig(t, 2, nil)
	sink := logging.NewMemorySink()
	sub := r.bus.Subscribe(1024, logging.TypeFilter(logging.TypeConformance))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for e := range sub.C {
			sink.Write(e)
		}
	}()
	r.mgr.Start()
	now := r.cloud.Clock().Now()
	r.bus.Publish(opEvent(now, "task-v", "Starting rolling upgrade of group pm--asg to image ami-x"))
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && sink.Len() == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	r.mgr.Stop()
	sub.Cancel()
	<-done
	events := sink.Events()
	if len(events) == 0 {
		t.Fatal("no conformance events published")
	}
	ev := events[0]
	if !ev.HasTag("conformance:fit") {
		t.Errorf("tags = %v", ev.Tags)
	}
	if ev.Field("verdict") != "fit" || ev.Field("taskid") != "task-v" {
		t.Errorf("fields = %v", ev.Fields)
	}
}

func TestStepBindingsShape(t *testing.T) {
	r := newRig(t, 4, nil)
	model := process.RollingUpgradeModel()
	ev := logging.Event{Fields: map[string]string{"instanceid": "i-123"}}
	cases := []struct {
		node  string
		wantN int
	}{
		{process.NodeStartTask, 0},
		{process.NodeUpdateLC, 1},
		{process.NodeSortInst, 0},
		{process.NodeDeregister, 1},
		{process.NodeTerminateOld, 0},
		{process.NodeWaitASG, 0},
		{process.NodeNewReady, 6}, // version count + instance version + 4 config
		{process.NodeCompleted, 6},
	}
	for _, tc := range cases {
		n := model.Node(tc.node)
		got := r.sess.stepBindings(n, instance{}, ev)
		if len(got) != tc.wantN {
			t.Errorf("%s bindings = %d, want %d", tc.node, len(got), tc.wantN)
		}
	}
	// Without an instance id, the low-level double check is skipped.
	bare := r.sess.stepBindings(model.Node(process.NodeNewReady), instance{}, logging.Event{})
	if len(bare) != 5 {
		t.Errorf("bare step7 bindings = %d, want 5", len(bare))
	}
}

func TestEngineStopIsCleanWithPendingWork(t *testing.T) {
	r := newRig(t, 2, nil)
	r.mgr.Start()
	now := r.cloud.Clock().Now()
	// Queue work, then stop immediately: must not deadlock or panic.
	for i := 0; i < 20; i++ {
		r.bus.Publish(opEvent(now, "task-s", "Starting rolling upgrade of group pm--asg to image ami-x"))
	}
	r.mgr.Stop()
}

func TestExpectationMinInServiceExplicit(t *testing.T) {
	bus := logging.NewBus()
	defer bus.Close()
	cloud := simaws.New(clock.NewScaled(100, time.Unix(0, 0)), simaws.FastProfile())
	mgr, err := NewManager(ManagerConfig{Cloud: cloud, Bus: bus})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := mgr.Watch(Expectation{ASGName: "g", ClusterSize: 10, MinInService: 7}, MatchAnyInstance())
	if err != nil {
		t.Fatal(err)
	}
	if sess.Expect().MinInService != 7 {
		t.Fatalf("MinInService overridden: %d", sess.Expect().MinInService)
	}
}

func TestCustomAssertionSpec(t *testing.T) {
	// A spec with only the completion capacity check: step7 evaluations
	// disappear, step8 keeps exactly one binding.
	custom := "on step8 assert asg-instance-count want={n}\n"
	r := newRig(t, 2, func(c *ManagerConfig) { c.AssertionSpec = custom })
	model := process.RollingUpgradeModel()
	if got := r.sess.stepBindings(model.Node(process.NodeNewReady), instance{}, logging.Event{}); len(got) != 0 {
		t.Errorf("step7 bindings = %d, want 0", len(got))
	}
	got := r.sess.stepBindings(model.Node(process.NodeCompleted), instance{}, logging.Event{})
	if len(got) != 1 || got[0].checkID != "asg-instance-count" {
		t.Fatalf("step8 bindings = %+v", got)
	}
	if got[0].params["want"] != "2" {
		t.Errorf("want = %q", got[0].params["want"])
	}
}

func TestInvalidAssertionSpecRejected(t *testing.T) {
	bus := logging.NewBus()
	defer bus.Close()
	cloud := simaws.New(clock.NewScaled(100, time.Unix(0, 0)), simaws.FastProfile())
	_, err := NewManager(ManagerConfig{
		Cloud: cloud, Bus: bus,
		AssertionSpec: "on step1 assert no-such-check",
	})
	if err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// TestStragglerAfterProcessEndArmsNothing: once an instance's process has
// ended, a line that arrives after its final one re-arms neither the
// periodic capacity timer nor a step timer.
func TestStragglerAfterProcessEndArmsNothing(t *testing.T) {
	m := newGapManager(t, newManualClock(), func(c *ManagerConfig) {
		c.DisableAssertions = false
		c.AssertionSpec = "every 60s assert asg-instance-count want={min}\n" +
			"after step5 timeout assert asg-version-count want={next}\n" +
			"after step6 timeout assert asg-version-count want={next}\n"
	})
	sess, err := m.Watch(Expectation{ASGName: "pm--asg", ClusterSize: 2}, MatchAnyInstance())
	if err != nil {
		t.Fatal(err)
	}
	armed := func() int { return armedTimers(sess) }
	now := m.clk.Now()
	const waiting = "Waiting for group pm--asg to start a new instance"
	for i := 0; i < 3; i++ {
		task := fmt.Sprintf("task-%d", i)
		m.processor.Process(opEvent(now, task, "Starting rolling upgrade of group pm--asg to image ami-x"))
		m.processor.Process(opEvent(now, task, waiting))
		if armed() < 2 {
			t.Fatalf("%s: %d timers armed mid-process, want the periodic and the step timer", task, armed())
		}
		m.processor.Process(opEvent(now, task, "Rolling upgrade task completed"))
		if n := armed(); n != 0 {
			t.Fatalf("%s: %d timers still armed after the final line", task, n)
		}
	}
	m.processor.Process(opEvent(now, "task-1", waiting))
	if n := armed(); n != 0 {
		t.Errorf("a straggler line after the final one armed %d timers", n)
	}
}
