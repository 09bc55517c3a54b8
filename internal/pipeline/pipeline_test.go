package pipeline

import (
	"fmt"
	"testing"
	"time"

	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/process"
)

func opEvent(taskID, body string) logging.Event {
	ts := time.Date(2013, 10, 24, 11, 41, 48, 312e6, time.UTC)
	return logging.Event{
		Timestamp: ts,
		Source:    "asgard.log",
		Type:      logging.TypeOperation,
		Fields:    map[string]string{"taskid": taskID},
		Message:   logging.FormatOperationLine(ts, taskID, body),
	}
}

func TestProcessAnnotatesActivity(t *testing.T) {
	model := process.RollingUpgradeModel()
	store := logging.NewMemorySink()
	p := New(model, store, Triggers{})
	ev := opEvent("task-1", "Instance pm on i-7df34041 is ready for use. 4 of 4 instance relaunches done.")
	out, forwarded := p.Process(ev)
	if !forwarded {
		t.Fatal("important line not forwarded")
	}
	if !out.HasTag(process.NodeNewReady) || !out.HasTag(process.StepNewReady) {
		t.Errorf("tags = %v", out.Tags)
	}
	if out.Field("stepid") != process.StepNewReady {
		t.Errorf("stepid = %q", out.Field("stepid"))
	}
	if out.Field("instanceid") != "i-7df34041" {
		t.Errorf("instanceid = %q", out.Field("instanceid"))
	}
	if out.Field("num") != "4" || out.Field("total") != "4" {
		t.Errorf("progress fields = %v", out.Fields)
	}
	if out.Field("processinstanceid") != "task-1" {
		t.Errorf("processinstanceid = %q", out.Field("processinstanceid"))
	}
	if store.Len() != 1 {
		t.Errorf("store has %d events", store.Len())
	}
	// Original event untouched.
	if ev.HasTag(process.NodeNewReady) {
		t.Error("Process mutated input event")
	}
}

func TestProcessExtractsAMIAndGroup(t *testing.T) {
	p := New(process.RollingUpgradeModel(), nil, Triggers{})
	out, _ := p.Process(opEvent("t", "Starting rolling upgrade of group pm--asg to image ami-750c9e4f"))
	if out.Field("amiid") != "ami-750c9e4f" {
		t.Errorf("amiid = %q", out.Field("amiid"))
	}
	if out.Field("asgid") != "pm--asg" {
		t.Errorf("asgid = %q", out.Field("asgid"))
	}
}

func TestNoiseFilterDropsIrrelevantLines(t *testing.T) {
	p := New(process.RollingUpgradeModel(), nil, Triggers{})
	ev := logging.Event{Type: logging.TypeOperation, Message: "random chatter from another tool"}
	if _, forwarded := p.Process(ev); forwarded {
		t.Fatal("noise forwarded")
	}
	// Non-operation events are dropped outright.
	if _, forwarded := p.Process(logging.Event{Type: logging.TypeCloud, Message: "Sorted 4 instances for replacement"}); forwarded {
		t.Fatal("cloud event processed as operation log")
	}
	s := p.Snapshot()
	if s.Dropped != 2 || s.Seen != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestUnclassifiedLineWithTaskIDStillTriggersConformance(t *testing.T) {
	var conf []string
	p := New(process.RollingUpgradeModel(), nil, Triggers{
		Conformance: func(id, line string, ev logging.Event) { conf = append(conf, line) },
	})
	_, forwarded := p.Process(opEvent("t", "some novel line the model does not know"))
	if forwarded {
		t.Error("unknown non-error line forwarded as important")
	}
	if len(conf) != 1 {
		t.Fatalf("conformance calls = %d", len(conf))
	}
}

func TestErrorLineTriggersAndForwards(t *testing.T) {
	var errs []string
	p := New(process.RollingUpgradeModel(), logging.NewMemorySink(), Triggers{
		ErrorLine: func(id, line string, ev logging.Event) { errs = append(errs, line) },
	})
	out, forwarded := p.Process(opEvent("t", "ERROR: deregistering instance i-1 from ELB elb: LoadBalancerNotFound"))
	if !forwarded {
		t.Fatal("error line not forwarded")
	}
	if !out.HasTag("error") {
		t.Errorf("tags = %v", out.Tags)
	}
	if len(errs) != 1 {
		t.Fatalf("error callbacks = %d", len(errs))
	}
	if p.Snapshot().Errors != 1 {
		t.Errorf("stats = %+v", p.Snapshot())
	}
}

func TestProcessStartAndEndFireOnce(t *testing.T) {
	var starts, ends []string
	p := New(process.RollingUpgradeModel(), nil, Triggers{
		ProcessStart: func(id string, ev logging.Event) { starts = append(starts, id) },
		ProcessEnd:   func(id string, ev logging.Event) { ends = append(ends, id) },
	})
	p.Process(opEvent("t", "Starting rolling upgrade of group g to image ami-1"))
	p.Process(opEvent("t", "Created launch configuration lc with image ami-1"))
	p.Process(opEvent("t", "Sorted 2 instances for replacement"))
	p.Process(opEvent("t", "Rolling upgrade task completed"))
	if len(starts) != 1 || starts[0] != "t" {
		t.Errorf("starts = %v", starts)
	}
	if len(ends) != 1 {
		t.Errorf("ends = %v", ends)
	}
	// A second instance gets its own start.
	p.Process(opEvent("u", "Starting rolling upgrade of group g to image ami-2"))
	if len(starts) != 2 {
		t.Errorf("starts after second instance = %v", starts)
	}
}

// TestStartedSetForgetsEndedProcesses: the processor remembers an
// instance only while its process runs, so the set a long-lived processor
// holds does not grow with every instance it has ever seen.
func TestStartedSetForgetsEndedProcesses(t *testing.T) {
	starts := 0
	p := New(process.RollingUpgradeModel(), nil, Triggers{
		ProcessStart: func(string, logging.Event) { starts++ },
	})
	const n = 5
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("t%d", i)
		p.Process(opEvent(id, "Starting rolling upgrade of group g to image ami-1"))
		p.Process(opEvent(id, "Sorted 2 instances for replacement"))
		p.Process(opEvent(id, "Rolling upgrade task completed"))
	}
	p.mu.Lock()
	held := len(p.started)
	p.mu.Unlock()
	if held != 0 || starts != n {
		t.Fatalf("after %d complete processes: %d instances held, %d starts", n, held, starts)
	}
}

func TestStepEventCallbackReceivesNode(t *testing.T) {
	var steps []string
	p := New(process.RollingUpgradeModel(), nil, Triggers{
		StepEvent: func(id string, n *process.Node, ev logging.Event) { steps = append(steps, n.StepID) },
	})
	lines := []string{
		"Starting rolling upgrade of group g to image ami-1",
		"Created launch configuration lc with image ami-1",
		"Sorted 1 instances for replacement",
		"Removed and deregistered instance i-1 from ELB elb",
	}
	for _, l := range lines {
		p.Process(opEvent("t", l))
	}
	want := []string{process.StepStartTask, process.StepUpdateLC, process.StepSortInst, process.StepDeregister}
	if len(steps) != len(want) {
		t.Fatalf("steps = %v", steps)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Errorf("step %d = %s, want %s", i, steps[i], want[i])
		}
	}
}

func TestStartStopConsumesSubscription(t *testing.T) {
	bus := logging.NewBus()
	defer bus.Close()
	store := logging.NewMemorySink()
	p := New(process.RollingUpgradeModel(), store, Triggers{})
	sub := bus.Subscribe(256, nil)
	p.Start(sub)
	for i := 0; i < 5; i++ {
		bus.Publish(opEvent("t", fmt.Sprintf("Status: %d of 5 instances replaced", i)))
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && store.Len() < 5 {
		time.Sleep(time.Millisecond)
	}
	p.Stop()
	if store.Len() != 5 {
		t.Fatalf("forwarded %d of 5", store.Len())
	}
}

func TestBodyOf(t *testing.T) {
	ev := opEvent("t", "Sorted 3 instances for replacement")
	if BodyOf(ev) != "Sorted 3 instances for replacement" {
		t.Errorf("BodyOf = %q", BodyOf(ev))
	}
	plain := logging.Event{Message: "  raw line  "}
	if BodyOf(plain) != "raw line" {
		t.Errorf("BodyOf plain = %q", BodyOf(plain))
	}
}
