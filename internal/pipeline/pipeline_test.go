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

// recorder is a Handler that records what the processor triggers.
type recorder struct {
	conf, errs, steps, starts, ends []string
}

func (r *recorder) OnConformance(_, line string, _ logging.Event) { r.conf = append(r.conf, line) }
func (r *recorder) OnStepEvent(_ string, n *process.Node, _ logging.Event) {
	r.steps = append(r.steps, n.StepID)
}
func (r *recorder) OnErrorLine(_, line string, _ logging.Event) { r.errs = append(r.errs, line) }
func (r *recorder) OnProcessStart(id string, _ logging.Event)   { r.starts = append(r.starts, id) }
func (r *recorder) OnProcessEnd(id string, _ logging.Event)     { r.ends = append(r.ends, id) }

// newRecorded returns a processor that routes every instance to one
// recorder.
func newRecorded(store logging.Sink) (*Processor, *recorder) {
	r := &recorder{}
	return NewRouted(process.RollingUpgradeModel(), store, func(string, logging.Event) Handler { return r }), r
}

func TestProcessAnnotatesActivity(t *testing.T) {
	model := process.RollingUpgradeModel()
	store := logging.NewMemorySink()
	p := NewRouted(model, store, nil)
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
	p := NewRouted(process.RollingUpgradeModel(), nil, nil)
	out, _ := p.Process(opEvent("t", "Starting rolling upgrade of group pm--asg to image ami-750c9e4f"))
	if out.Field("amiid") != "ami-750c9e4f" {
		t.Errorf("amiid = %q", out.Field("amiid"))
	}
	if out.Field("asgid") != "pm--asg" {
		t.Errorf("asgid = %q", out.Field("asgid"))
	}
}

func TestNoiseFilterDropsIrrelevantLines(t *testing.T) {
	p := NewRouted(process.RollingUpgradeModel(), nil, nil)
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
	p, r := newRecorded(nil)
	_, forwarded := p.Process(opEvent("t", "some novel line the model does not know"))
	if forwarded {
		t.Error("unknown non-error line forwarded as important")
	}
	if len(r.conf) != 1 {
		t.Fatalf("conformance calls = %d", len(r.conf))
	}
}

func TestErrorLineTriggersAndForwards(t *testing.T) {
	p, r := newRecorded(logging.NewMemorySink())
	out, forwarded := p.Process(opEvent("t", "ERROR: deregistering instance i-1 from ELB elb: LoadBalancerNotFound"))
	if !forwarded {
		t.Fatal("error line not forwarded")
	}
	if !out.HasTag("error") {
		t.Errorf("tags = %v", out.Tags)
	}
	if len(r.errs) != 1 {
		t.Fatalf("error callbacks = %d", len(r.errs))
	}
	if p.Snapshot().Errors != 1 {
		t.Errorf("stats = %+v", p.Snapshot())
	}
}

func TestProcessStartAndEndFireOnce(t *testing.T) {
	p, r := newRecorded(nil)
	p.Process(opEvent("t", "Starting rolling upgrade of group g to image ami-1"))
	p.Process(opEvent("t", "Created launch configuration lc with image ami-1"))
	p.Process(opEvent("t", "Sorted 2 instances for replacement"))
	p.Process(opEvent("t", "Rolling upgrade task completed"))
	if len(r.starts) != 1 || r.starts[0] != "t" {
		t.Errorf("starts = %v", r.starts)
	}
	if len(r.ends) != 1 {
		t.Errorf("ends = %v", r.ends)
	}
	// A second instance gets its own start.
	p.Process(opEvent("u", "Starting rolling upgrade of group g to image ami-2"))
	if len(r.starts) != 2 {
		t.Errorf("starts after second instance = %v", r.starts)
	}
}

// TestStartedSetForgetsEndedProcesses: the processor remembers an
// instance only while its process runs, so the set a long-lived processor
// holds does not grow with every instance it has ever seen.
func TestStartedSetForgetsEndedProcesses(t *testing.T) {
	p, r := newRecorded(nil)
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
	if held != 0 || len(r.starts) != n {
		t.Fatalf("after %d complete processes: %d instances held, %d starts", n, held, len(r.starts))
	}
}

func TestStepEventCallbackReceivesNode(t *testing.T) {
	p, r := newRecorded(nil)
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
	if len(r.steps) != len(want) {
		t.Fatalf("steps = %v", r.steps)
	}
	for i := range want {
		if r.steps[i] != want[i] {
			t.Errorf("step %d = %s, want %s", i, r.steps[i], want[i])
		}
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
