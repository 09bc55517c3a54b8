package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"poddiagnosis/internal/diagnosis"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/process"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the snapshot golden file")

const snapshotGolden = "testdata/session_snapshot.golden.json"

// goldenSession builds a session whose snapshot exercises every
// per-instance field: a bound instance mid-process with progress and
// total and both timers armed, a bound instance that completed, an
// adopted instance with progress only, a gap, and detections with one
// settled dedup key. Everything runs on a hand-advanced clock in an
// unstarted manager, so the export is the same on every run.
func goldenSession(t *testing.T) (*Manager, *Session) {
	t.Helper()
	clk := newManualClock()
	m := newGapManager(t, clk, func(c *ManagerConfig) {
		c.DisableAssertions = false
		c.AssertionSpec = "every 60s assert asg-instance-count want={min}\n" +
			"after step7 timeout assert asg-version-count want={next}\n" +
			"after step6 timeout assert asg-version-count want={next}\n"
	})
	s, err := m.Watch(Expectation{ASGName: "gold--asg", ClusterSize: 3},
		WithSessionID("gold"), BindInstance("gold-task", "gold-done"), MatchASGInstances())
	if err != nil {
		t.Fatal(err)
	}
	line := func(task, body string) {
		clk.Advance(time.Second)
		m.processor.Process(opEvent(clk.Now(), task, body))
	}
	line("gold-task", "Starting rolling upgrade of group gold--asg to image ami-new")
	line("gold-task", "Created launch configuration gold--asg-lc-ami-new with image ami-new")
	line("gold-task", "Updated group gold--asg to launch configuration gold--asg-lc-ami-new")
	line("gold-task", "Sorted 3 instances for replacement")
	line("gold-task", "Removed and deregistered instance i-0001 from ELB gold-elb")
	line("gold-task", "Terminating old instance i-0001")
	line("gold-task", "Waiting for group gold--asg to start a new instance")
	line("gold-task", "Instance pm on i-9001 is ready for use. 1 of 3 instance relaunches done.")

	line("gold-done", "Starting rolling upgrade of group gold--asg to image ami-new")
	line("gold-done", "Rolling upgrade task completed")

	line("gold--asg-adopted", "Starting rolling upgrade of group gold--asg to image ami-new")
	clk.Advance(time.Second)
	s.OnStepEvent("gold--asg-adopted", &process.Node{ID: "start-task", StepID: "step1"},
		logging.Event{Timestamp: clk.Now(), Fields: map[string]string{"num": "2"}})

	clk.Advance(time.Second)
	m.notifyGap()
	clk.Advance(time.Second)
	for i, key := range []string{"conf|gold-task|unfit|step6", "assert|gold-task|asg-version-count|step6"} {
		if !s.shouldDiagnose(key) {
			t.Fatalf("dedup refused %q", key)
		}
		d := &diagnosis.Diagnosis{Conclusion: diagnosis.ConclusionNone, StartedAt: clk.Now()}
		if i == 0 {
			d.Conclusion = diagnosis.ConclusionIdentified
		}
		s.record(Detection{
			At: clk.Now(), Source: diagnosis.SourceConformance, TriggerID: "unfit", StepID: "step6",
			InstanceID: "gold-task", Message: key, Diagnosis: d, Confidence: 1,
			EvidenceID: s.lastEntryOf("gold-task"),
		}, key)
	}
	return m, s
}

// TestSnapshotGolden pins the wire form of a session snapshot byte for
// byte. Run with -update-golden to rewrite the file after a deliberate
// change of the wire form.
func TestSnapshotGolden(t *testing.T) {
	m, s := goldenSession(t)
	if n := armedTimers(s); n != 3 {
		t.Fatalf("%d timer sets armed, want the periodic and the step timer of gold-task and the periodic timer of the adopted instance", n)
	}
	snap, err := m.ExportSession("gold")
	if err != nil {
		t.Fatal(err)
	}
	snap.TakenAt = time.Date(2013, 11, 19, 12, 0, 0, 0, time.UTC)
	got, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(snapshotGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(snapshotGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(snapshotGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("snapshot differs from %s:\n got: %s\nwant: %s", snapshotGolden, got, want)
	}
}

// armedTimers counts the session's armed timer sets, periodic and step.
func armedTimers(s *Session) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, in := range s.instances {
		if in.perioCancel != nil {
			n++
		}
		if in.stepCancel != nil {
			n++
		}
	}
	return n
}

// TestInstanceListingsSorted: Instances and Summary list a session's
// instances in sorted order on every call, as the snapshot does, so two
// reads of GET /operations agree.
func TestInstanceListingsSorted(t *testing.T) {
	m := newGapManager(t, newManualClock(), nil)
	s, err := m.Watch(Expectation{ASGName: "ls--asg", ClusterSize: 2}, BindInstance("b-task", "a-task"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a-task", "b-task"}
	for i := 0; i < 50; i++ {
		if got := s.Instances(); !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: Instances() = %v, want %v", i, got, want)
		}
		if got := s.Summary().Instances; !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: Summary().Instances = %v, want %v", i, got, want)
		}
	}
}
