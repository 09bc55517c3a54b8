package logstore

import (
	"bytes"
	"flag"
	"os"
	"testing"
	"time"

	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/pipeline"
	"poddiagnosis/internal/process"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the ingest golden file")

// ingestGolden is the Save output of goldenTrace processed by the local log
// processor. It was written by the processor that copied every annotated
// line's Fields map, so it pins the wire shape across the change to
// inline annotations.
const ingestGolden = "testdata/ingest.golden.jsonl"

// goldenTrace is one clean two-instance rolling upgrade, plus the lines
// that exercise the rest of the annotator: a known-error line, an
// unclassified line of the instance, a line the reorder buffer held, one
// whose published map already holds annotator keys, and one of another
// operation's task.
func goldenTrace() []logging.Event {
	t0 := time.Date(2013, 10, 24, 11, 41, 48, 312e6, time.UTC)
	bodies := []string{
		"Starting rolling upgrade of group pm--asg to image ami-750c9e4f",
		"Created launch configuration pm--asg-lc-ami-750c9e4f with image ami-750c9e4f",
		"Updated group pm--asg to launch configuration pm--asg-lc-ami-750c9e4f",
		"Sorted 2 instances for replacement",
		"Removed and deregistered instance i-7df34041 from ELB pm-elb",
		"Terminating old instance i-7df34041",
		"Waiting for group pm--asg to start a new instance",
		"Instance pm on i-0a1b2c3d is ready for use. 1 of 2 instance relaunches done.",
		"ERROR: deregistering instance i-5e6f7a8b from ELB pm-elb: LoadBalancerNotFound",
		"Some chatter the model does not know about i-5e6f7a8b",
		"Removed and deregistered instance i-5e6f7a8b from ELB pm-elb",
		"Terminating old instance i-5e6f7a8b",
		"Waiting for group pm--asg to start a new instance",
		"Instance pm on i-9c8d7e6f is ready for use. 2 of 2 instance relaunches done.",
		"Rolling upgrade task completed",
	}
	var out []logging.Event
	for i, body := range bodies {
		ts := t0.Add(time.Duration(i) * time.Second)
		out = append(out, logging.Event{
			Timestamp: ts, Source: "asgard.log", SourceHost: "asgard", Type: logging.TypeOperation,
			Fields:  map[string]string{"taskid": "pm-task"},
			Message: logging.FormatOperationLine(ts, "Pushing ami-750c9e4f into group pm--asg", body),
			Seq:     uint64(i + 1), CauseID: uint64(i + 1),
		})
	}
	out[11].SetField("reorder", "held")
	out[12].Fields = map[string]string{"taskid": "pm-task", "asgid": "stale", "activity": "stale", "owner": "ops"}
	other := out[3]
	other.Fields = map[string]string{"taskid": "other-task"}
	other.Seq, other.CauseID = 99, 99
	return append(out, other)
}

// TestIngestSaveGolden: the central store's Save output of a processed
// trace is byte-identical to the golden, and Load gives back every
// annotated field's value.
func TestIngestSaveGolden(t *testing.T) {
	store := NewStore()
	proc := pipeline.NewRouted(process.RollingUpgradeModel(), store, nil)
	var processed []logging.Event
	for _, ev := range goldenTrace() {
		if out, stored := proc.Process(ev); stored {
			processed = append(processed, out)
		}
	}
	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(ingestGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(ingestGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Save output differs from %s:\n%s", ingestGolden, buf.Bytes())
	}

	back, err := Load(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	loaded := back.All()
	if len(loaded) != len(processed) {
		t.Fatalf("Load gave %d events, Save wrote %d", len(loaded), len(processed))
	}
	keys := []string{"taskid", "processinstanceid", "stepid", "activity", "instanceid", "amiid", "asgid",
		"num", "total", "reorder", "owner"}
	for i, ev := range processed {
		for _, key := range keys {
			if got, want := loaded[i].Field(key), ev.Field(key); got != want {
				t.Errorf("event %d: loaded Field(%q) = %q, processed %q", i, key, got, want)
			}
		}
	}
}
