package assertion

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/consistentapi"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/simaws"
	"poddiagnosis/internal/upgrade"
)

// The assertion log line of one result, byte for byte, with and without
// its process context: the event's string form and its JSON (message,
// fields and tags). The goldens were written by the evaluator that built
// the line with fmt.Sprintf.
func TestAssertionLineGolden(t *testing.T) {
	bus := logging.NewBus()
	defer bus.Close()
	sub := bus.Subscribe(4, nil)
	e := NewEvaluator(nil, nil, bus)
	at := time.Date(2013, 11, 19, 11, 48, 7, 250_000_000, time.UTC)
	for _, tc := range []struct {
		res        Result
		trig       Trigger
		str, jsonb string
	}{
		{
			Result{CheckID: CheckASGVersionCount, Status: StatusFail, EvaluatedAt: at,
				Message: "ASG pm--asg has 0 of 1 instances with version v2."},
			Trigger{Source: TriggerOnDemand, ProcessInstanceID: "pushing pm--asg", StepID: "step7"},
			`2013-11-19 11:48:07,250 [assertion] [assertion step7] {checkid=asg-version-count status=fail steppostcon=step7 taskid=pushing pm--asg trigger=on-demand} [2013-11-19 11:48:07,250] [assertion] [Task:pushing pm--asg] [Step:step7] ASG pm--asg has 0 of 1 instances with version v2.`,
			`{"@timestamp":"2013-11-19T11:48:07.25Z","@source":"assertion-evaluation.log","@source_host":"pod-assertion","@type":"assertion","@tags":["assertion","step7"],"@fields":{"checkid":"asg-version-count","status":"fail","steppostcon":"step7","taskid":"pushing pm--asg","trigger":"on-demand"},"@message":"[2013-11-19 11:48:07,250] [assertion] [Task:pushing pm--asg] [Step:step7] ASG pm--asg has 0 of 1 instances with version v2.","@seq":1,"@cause":1}`,
		},
		{
			Result{CheckID: CheckELBInstanceCount, Status: StatusPass, EvaluatedAt: at, Message: "ok"},
			Trigger{Source: TriggerTimer},
			`2013-11-19 11:48:07,250 [assertion] [assertion] {checkid=elb-instance-count status=pass trigger=timer} [2013-11-19 11:48:07,250] [assertion] [Task:] [Step:] ok`,
			`{"@timestamp":"2013-11-19T11:48:07.25Z","@source":"assertion-evaluation.log","@source_host":"pod-assertion","@type":"assertion","@tags":["assertion"],"@fields":{"checkid":"elb-instance-count","status":"pass","trigger":"timer"},"@message":"[2013-11-19 11:48:07,250] [assertion] [Task:] [Step:] ok","@seq":2,"@cause":2}`,
		},
	} {
		e.publish(tc.res, tc.trig)
		ev := <-sub.C
		if got := ev.String(); got != tc.str {
			t.Errorf("String():\n got %s\nwant %s", got, tc.str)
		}
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != tc.jsonb {
			t.Errorf("JSON:\n got %s\nwant %s", b, tc.jsonb)
		}
	}
}

// evaluateAllocBudget is one failing asg-version-count evaluation on a
// 2-instance cluster, published to a bus, as the benchmark's storm makes
// it: measured 12, budget that plus 5%. The check makes 8 of them: the
// instance list the cloud returns and the slices copied into each
// instance (5), the failure message (1), the give-up error (1) and the
// monitoring-plane context (1). The evaluator makes 4: the span, which is
// its own context (1), the log line's fields map (2) and the line itself
// (1). The same evaluation made 15 while the failure message was a
// fmt.Sprintf with two boxed string arguments (3 → 1) and the span's
// context was a context.WithValue beside it (2 → 1), and 34 while the
// line was built with fmt.Sprintf and time.Format beside a tag slice grown
// per line (10 → 3), span attributes lived in a map and simDuration was
// formatted at once (3), the give-up error was a fmt.Errorf over a fresh
// error (5 → 1), the plane tag was boxed per read (1), the counter's two
// labels were joined per lookup (1) and the instance list was sorted with
// sort.Slice (3).
const evaluateAllocBudget = 13

func TestEvaluateAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	clk := clock.NewScaled(1000, time.Date(2013, 11, 19, 11, 48, 0, 0, time.UTC))
	profile := simaws.FastProfile()
	profile.TickInterval = time.Second
	cloud := simaws.New(clk, profile, simaws.WithSeed(1))
	cloud.Start()
	ctx := context.Background()
	cluster, err := upgrade.Deploy(ctx, cloud, "pm", 2, "v1")
	if err != nil {
		cloud.Stop()
		t.Fatal(err)
	}
	err = cluster.WaitReady(ctx, cloud, 10*time.Minute)
	// The reconciler's garbage is not the evaluation's: count with it
	// stopped.
	cloud.Stop()
	if err != nil {
		t.Fatal(err)
	}
	bus := logging.NewBus()
	defer bus.Close()
	sub := bus.Subscribe(1024, nil)
	defer sub.Cancel()
	eval := NewEvaluator(consistentapi.New(cloud, consistentapi.Config{MaxAttempts: 1}), DefaultRegistry(), bus)
	params := Params{ParamASG: cluster.ASGName, ParamVersion: "v2", ParamWant: "1"}
	trig := Trigger{Source: TriggerLog, ProcessInstanceID: "pushing " + cluster.ASGName, StepID: "step7"}
	var res Result
	got := testing.AllocsPerRun(100, func() {
		res = eval.Evaluate(ctx, CheckASGVersionCount, params, trig)
	})
	if res.Status != StatusFail {
		t.Fatalf("evaluation %s (%s), want fail", res.Status, res.Message)
	}
	t.Logf("%.0f allocations per evaluation", got)
	if got > evaluateAllocBudget {
		t.Errorf("%.0f allocations per evaluation, budget %d", got, evaluateAllocBudget)
	}
}
