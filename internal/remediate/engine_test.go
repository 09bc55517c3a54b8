package remediate

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/obs/flight"
	"poddiagnosis/internal/simaws"
	"poddiagnosis/internal/upgrade"
)

// countingCatalog binds one stub action to the "wrong-ami" cause and
// counts executions.
func countingCatalog(t *testing.T, runs *atomic.Int32) *Catalog {
	t.Helper()
	c := NewCatalog()
	c.MustAdd(Action{
		Name:        "stub",
		Description: "stub action",
		Class:       ClassConfig,
		Causes:      []string{"wrong-ami"},
		Run: func(ctx context.Context, tg *Target) (string, error) {
			runs.Add(1)
			return "done", nil
		},
	})
	return c
}

func TestTriggerIdempotentRefire(t *testing.T) {
	var runs atomic.Int32
	eng := NewEngine(countingCatalog(t, &runs), Policy{Default: ModeAuto}, clock.Wall)
	tr := Trigger{Operation: "op-1", CauseNode: "wrong-ami", CausePath: "p:a/b"}
	if n := eng.Trigger(context.Background(), tr); n != 1 {
		t.Fatalf("first trigger admitted %d remediations", n)
	}
	if first := eng.List("op-1"); first[0].State != StateExecuted {
		t.Fatalf("first trigger = %+v", first)
	}
	// A re-diagnosed cause — same operation, same action, same base — must
	// not double-fire, even via a suffixed node id from another plan.
	if n := eng.Trigger(context.Background(), tr); n != 0 {
		t.Fatalf("re-fire admitted %d remediations", n)
	}
	tr.CauseNode = "wrong-ami-elb"
	if n := eng.Trigger(context.Background(), tr); n != 0 {
		t.Fatalf("suffixed re-fire admitted remediations")
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("action ran %d times, want 1", got)
	}
	if rs := eng.List("op-1"); len(rs) != 1 {
		t.Fatalf("List = %d remediations, want 1", len(rs))
	}
	// A different operation with the same cause fires independently.
	tr2 := Trigger{Operation: "op-2", CauseNode: "wrong-ami"}
	if n := eng.Trigger(context.Background(), tr2); n != 1 {
		t.Fatalf("second operation admitted %d remediations", n)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("action ran %d times across two operations, want 2", got)
	}
}

func TestApproveDoubleApprove(t *testing.T) {
	var runs atomic.Int32
	eng := NewEngine(countingCatalog(t, &runs), Policy{Default: ModeApprove}, clock.Wall)
	eng.Trigger(context.Background(), Trigger{Operation: "op-1", CauseNode: "wrong-ami"})
	rs := eng.List("op-1")
	if len(rs) != 1 || rs[0].State != StatePending {
		t.Fatalf("trigger = %+v", rs)
	}
	if runs.Load() != 0 {
		t.Fatal("approve-mode action ran before approval")
	}
	rm, err := eng.Approve(context.Background(), rs[0].ID)
	if err != nil || rm.State != StateExecuted {
		t.Fatalf("approve = %+v, %v", rm, err)
	}
	if runs.Load() != 1 {
		t.Fatalf("action ran %d times, want 1", runs.Load())
	}
	if _, err := eng.Approve(context.Background(), rs[0].ID); !errors.Is(err, ErrNotPending) {
		t.Fatalf("double approve err = %v, want ErrNotPending", err)
	}
	if runs.Load() != 1 {
		t.Fatalf("double approve re-ran the action (%d runs)", runs.Load())
	}
}

func TestApproveAfterOperationGC(t *testing.T) {
	var runs atomic.Int32
	eng := NewEngine(countingCatalog(t, &runs), Policy{Default: ModeApprove}, clock.Wall)
	eng.Trigger(context.Background(), Trigger{Operation: "op-1", CauseNode: "wrong-ami"})
	rs := eng.List("op-1")
	eng.Drop("op-1")
	if _, err := eng.Approve(context.Background(), rs[0].ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("approve after GC err = %v, want ErrNotFound", err)
	}
	if runs.Load() != 0 {
		t.Fatal("GC'd remediation still executed")
	}
	if rs := eng.List("op-1"); len(rs) != 0 {
		t.Fatalf("dropped operation still lists %d remediations", len(rs))
	}
	// The idempotency key is released with the operation: a fresh session
	// reusing the id can fire again.
	if n := eng.Trigger(context.Background(), Trigger{Operation: "op-1", CauseNode: "wrong-ami"}); n != 1 {
		t.Fatalf("post-GC re-trigger admitted %d remediations", n)
	}
}

func TestUnknownRemediationNotFound(t *testing.T) {
	eng := NewEngine(nil, Policy{Default: ModeApprove}, clock.Wall)
	if _, err := eng.Approve(context.Background(), "rm-404"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestSkippedWithoutController(t *testing.T) {
	eng := NewEngine(DefaultCatalog(), Policy{Default: ModeAuto}, clock.Wall)
	// abort-operation needs a controller; without one the outcome is
	// skipped, not failed.
	eng.Trigger(context.Background(), Trigger{Operation: "op-1", CauseNode: "elb-unreachable"})
	rs := eng.List("op-1")
	if len(rs) != 1 {
		t.Fatalf("admitted %d remediations, want 1", len(rs))
	}
	if rs[0].State != StateSkipped || rs[0].Error != "" {
		t.Fatalf("remediation = %+v, want skipped without error", rs[0])
	}
}

// TestDryRunNeverMutatesCloud drives the real rollback/replace actions in
// dry-run mode against a real simulated cluster whose ASG has drifted to
// a rogue launch configuration, and asserts nothing in the cloud moved.
func TestDryRunNeverMutatesCloud(t *testing.T) {
	clk := clock.NewScaled(1000, time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC))
	cloud := simaws.New(clk, simaws.PaperProfile(), simaws.WithSeed(7))
	cloud.Start()
	defer cloud.Stop()
	ctx := context.Background()
	cluster, err := upgrade.Deploy(ctx, cloud, "pm", 3, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.WaitReady(ctx, cloud, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	// Drift: a rogue LC takes over the ASG, as the *-changed faults do.
	lc, err := cloud.DescribeLaunchConfiguration(ctx, cluster.LCName)
	if err != nil {
		t.Fatal(err)
	}
	lc.Name = "rogue-lc"
	if err := cloud.CreateLaunchConfiguration(ctx, lc); err != nil {
		t.Fatal(err)
	}
	before, err := cloud.DescribeAutoScalingGroup(ctx, cluster.ASGName)
	if err != nil {
		t.Fatal(err)
	}
	if err := cloud.UpdateAutoScalingGroup(ctx, cluster.ASGName, "rogue-lc", before.Min, before.Max, before.Desired); err != nil {
		t.Fatal(err)
	}
	// Describe calls are eventually consistent; settle past the window so
	// the drift is visible, and so the post-trigger read below cannot be
	// served a stale pre-drift snapshot masquerading as a mutation.
	settle := func(want string) {
		t.Helper()
		deadline := clk.Now().Add(2 * time.Minute)
		for {
			asg, err := cloud.DescribeAutoScalingGroup(ctx, cluster.ASGName)
			if err == nil && asg.LaunchConfigName == want {
				return
			}
			if clk.Now().After(deadline) {
				t.Fatalf("ASG launch configuration never settled on %s", want)
			}
			_ = clk.Sleep(ctx, time.Second)
		}
	}
	settle("rogue-lc")

	eng := NewEngine(DefaultCatalog(), Policy{Default: ModeDryRun}, clk)
	target := Target{
		Cloud: cloud, ASGName: cluster.ASGName, ELBName: cluster.ELBName,
		NewLCName: cluster.LCName, ClusterSize: 3,
	}
	eng.Trigger(ctx, Trigger{Operation: "op-1", CauseNode: "wrong-ami", Target: target})
	rs := eng.List("op-1")
	if len(rs) == 0 {
		t.Fatal("dry-run admitted no remediations")
	}
	for _, rm := range rs {
		if rm.State != StateDryRun {
			t.Fatalf("remediation %s state = %s, want dry-run", rm.ID, rm.State)
		}
	}
	// Let any (incorrect) mutation the dry-run might have made propagate
	// before reading the final state.
	_ = clk.Sleep(ctx, cloud.ConsistencyWindow()+time.Second)
	after, err := cloud.DescribeAutoScalingGroup(ctx, cluster.ASGName)
	if err != nil {
		t.Fatal(err)
	}
	if after.LaunchConfigName != "rogue-lc" {
		t.Fatalf("dry-run changed the ASG launch configuration to %s", after.LaunchConfigName)
	}
	beforeSet := fmt.Sprint(before.Instances)
	if got := fmt.Sprint(after.Instances); got != beforeSet {
		t.Fatalf("dry-run changed the instance set: %s -> %s", beforeSet, got)
	}
	for _, id := range after.Instances {
		inst, err := cloud.DescribeInstance(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !inst.Live() {
			t.Fatalf("dry-run terminated instance %s", id)
		}
	}
}

// TestConcurrentTriggerAndApprove races re-diagnosed triggers against
// operator approvals (run with -race): exactly one remediation must be
// admitted and the action must execute exactly once.
func TestConcurrentTriggerAndApprove(t *testing.T) {
	var runs atomic.Int32
	eng := NewEngine(countingCatalog(t, &runs), Policy{Default: ModeApprove}, clock.Wall)
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng.Trigger(ctx, Trigger{Operation: "op-1", CauseNode: "wrong-ami"})
			for _, rm := range eng.List("op-1") {
				_, _ = eng.Approve(ctx, rm.ID)
			}
		}()
	}
	wg.Wait()
	if rs := eng.List("op-1"); len(rs) != 1 {
		t.Fatalf("concurrent triggers admitted %d remediations, want 1", len(rs))
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("action executed %d times under concurrency, want 1", got)
	}
}

// TestAuditTrailChainsToCause asserts the remediation.action entry cites
// the confirmed cause entry and the remediation.outcome entry chains all
// the way back to the originating log event.
func TestAuditTrailChainsToCause(t *testing.T) {
	clk := clock.NewScaled(1000, time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC))
	rec := flight.NewRecorder(clk, 0)
	op := rec.Op("op-1")
	logID := op.Record(flight.Entry{Kind: flight.KindLogEvent, Message: "ERROR: wrong ami"})
	detID := op.Record(flight.Entry{Kind: flight.KindDetection, Parents: []uint64{logID}})
	causeID := op.Record(flight.Entry{Kind: flight.KindCause, Parents: []uint64{detID}, Message: "wrong-ami"})

	var runs atomic.Int32
	eng := NewEngine(countingCatalog(t, &runs), Policy{Default: ModeAuto}, clk)
	eng.Trigger(context.Background(), Trigger{
		Operation: "op-1", CauseNode: "wrong-ami", CausePath: "ft-asg-uses-ami:top/wrong-ami",
		CauseEntry: causeID, Flight: op,
	})
	rs := eng.List("op-1")
	if len(rs) != 1 {
		t.Fatalf("admitted %d remediations", len(rs))
	}
	rm := rs[0]
	if rm.ActionEntry == 0 || rm.OutcomeEntry == 0 {
		t.Fatalf("audit entries missing: %+v", rm)
	}
	tl := rec.Timeline("op-1")
	byID := make(map[uint64]flight.Entry)
	for _, e := range tl.Entries {
		byID[e.ID] = e
	}
	act := byID[rm.ActionEntry]
	if act.Kind != flight.KindRemediationAction || len(act.Parents) != 1 || act.Parents[0] != causeID {
		t.Fatalf("action entry = %+v, want parent %d", act, causeID)
	}
	if act.Attrs["path"] != "ft-asg-uses-ami:top/wrong-ami" {
		t.Fatalf("action entry path attr = %q", act.Attrs["path"])
	}
	out := byID[rm.OutcomeEntry]
	if out.Kind != flight.KindRemediationOutcome || len(out.Parents) != 1 || out.Parents[0] != rm.ActionEntry {
		t.Fatalf("outcome entry = %+v, want parent %d", out, rm.ActionEntry)
	}
	chain, ok := flight.ChainToLog(tl.Entries, rm.OutcomeEntry)
	if !ok {
		t.Fatal("remediation outcome does not chain to a log event")
	}
	if last := chain[len(chain)-1]; last.Kind != flight.KindLogEvent {
		t.Fatalf("chain terminal kind = %s, want log.event", last.Kind)
	}
	if len(chain) != 5 { // outcome -> action -> cause -> detection -> log
		t.Fatalf("chain length = %d, want 5", len(chain))
	}
}

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"", ModeOff, true},
		{"off", ModeOff, true},
		{"dry-run", ModeDryRun, true},
		{"approve", ModeApprove, true},
		{"auto", ModeAuto, true},
		{"yolo", ModeOff, false},
	} {
		got, err := ParseMode(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Fatalf("ParseMode(%q) = %v, %v", tc.in, got, err)
		}
	}
}

func TestSuggestedPolicyHoldsEscalations(t *testing.T) {
	p := SuggestedPolicy(ModeAuto)
	if p.ModeFor(ClassConfig) != ModeAuto || p.ModeFor(ClassEscalation) != ModeApprove {
		t.Fatalf("policy = %+v", p)
	}
	if off := (Policy{}); off.Enabled() || off.ModeFor(ClassConfig) != ModeOff {
		t.Fatal("zero policy must be fully off")
	}
	if !SuggestedPolicy(ModeDryRun).Enabled() {
		t.Fatal("dry-run policy should count as enabled")
	}
}

// TestRevisionMovesWithEveryLedgerWrite: an operation's revision moves
// exactly once per ledger write: at admission (seen from inside the
// action), when an approval starts the action (also seen from inside
// it), when the outcome lands, and per imported record and imported
// outcome; a deduped trigger or import writes nothing. So a snapshot
// taken at any of those points is resent.
func TestRevisionMovesWithEveryLedgerWrite(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []Mode{ModeAuto, ModeApprove} {
		var rev *OpRevision
		var inside uint64
		c := NewCatalog()
		c.MustAdd(Action{
			Name: "probe", Description: "probe", Class: ClassConfig, Causes: []string{"wrong-ami"},
			Run: func(context.Context, *Target) (string, error) {
				inside = rev.Load()
				return "done", nil
			},
		})
		eng := NewEngine(c, Policy{Default: mode}, clock.Wall)
		rev = eng.Revision("op-1")
		before := rev.Load()
		tr := Trigger{Operation: "op-1", CauseNode: "wrong-ami"}
		eng.Trigger(ctx, tr)
		rs := eng.List("op-1")
		if len(rs) != 1 {
			t.Fatalf("%s: trigger admitted %d remediations", mode, len(rs))
		}
		if mode == ModeApprove {
			if got := rev.Load(); got != before+1 {
				t.Fatalf("approve: admission moved the revision %d → %d, want one write", before, got)
			}
			// A pending record whose action the adopting catalog lacks is
			// imported, then finished as skipped: two writes.
			bare := NewEngine(NewCatalog(), Policy{Default: mode}, clock.Wall)
			if n := bare.Import(eng.Export("op-1"), Target{}, nil); n != 1 || bare.Revision("op-1").Load() != 2 {
				t.Errorf("approve: orphaned import of %d record(s) moved the revision to %d, want 2",
					n, bare.Revision("op-1").Load())
			}
			before = rev.Load()
			if _, err := eng.Approve(ctx, rs[0].ID); err != nil {
				t.Fatal(err)
			}
		}
		if inside != before+1 {
			t.Errorf("%s: the action ran at revision %d, want one write past %d", mode, inside, before)
		}
		if got := rev.Load(); got != inside+1 {
			t.Errorf("%s: the outcome moved the revision %d → %d, want one write", mode, inside, got)
		}
		done := rev.Load()
		if eng.Trigger(ctx, tr); rev.Load() != done {
			t.Errorf("%s: a deduped trigger moved the revision", mode)
		}
		other := NewEngine(c, Policy{Default: mode}, clock.Wall)
		imported := other.Revision("op-1")
		if n := other.Import(eng.Export("op-1"), Target{}, nil); n != 1 || imported.Load() != 1 {
			t.Errorf("%s: import of %d record(s) moved the adopting engine's revision to %d, want 1", mode, n, imported.Load())
		}
		if n := other.Import(eng.Export("op-1"), Target{}, nil); n != 0 || imported.Load() != 1 {
			t.Errorf("%s: a repeated import imported %d and moved the revision to %d", mode, n, imported.Load())
		}
		if eng.Drop("op-1"); rev.Load() != done {
			t.Errorf("%s: drop moved a handed-out revision", mode)
		}
	}
}
