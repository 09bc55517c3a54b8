package remediate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/obs/flight"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the remediation golden file")

const remediationGolden = "testdata/remediations.golden.json"

// frozenClock reads one instant forever, so every timestamp in the golden
// is the same.
type frozenClock struct{ at time.Time }

var _ clock.Clock = frozenClock{}

func (c frozenClock) Now() time.Time                             { return c.at }
func (c frozenClock) Sleep(context.Context, time.Duration) error { return nil }
func (c frozenClock) AfterFunc(time.Duration, func()) func() bool {
	return func() bool { return false }
}
func (c frozenClock) Since(t time.Time) time.Duration { return c.at.Sub(t) }

// stubController answers RetryStep with retryErr, or, when block is set,
// signals started and waits for block to close; Abort succeeds.
type stubController struct {
	retryErr error
	started  chan struct{}
	block    chan struct{}
}

func (c *stubController) RetryStep(ctx context.Context, stepID string) error {
	if c.block != nil {
		close(c.started)
		<-c.block
	}
	return c.retryErr
}

func (c *stubController) Abort(ctx context.Context, reason string) error { return nil }

// goldenLedger is what the golden pins: the REST form of every
// operation's remediations on the engine that admitted them and on the
// engine that imported them, and the audit entries both wrote.
type goldenLedger struct {
	Source   map[string][]Remediation  `json:"source"`
	Approved Remediation               `json:"approved"`
	Got      Remediation               `json:"got"`
	Imported map[string]int            `json:"imported"`
	Adopter  map[string][]Remediation  `json:"adopter"`
	Audit    map[string][]flight.Entry `json:"audit"`
	Adopted  map[string][]flight.Entry `json:"adoptedAudit"`
}

// TestRemediationGolden pins the ledger's wire forms byte for byte: the
// List JSON served over REST, an Export → Import round trip onto a second
// engine, and the remediation.action / remediation.outcome entries. It
// covers dry-run, skipped, failed, pending, approved and auto-executed
// records, an execution interrupted by the export, a pending action the
// adopting catalog lacks, ids past rm-10, ids minted afresh on import and
// a suffixed cause node.
func TestRemediationGolden(t *testing.T) {
	clk := frozenClock{time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC)}
	ctx := context.Background()
	policy := Policy{Default: ModeAuto, ByClass: map[string]Mode{
		ClassConfig: ModeDryRun, ClassEscalation: ModeApprove, ClassTraffic: ModeOff,
	}}
	src := NewEngine(DefaultCatalog(), policy, clk)
	srcRec := flight.NewRecorder(clk, 0)
	cause := func(op, node string) uint64 {
		return srcRec.Op(op).Record(flight.Entry{Kind: flight.KindCause, Message: node})
	}
	fire := func(op, node string, ctl OperationController, withCause bool) {
		tr := Trigger{
			Operation: op, CauseNode: node, CausePath: "ft-plan:entry/" + node, StepID: "step7",
			Flight: srcRec.Op(op), Target: Target{ASGName: op + "-asg", Op: ctl},
		}
		if withCause {
			tr.CauseEntry = cause(op, node)
		}
		src.Trigger(ctx, tr)
	}

	// op-a: a suffixed node; two dry-runs and a step retry skipped for
	// want of a controller. The re-diagnosed base cause admits nothing.
	fire("op-a", "wrong-ami-lc1", nil, true)
	fire("op-a", "wrong-ami", nil, true)
	// op-b: the retry fails; the abort waits for approval and executes.
	fire("op-b", "wrong-keypair", &stubController{retryErr: errors.New("step locked")}, true)
	fire("op-b", "elb-unreachable", &stubController{}, true)
	approved, err := src.Approve(ctx, "rm-7")
	if err != nil {
		t.Fatal(err)
	}
	// op-c: the retry executes; the abort stays pending.
	fire("op-c", "lc-ami-unavailable", &stubController{}, true)
	fire("op-c", "account-limit-reached", &stubController{}, true)
	// op-d: no cause entry, so the action entries have no parent.
	fire("op-d", "launch-sg-unavailable-asg1", &stubController{}, false)
	var got Remediation
	for _, rm := range src.List("op-c") {
		if rm.ID == "rm-10" {
			got = rm
		}
	}
	// op-e: exported while its step retry is still executing.
	ctl := &stubController{started: make(chan struct{}), block: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		fire("op-e", "wrong-instance-type", ctl, true)
	}()
	<-ctl.started
	ops := []string{"op-a", "op-b", "op-c", "op-d", "op-e"}
	exported := make(map[string][]Remediation, len(ops))
	for _, op := range ops {
		exported[op] = src.Export(op)
	}
	close(ctl.block)
	<-done

	// The adopter's catalog lacks abort-operation, and its own first
	// remediation takes rm-1. op-e's ids are kept and move the sequence
	// past them; op-a's rm-1 is minted afresh, its rm-2 kept.
	adoptCat := NewCatalog()
	for _, a := range DefaultCatalog().Actions() {
		if a.Name != "abort-operation" {
			adoptCat.MustAdd(*a)
		}
	}
	dst := NewEngine(adoptCat, policy, clk)
	dstRec := flight.NewRecorder(clk, 0)
	dst.Trigger(ctx, Trigger{Operation: "op-z", CauseNode: "instance-not-registered", Flight: dstRec.Op("op-z")})
	g := goldenLedger{
		Source: make(map[string][]Remediation), Approved: approved, Got: got,
		Imported: make(map[string]int), Adopter: make(map[string][]Remediation),
		Audit: make(map[string][]flight.Entry), Adopted: make(map[string][]flight.Entry),
	}
	for _, op := range []string{"op-e", "op-a", "op-b", "op-c", "op-d"} {
		g.Imported[op] = dst.Import(exported[op], Target{ASGName: op + "-asg"}, dstRec.Op(op))
	}
	audit := func(rec *flight.Recorder, op string) []flight.Entry {
		return rec.Timeline(op, flight.KindRemediationAction, flight.KindRemediationOutcome).Entries
	}
	for _, op := range ops {
		g.Source[op] = src.List(op)
		g.Adopter[op] = dst.List(op)
		g.Audit[op] = audit(srcRec, op)
		g.Adopted[op] = audit(dstRec, op)
	}
	g.Adopter["op-z"] = dst.List("op-z")
	g.Adopted["op-z"] = audit(dstRec, "op-z")

	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(remediationGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(remediationGolden, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(remediationGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("remediation ledger differs from %s:\n got: %s\nwant: %s", remediationGolden, out, want)
	}
}
