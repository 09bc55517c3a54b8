package remediate

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/obs/flight"
)

// TestImportThenTriggerDedupes: an adopting engine that imported the
// ledger of an engine which fired wrong-ami admits nothing for a
// suffixed variant of the same cause, counting one dedup per binding, and
// a second import of the same records imports nothing.
func TestImportThenTriggerDedupes(t *testing.T) {
	ctx := context.Background()
	policy := SuggestedPolicy(ModeDryRun)
	src := NewEngine(nil, policy, clock.Wall)
	src.Trigger(ctx, Trigger{Operation: "op-1", CauseNode: "wrong-ami"})
	recs := src.Export("op-1")
	binds := len(src.Catalog().BindingsFor("wrong-ami"))
	if len(recs) != binds || binds != 3 {
		t.Fatalf("source admitted %d remediations for %d bindings, want 3", len(recs), binds)
	}

	dst := NewEngine(nil, policy, clock.Wall)
	if n := dst.Import(recs, Target{}, nil); n != len(recs) {
		t.Fatalf("imported %d of %d records", n, len(recs))
	}
	before := mDeduped.Value()
	dst.Trigger(ctx, Trigger{Operation: "op-1", CauseNode: "wrong-ami-lc1"})
	if got := dst.List("op-1"); len(got) != len(recs) {
		t.Fatalf("trigger after import left %d remediations, want %d", len(got), len(recs))
	}
	if got := mDeduped.Value() - before; got != float64(binds) {
		t.Fatalf("deduped counter moved by %v, want %d", got, binds)
	}
	if n := dst.Import(recs, Target{}, nil); n != 0 {
		t.Fatalf("second import imported %d records", n)
	}
}

// TestImportForeignKey: an imported key not of the operation|action|base
// form, the empty key included, is taken whole as the base, and a second
// import of the same records still imports nothing.
func TestImportForeignKey(t *testing.T) {
	eng := NewEngine(nil, Policy{Default: ModeDryRun}, clock.Wall)
	recs := []Remediation{
		{ID: "rm-1", Operation: "op-1", Action: "replace-instance", CauseNode: "wrong-ami", State: StateDryRun},
		{ID: "rm-2", Operation: "op-1", Action: "replace-instance", CauseNode: "wrong-ami", IdempotencyKey: "peer-key", State: StateDryRun},
	}
	if n := eng.Import(recs, Target{}, nil); n != 2 {
		t.Fatalf("imported %d of 2 records", n)
	}
	got := eng.List("op-1")
	if got[0].IdempotencyKey != "op-1|replace-instance|" || got[1].IdempotencyKey != "op-1|replace-instance|peer-key" {
		t.Fatalf("keys = %q, %q", got[0].IdempotencyKey, got[1].IdempotencyKey)
	}
	if n := eng.Import(recs, Target{}, nil); n != 0 {
		t.Fatalf("second import imported %d records", n)
	}
}

// TestDroppedLedgerReleasesTarget: the audit entries of a dropped
// operation, carried into another ring as an in-process handoff carries
// them, do not keep the operation's target alive. Their parent lists point
// into the records, so a record drops its target once it is terminal or,
// while pending, when its operation is dropped.
func TestDroppedLedgerReleasesTarget(t *testing.T) {
	eng := NewEngine(nil, Policy{Default: ModeDryRun, ByClass: map[string]Mode{ClassOperation: ModeApprove}}, clock.Wall)
	src := flight.NewRecorder(clock.Wall, 0)
	released := make(chan struct{})
	func() {
		ctl := &stubController{}
		runtime.SetFinalizer(ctl, func(*stubController) { close(released) })
		// Two dry-runs and a step retry held for approval.
		eng.Trigger(context.Background(), Trigger{
			Operation: "op-1", CauseNode: "wrong-ami", CauseEntry: 1, Flight: src.Op("op-1"), Target: Target{Op: ctl},
		})
	}()
	adopted := flight.NewRecorder(clock.Wall, 0)
	adopted.Import(src.Timeline("op-1"))
	if n := len(adopted.Timeline("op-1", flight.KindRemediationAction).Entries); n != 3 {
		t.Fatalf("adopted ring holds %d remediation.action entries, want 3", n)
	}
	eng.Drop("op-1")
	src.Drop("op-1")
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-released:
			runtime.KeepAlive(adopted)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the dropped operation's controller is still reachable from the adopted ring")
}

// TestTriggerAllocationBudget pins what one Trigger costs on the storm's
// path: wrong-ami's three dry-run bindings admitted for an operation
// registered (through Revision) before the call, with a flight ring. The
// seven allocations are the slab holding the three records (1) and, per
// record, the remediation.action and remediation.outcome messages (2 × 3).
// The bindings, the dedup check, the dry-run detail, the entries' parent
// lists and their attrs maps cost nothing, and the id index's growth comes
// to well under one per call.
func TestTriggerAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	const runs = 100
	eng := NewEngine(nil, SuggestedPolicy(ModeDryRun), clock.Wall)
	rec := flight.NewRecorder(clock.Wall, 0)
	ops := make([]string, runs+1)
	rings := make([]*flight.Op, runs+1)
	for i := range ops {
		ops[i] = "op-" + strconv.Itoa(i)
		rings[i] = rec.Op(ops[i])
		eng.Revision(ops[i])
	}
	i := 0
	n := testing.AllocsPerRun(runs, func() {
		eng.Trigger(context.Background(), Trigger{
			Operation: ops[i], CauseNode: "wrong-ami", CausePath: "ft-asg-uses-ami:top/wrong-ami",
			CauseEntry: 1, Flight: rings[i],
		})
		i++
	})
	if got := len(eng.List(ops[0])); got != 3 {
		t.Fatalf("admitted %d remediations, want 3", got)
	}
	if n > 7 {
		t.Errorf("one Trigger admitting three remediations costs %.1f allocations, want at most 7", n)
	}
}

// TestBindingsForDoesNotAllocate: a node id the catalog has resolved
// before costs nothing.
func TestBindingsForDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	cat := DefaultCatalog()
	if got := len(cat.BindingsFor("wrong-ami-lc1")); got != 3 {
		t.Fatalf("wrong-ami-lc1 binds %d actions, want 3", got)
	}
	if n := testing.AllocsPerRun(100, func() { cat.BindingsFor("wrong-ami-lc1") }); n != 0 {
		t.Errorf("BindingsFor on a seen node costs %.1f allocations", n)
	}
}

// TestConcurrentLedgerWrites races Trigger, Approve, Import, Drop, List
// and Revision over a few operations (run with -race): no operation ever
// lists one idempotency key twice, and no two live remediations share an
// id.
func TestConcurrentLedgerWrites(t *testing.T) {
	ctx := context.Background()
	policy := Policy{Default: ModeAuto, ByClass: map[string]Mode{
		ClassConfig: ModeDryRun, ClassEscalation: ModeApprove,
	}}
	ops := []string{"op-0", "op-1", "op-2"}
	causes := []string{"wrong-ami", "wrong-ami-lc1", "elb-unreachable", "lc-changed", "instance-not-registered"}
	// The default bindings over actions that touch nothing.
	cat := NewCatalog()
	for _, a := range DefaultCatalog().Actions() {
		a.Run = func(context.Context, *Target) (string, error) { return "done", nil }
		cat.MustAdd(*a)
	}
	eng := NewEngine(cat, policy, clock.Wall)
	peer := NewEngine(cat, policy, clock.Wall)
	for _, op := range ops {
		for _, c := range causes {
			peer.Trigger(ctx, Trigger{Operation: op, CauseNode: c})
		}
	}
	check := func(op string) error {
		seen := make(map[string]bool)
		for _, r := range eng.List(op) {
			if seen[r.IdempotencyKey] {
				return fmt.Errorf("%s lists key %s twice", op, r.IdempotencyKey)
			}
			seen[r.IdempotencyKey] = true
		}
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				op := ops[(w+i)%len(ops)]
				switch (w + i) % 6 {
				case 0, 1:
					eng.Trigger(ctx, Trigger{Operation: op, CauseNode: causes[i%len(causes)]})
				case 2:
					for _, r := range eng.List(op) {
						_, _ = eng.Approve(ctx, r.ID)
					}
				case 3:
					eng.Import(peer.Export(op), Target{}, nil)
				case 4:
					if i%20 == 4 {
						eng.Drop(op)
					} else {
						eng.Revision(op).Load()
					}
				case 5:
					if err := check(op); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	ids := make(map[string]string)
	for _, op := range ops {
		if err := check(op); err != nil {
			t.Fatal(err)
		}
		for _, r := range eng.List(op) {
			if other, dup := ids[r.ID]; dup {
				t.Fatalf("%s and %s both hold %s", other, op, r.ID)
			}
			ids[r.ID] = op
		}
	}
}
