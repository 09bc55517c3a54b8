package remediate

import (
	"strings"

	"poddiagnosis/internal/obs/flight"
)

// Snapshot transfer: federation handoff moves an operation's
// remediation ledger — including its idempotency keys — onto the
// adopting manager's engine, so a cause re-confirmed after handoff can
// never fire the same action twice.

// Export returns one operation's records for snapshot transfer: List's
// self-contained copies, which Import rebinds to an action, target and ring.
func (e *Engine) Export(operation string) []Remediation {
	return e.List(operation)
}

// Import re-admits remediation records exported from another engine,
// preserving idempotency keys and audit fields. Records are rebound to
// this engine's catalog by action name, and to the given target and
// evidence ring. Semantics on arrival:
//
//   - a record whose idempotency key already exists here is skipped
//     (the local record wins — it reflects what this engine actually
//     did);
//   - executing records were interrupted mid-flight by the handoff;
//     they finish as failed (with an outcome audit entry) rather than
//     silently re-running — remediation is at-most-once across a
//     handoff, and the retained key stops a re-diagnosed cause from
//     firing the action again;
//   - pending records whose action is missing from this catalog finish
//     as skipped (there is nothing to approve into).
//
// Imported ids are kept when free so cross-member audit trails line
// up, and the engine's sequence is advanced past every kept id; an id
// that is taken, or is not of the "rm-N" form this package renders, is
// minted afresh. A key not of the operation|action|base form is taken
// whole as the base. Returns the number of records imported.
func (e *Engine) Import(recs []Remediation, target Target, fl *flight.Op) int {
	imported := 0
	var interrupted, orphaned []*record
	for _, rec := range recs {
		r := &record{Remediation: rec, act: e.catalog.Action(rec.Action), target: target, fl: fl}
		r.parents[1] = rec.ActionEntry
		r.base, _ = strings.CutPrefix(rec.IdempotencyKey, rec.Operation+"|"+rec.Action+"|")
		r.seq = seqOf(rec.ID)
		e.mu.Lock()
		if !e.admitLocked(r) {
			e.mu.Unlock()
			mDeduped.Inc()
			continue
		}
		switch {
		case r.State == StateExecuting:
			interrupted = append(interrupted, r)
		case r.State == StatePending && r.act == nil:
			r.State = StateExecuting // Import finishes it; Approve must not run it
			orphaned = append(orphaned, r)
		}
		e.mu.Unlock()
		imported++
	}
	for _, r := range interrupted {
		e.finish(r, StateFailed, "interrupted by federation handoff", nil)
	}
	for _, r := range orphaned {
		e.finish(r, StateSkipped, "skipped: action not in adopting catalog", nil)
	}
	return imported
}
