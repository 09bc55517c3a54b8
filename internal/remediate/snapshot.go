package remediate

import (
	"fmt"
	"strconv"
	"strings"

	"poddiagnosis/internal/obs/flight"
)

// Snapshot transfer: federation handoff moves an operation's
// remediation ledger — including its idempotency keys — onto the
// adopting manager's engine, so a cause re-confirmed after handoff can
// never fire the same action twice.

// Export returns copies of one operation's remediation records for
// snapshot transfer. It is List under a name that spells out the
// contract: the copies are self-contained audit records (the
// unexported action/target/ring bindings do not travel and are rebound
// by Import).
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
// up, and the engine's sequence is advanced past every kept id.
// Returns the number of records imported.
func (e *Engine) Import(recs []Remediation, target Target, fl *flight.Op) int {
	imported := 0
	var interrupted, orphaned []*Remediation
	for _, rec := range recs {
		r := rec
		r.action = e.catalog.Action(r.Action)
		r.target = target
		r.fl = fl
		e.mu.Lock()
		if _, dup := e.byKey[r.IdempotencyKey]; dup {
			e.mu.Unlock()
			mDeduped.Inc()
			continue
		}
		if _, taken := e.byID[r.ID]; taken || r.ID == "" {
			e.seq++
			r.ID = fmt.Sprintf("rm-%d", e.seq)
		} else if n := seqOf(r.ID); n > e.seq {
			e.seq = n
		}
		e.byKey[r.IdempotencyKey] = &r
		e.byID[r.ID] = &r
		e.byOp[r.Operation] = append(e.byOp[r.Operation], &r)
		e.bumpLocked(r.Operation)
		e.mu.Unlock()
		imported++
		switch {
		case r.State == StateExecuting:
			interrupted = append(interrupted, &r)
		case r.State == StatePending && r.action == nil:
			orphaned = append(orphaned, &r)
		}
	}
	for _, r := range interrupted {
		e.finish(r, StateFailed, "interrupted by federation handoff", nil)
	}
	for _, r := range orphaned {
		e.finish(r, StateSkipped, "skipped: action not in adopting catalog", nil)
	}
	return imported
}

// seqOf parses the numeric suffix of an "rm-N" id (0 when malformed).
func seqOf(id string) uint64 {
	n, err := strconv.ParseUint(strings.TrimPrefix(id, "rm-"), 10, 64)
	if err != nil {
		return 0
	}
	return n
}
