package remediate

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/obs"
	"poddiagnosis/internal/obs/flight"
)

var (
	mTriggered = obs.Default.CounterVec("pod_remediation_actions_total",
		"Remediation actions admitted, by terminal (or pending) state.", "state")
	mDeduped = obs.Default.Counter("pod_remediation_deduped_total",
		"Remediation triggers suppressed by an existing idempotency key.")
)

// State is a remediation's lifecycle state.
type State string

// Remediation states. Pending and executing are transient; the rest are
// terminal.
const (
	StatePending   State = "pending"
	StateExecuting State = "executing"
	StateExecuted  State = "executed"
	StateFailed    State = "failed"
	StateDryRun    State = "dry-run"
	StateSkipped   State = "skipped"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateExecuted || s == StateFailed || s == StateDryRun || s == StateSkipped
}

// Remediation is one admitted (action, confirmed-cause) pairing and its
// audit trail: the form the engine's readers (REST, Export) receive.
type Remediation struct {
	// ID is engine-unique ("rm-7").
	ID string `json:"id"`
	// Operation is the monitoring session the cause was confirmed for.
	Operation string `json:"operation"`
	// Action names the catalog action.
	Action string `json:"action"`
	// Class is the action's fault class; Mode the policy decision that
	// admitted it.
	Class string `json:"class"`
	Mode  Mode   `json:"mode"`
	// CauseNode / CausePath identify the confirmed cause: the concrete
	// plan node id and its plan-qualified DAG path
	// ("planID:entry/…/cause").
	CauseNode string `json:"causeNode"`
	CausePath string `json:"causePath,omitempty"`
	// IdempotencyKey dedupes re-diagnosed causes: operation | action |
	// matched cause base.
	IdempotencyKey string `json:"idempotencyKey"`
	// State, Detail and Error describe progress and outcome.
	State  State  `json:"state"`
	Detail string `json:"detail,omitempty"`
	Error  string `json:"error,omitempty"`
	// CreatedAt / ResolvedAt are simulated timestamps.
	CreatedAt  time.Time `json:"createdAt"`
	ResolvedAt time.Time `json:"resolvedAt,omitempty"`
	// ActionEntry / OutcomeEntry are the flight-recorder audit entry
	// ids (0 when the operation has no recorder ring).
	ActionEntry  uint64 `json:"actionEntry,omitempty"`
	OutcomeEntry uint64 `json:"outcomeEntry,omitempty"`
}

// Trigger describes one confirmed cause offered to the engine.
type Trigger struct {
	// Operation is the monitoring session id.
	Operation string
	// CauseNode is the confirmed cause's concrete node id; CausePath its
	// plan-qualified DAG path; CauseEntry the flight-recorder id of the
	// diagnosis.cause entry (0 if none).
	CauseNode  string
	CausePath  string
	CauseEntry uint64
	// StepID is the process step the detection blamed, if any.
	StepID string
	// Flight is the operation's recorder ring (nil-safe).
	Flight *flight.Op
	// Target is the environment actions run against.
	Target Target
}

// Sentinel errors for Approve.
var (
	// ErrNotFound marks an unknown or garbage-collected remediation id.
	ErrNotFound = errors.New("remediate: remediation not found")
	// ErrNotPending marks an approve of a remediation that is not
	// awaiting approval (double-approve, auto-executed, dry-run).
	ErrNotPending = errors.New("remediate: remediation not pending")
)

// Engine admits remediations for confirmed causes under a policy and
// executes them, keeping the append-only audit trail in one ledger per
// operation.
type Engine struct {
	catalog *Catalog
	policy  Policy
	clk     clock.Clock

	// mu guards seq, ops, ids, every ledger's list and every record's
	// fields that change after admission. Revision counters move under it.
	mu  sync.Mutex
	seq uint64
	ops map[string]*ledger
	ids map[uint64]*record // every live record by sequence number

	// attrs shares the audit entries' attrs maps: they hold only what
	// the action, its mode, the cause and the outcome determine (the
	// remediation id is in each entry's message), so the remediations of
	// one cause cite one map per entry.
	attrs flight.AttrTable
}

// ledger is one operation's records in admission order and its write counter.
type ledger struct {
	rev        OpRevision
	head, tail *record
}

// record is one admitted remediation. Its ID and IdempotencyKey
// (operation|action|base) are rendered from seq and base when it is read.
// Dedup compares the (action, base) pair; a triggered record holds the
// catalog's own strings, so no key is built.
type record struct {
	Remediation
	seq  uint64
	base string
	// parents holds the audit entries' parent lists inline: [0] the cause
	// entry (the action entry's parent), [1] the action entry (the outcome's).
	parents [2]uint64

	led  *ledger
	next *record
	act  *Action // nil for an imported action this catalog lacks
	// target and fl are cleared once the record is terminal or dropped while
	// pending: the entries' Parents point into it and may outlive Drop.
	target Target
	fl     *flight.Op
}

// NewEngine builds an engine over a catalog and policy. A nil catalog
// uses DefaultCatalog; a nil clock the wall clock.
func NewEngine(cat *Catalog, policy Policy, clk clock.Clock) *Engine {
	if cat == nil {
		cat = DefaultCatalog()
	}
	if clk == nil {
		clk = clock.Wall
	}
	return &Engine{catalog: cat, policy: policy, clk: clk, ops: make(map[string]*ledger), ids: make(map[uint64]*record)}
}

// OpRevision counts the ledger writes of one operation: every
// admission and state change bumps it, inside the critical section that
// makes the write, so a reader that sees a count sees the writes behind
// it.
type OpRevision struct{ n atomic.Uint64 }

// Load returns the count; zero for a nil revision.
func (r *OpRevision) Load() uint64 {
	if r == nil {
		return 0
	}
	return r.n.Load()
}

// Revision returns the operation's ledger-write counter, creating the
// operation's ledger on first use. It changes whenever what Export
// returns for the operation may have. Drop forgets it: a counter already
// handed out stays with its holder, and a later write to the operation
// starts a fresh one.
func (e *Engine) Revision(operation string) *OpRevision {
	e.mu.Lock()
	defer e.mu.Unlock()
	return &e.ledgerLocked(operation).rev
}

// ledgerLocked returns the operation's ledger, creating it; e.mu must be
// held.
func (e *Engine) ledgerLocked(operation string) *ledger {
	l := e.ops[operation]
	if l == nil {
		l = &ledger{}
		e.ops[operation] = l
	}
	return l
}

// admitLocked appends r to its operation's ledger and the id index and
// counts the write, or reports false if the ledger holds r's (action, base)
// pair. r keeps a free non-zero seq, else takes the next; e.mu must be held.
func (e *Engine) admitLocked(r *record) bool {
	l := e.ledgerLocked(r.Operation)
	for o := l.head; o != nil; o = o.next {
		if o.Action == r.Action && o.base == r.base {
			return false
		}
	}
	switch {
	case r.seq == 0 || e.ids[r.seq] != nil:
		e.seq++
		r.seq = e.seq
	case r.seq > e.seq:
		e.seq = r.seq
	}
	if l.tail == nil {
		l.head = r
	} else {
		l.tail.next = r
	}
	l.tail, r.led = r, l
	e.ids[r.seq] = r
	l.rev.n.Add(1)
	return true
}

// Catalog returns the engine's action catalog.
func (e *Engine) Catalog() *Catalog { return e.catalog }

// Trigger admits remediations for one confirmed cause: every bound
// action whose class mode is not off gets a remediation — executed
// immediately (auto), held (approve), or recorded-only (dry-run) — unless
// its idempotency key already fired for this operation. It returns how
// many remediations this call admitted (0 for a re-fire); List reads
// them.
func (e *Engine) Trigger(ctx context.Context, tr Trigger) int {
	binds := e.catalog.BindingsFor(tr.CauseNode)
	var slab []record // the records this call admits, one allocation
	admitted := 0
	for i, b := range binds {
		mode := e.policy.ModeFor(b.Action.Class)
		if mode == ModeOff {
			continue
		}
		if slab == nil {
			slab = make([]record, len(binds)-i)
		}
		r := &slab[admitted]
		*r = record{
			Remediation: Remediation{
				Operation: tr.Operation, Action: b.Action.Name, Class: b.Action.Class, Mode: mode,
				CauseNode: tr.CauseNode, CausePath: tr.CausePath, State: StatePending,
			},
			base: b.Base, parents: [2]uint64{tr.CauseEntry}, act: b.Action, target: tr.Target, fl: tr.Flight,
		}
		r.target.StepID = tr.StepID
		if mode == ModeAuto {
			r.State = StateExecuting
		}
		e.mu.Lock()
		if !e.admitLocked(r) {
			e.mu.Unlock()
			mDeduped.Inc()
			continue
		}
		r.CreatedAt = e.clk.Now()
		// The audit entry is recorded in the same critical section that
		// publishes the record, so no ledger read sees the record without
		// the entry id.
		r.ActionEntry = r.fl.Record(flight.Entry{
			Kind:    flight.KindRemediationAction,
			Parents: r.parentList(0),
			Message: message(r.seq, r.Action, " (", string(mode), ") for cause ", tr.CauseNode),
			Attrs: e.attrs.Get("action", r.Action, "class", r.Class, "mode", string(mode),
				"cause", tr.CauseNode, "path", tr.CausePath),
		})
		r.parents[1] = r.ActionEntry
		e.mu.Unlock()
		admitted++
		switch mode {
		case ModeDryRun:
			e.finish(r, StateDryRun, b.Action.dryRun, nil)
		case ModeAuto:
			e.run(ctx, r)
		default: // ModeApprove: stays pending until Approve.
			mTriggered.With(string(StatePending)).Inc()
		}
	}
	return admitted
}

// Approve executes a pending remediation. A double approve returns
// ErrNotPending; an unknown or garbage-collected id ErrNotFound.
func (e *Engine) Approve(ctx context.Context, id string) (Remediation, error) {
	e.mu.Lock()
	r := e.ids[seqOf(id)]
	if r == nil {
		e.mu.Unlock()
		return Remediation{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if r.State != StatePending {
		rm := r.render()
		e.mu.Unlock()
		return rm, fmt.Errorf("%w: %s is %s", ErrNotPending, id, rm.State)
	}
	r.State = StateExecuting
	r.led.rev.n.Add(1)
	e.mu.Unlock()
	e.run(ctx, r)
	e.mu.Lock()
	defer e.mu.Unlock()
	return r.render(), nil
}

// run executes the action and records the outcome. The caller must have
// transitioned the remediation to StateExecuting, which guarantees a
// single executor.
func (e *Engine) run(ctx context.Context, r *record) {
	detail, err := r.act.Run(ctx, &r.target)
	switch {
	case err == nil:
		e.finish(r, StateExecuted, detail, nil)
	case errors.Is(err, ErrNoController):
		e.finish(r, StateSkipped, "skipped: "+err.Error(), nil)
	default:
		e.finish(r, StateFailed, detail, err)
	}
}

// finish commits a terminal state and appends the remediation.outcome
// audit entry chained to the action entry, in one critical section.
func (e *Engine) finish(r *record, state State, detail string, err error) {
	mTriggered.With(string(state)).Inc()
	msg := message(r.seq, r.Action, " ", string(state))
	var errText string
	if err != nil {
		errText = err.Error()
	}
	attrs := e.attrs.Get("action", r.Action, "state", string(state), "cause", r.CauseNode,
		"path", r.CausePath, "detail", detail, "error", errText)
	e.mu.Lock()
	defer e.mu.Unlock()
	r.State = state
	r.Detail = detail
	r.Error = errText
	r.ResolvedAt = e.clk.Now()
	r.OutcomeEntry = r.fl.Record(flight.Entry{
		Kind:    flight.KindRemediationOutcome,
		Parents: r.parentList(1),
		Message: msg,
		Attrs:   attrs,
	})
	r.target, r.fl = Target{}, nil
	r.led.rev.n.Add(1)
}

// message renders an audit entry's message, "remediation rm-<seq>: "
// followed by parts, in one allocation while it fits the stack buffer.
func message(seq uint64, parts ...string) string {
	b := append(make([]byte, 0, 128), "remediation rm-"...)
	b = append(strconv.AppendUint(b, seq, 10), ": "...)
	for _, p := range parts {
		b = append(b, p...)
	}
	return string(b)
}

// parentList returns the inline parent list at i: the one id, or nil when
// there is none.
func (r *record) parentList(i int) []uint64 {
	if r.parents[i] == 0 {
		return nil
	}
	return r.parents[i : i+1 : i+1]
}

// render returns the record as its readers see it; e.mu must be held.
func (r *record) render() Remediation {
	rm := r.Remediation
	rm.ID = "rm-" + strconv.FormatUint(r.seq, 10)
	rm.IdempotencyKey = rm.Operation + "|" + rm.Action + "|" + r.base
	return rm
}

// seqOf parses a canonical "rm-N" id (N ≥ 1, no leading zero, so rendering
// N gives the id back). Any other id gives 0, which no record holds.
func seqOf(id string) uint64 {
	digits, ok := strings.CutPrefix(id, "rm-")
	if !ok || digits == "" || digits[0] == '0' {
		return 0
	}
	n, _ := strconv.ParseUint(digits, 10, 64) // 0 on a syntax or range error
	return n
}

// List returns the remediations admitted for one operation, in admission
// order.
func (e *Engine) List(operation string) []Remediation {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := []Remediation{}
	if l := e.ops[operation]; l != nil {
		for r := l.head; r != nil; r = r.next {
			out = append(out, r.render())
		}
	}
	return out
}

// Drop forgets an operation's remediations (manager GC). Pending
// approvals become unapprovable: ErrNotFound, matching the vanished
// operation.
func (e *Engine) Drop(operation string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	l := e.ops[operation]
	if l == nil {
		return
	}
	for r := l.head; r != nil; r = r.next {
		delete(e.ids, r.seq)
		if r.State == StatePending {
			r.target, r.fl = Target{}, nil
		}
	}
	delete(e.ops, operation)
}
