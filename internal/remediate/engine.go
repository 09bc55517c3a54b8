package remediate

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
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
// audit trail.
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

	action *Action
	target Target
	fl     *flight.Op
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
// executes them, keeping the append-only audit trail.
type Engine struct {
	catalog *Catalog
	policy  Policy
	clk     clock.Clock

	mu    sync.Mutex
	seq   uint64
	byID  map[string]*Remediation
	byKey map[string]*Remediation
	byOp  map[string][]*Remediation
	// revs counts ledger writes per operation (see Revision); every
	// write to a record in byOp bumps its operation's count under mu.
	revs map[string]*OpRevision

	// attrs shares the audit entries' attrs maps: they hold only what
	// the action, its mode, the cause and the outcome determine (the
	// remediation id is in each entry's message), so the remediations of
	// one cause cite one map per entry.
	attrs flight.AttrTable
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
	return &Engine{
		catalog: cat,
		policy:  policy,
		clk:     clk,
		byID:    make(map[string]*Remediation),
		byKey:   make(map[string]*Remediation),
		byOp:    make(map[string][]*Remediation),
		revs:    make(map[string]*OpRevision),
	}
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

// Revision returns the operation's ledger-write counter, creating it on
// first use. It changes whenever what Export returns for the operation
// may have. Drop forgets it: a counter already handed out stays with
// its holder, and a later write to the operation starts a fresh one.
func (e *Engine) Revision(operation string) *OpRevision {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.revLocked(operation)
}

// bumpLocked counts one ledger write of the operation; e.mu must be held.
func (e *Engine) bumpLocked(operation string) { e.revLocked(operation).n.Add(1) }

func (e *Engine) revLocked(operation string) *OpRevision {
	r := e.revs[operation]
	if r == nil {
		r = &OpRevision{}
		e.revs[operation] = r
	}
	return r
}

// Catalog returns the engine's action catalog.
func (e *Engine) Catalog() *Catalog { return e.catalog }

// Policy returns the engine's policy.
func (e *Engine) Policy() Policy { return e.policy }

// Trigger admits remediations for one confirmed cause: every bound
// action whose class mode is not off gets a remediation — executed
// immediately (auto), held (approve), or recorded-only (dry-run) — unless
// its idempotency key already fired for this operation. Returns the
// remediations admitted by THIS call (re-fires return nil).
func (e *Engine) Trigger(ctx context.Context, tr Trigger) []Remediation {
	var admitted []*Remediation
	for _, b := range e.catalog.BindingsFor(tr.CauseNode) {
		mode := e.policy.ModeFor(b.Action.Class)
		if mode == ModeOff {
			continue
		}
		key := tr.Operation + "|" + b.Action.Name + "|" + b.Base
		e.mu.Lock()
		if _, dup := e.byKey[key]; dup {
			e.mu.Unlock()
			mDeduped.Inc()
			continue
		}
		e.seq++
		r := &Remediation{
			ID:             "rm-" + strconv.FormatUint(e.seq, 10),
			Operation:      tr.Operation,
			Action:         b.Action.Name,
			Class:          b.Action.Class,
			Mode:           mode,
			CauseNode:      tr.CauseNode,
			CausePath:      tr.CausePath,
			IdempotencyKey: key,
			State:          StatePending,
			CreatedAt:      e.clk.Now(),
			action:         b.Action,
			target:         tr.Target,
			fl:             tr.Flight,
		}
		r.target.StepID = tr.StepID
		if mode == ModeAuto {
			r.State = StateExecuting
		}
		e.byKey[key] = r
		e.byID[r.ID] = r
		e.byOp[tr.Operation] = append(e.byOp[tr.Operation], r)
		// The audit entry is recorded in the same critical section that
		// publishes the record, so no ledger read sees the record without
		// the entry id.
		r.ActionEntry = r.fl.Record(flight.Entry{
			Kind:    flight.KindRemediationAction,
			Parents: flight.Parents(tr.CauseEntry),
			Message: "remediation " + r.ID + ": " + r.Action + " (" + string(mode) + ") for cause " + tr.CauseNode,
			Attrs: e.attrs.Get("action", r.Action, "class", r.Class, "mode", string(mode),
				"cause", tr.CauseNode, "path", tr.CausePath),
		})
		e.bumpLocked(tr.Operation)
		e.mu.Unlock()
		switch mode {
		case ModeDryRun:
			e.finish(r, StateDryRun, "dry-run: "+r.action.Description, nil)
		case ModeAuto:
			e.run(ctx, r)
		default: // ModeApprove: stays pending until Approve.
			mTriggered.With(string(StatePending)).Inc()
		}
		admitted = append(admitted, r)
	}
	out := make([]Remediation, len(admitted))
	for i, r := range admitted {
		out[i] = e.snapshot(r)
	}
	return out
}

// Approve executes a pending remediation. A double approve returns
// ErrNotPending; an unknown or garbage-collected id ErrNotFound.
func (e *Engine) Approve(ctx context.Context, id string) (Remediation, error) {
	e.mu.Lock()
	r, ok := e.byID[id]
	if !ok {
		e.mu.Unlock()
		return Remediation{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if r.State != StatePending {
		state := r.State
		e.mu.Unlock()
		return e.snapshot(r), fmt.Errorf("%w: %s is %s", ErrNotPending, id, state)
	}
	r.State = StateExecuting
	e.bumpLocked(r.Operation)
	e.mu.Unlock()
	e.run(ctx, r)
	return e.snapshot(r), nil
}

// run executes the action and records the outcome. The caller must have
// transitioned the remediation to StateExecuting, which guarantees a
// single executor.
func (e *Engine) run(ctx context.Context, r *Remediation) {
	detail, err := r.action.Run(ctx, &r.target)
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
func (e *Engine) finish(r *Remediation, state State, detail string, err error) {
	mTriggered.With(string(state)).Inc()
	msg := "remediation " + r.ID + ": " + r.Action + " " + string(state)
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
		Parents: flight.Parents(r.ActionEntry),
		Message: msg,
		Attrs:   attrs,
	})
	e.bumpLocked(r.Operation)
}

// Get returns one remediation by id.
func (e *Engine) Get(id string) (Remediation, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.byID[id]
	if !ok {
		return Remediation{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return *r, nil
}

// List returns the remediations admitted for one operation, in admission
// order.
func (e *Engine) List(operation string) []Remediation {
	e.mu.Lock()
	defer e.mu.Unlock()
	rs := e.byOp[operation]
	out := make([]Remediation, len(rs))
	for i, r := range rs {
		out[i] = *r
	}
	return out
}

// All returns every remediation, sorted by id sequence.
func (e *Engine) All() []Remediation {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Remediation, 0, len(e.byID))
	for _, r := range e.byID {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].CreatedAt.Before(out[j].CreatedAt) || (out[i].CreatedAt.Equal(out[j].CreatedAt) && out[i].ID < out[j].ID)
	})
	return out
}

// Drop forgets an operation's remediations (manager GC). Pending
// approvals become unapprovable: ErrNotFound, matching the vanished
// operation.
func (e *Engine) Drop(operation string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range e.byOp[operation] {
		delete(e.byID, r.ID)
		delete(e.byKey, r.IdempotencyKey)
	}
	delete(e.byOp, operation)
	delete(e.revs, operation)
}

// snapshot returns a locked copy for callers outside the engine.
func (e *Engine) snapshot(r *Remediation) Remediation {
	e.mu.Lock()
	defer e.mu.Unlock()
	return *r
}
