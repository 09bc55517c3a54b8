// Package remediate closes the diagnosis loop: where the paper (and this
// repo through the flight-recorder work) stops at a ranked, confirmed
// root cause, this package maps confirmed diagnosis-plan cause nodes to
// executable recovery actions against the simulated cloud and runs them
// under an operator policy.
//
// The design follows the recoverer-chain / self-healing-SOP shape of the
// related systems: a declarative catalog binds cause-node ids to actions
// (rollback launch configuration, re-register instances with the ELB,
// replace off-configuration instances, retry the failed step, abort the
// operation); a policy grades each action's fault class into one of three
// modes — auto (execute immediately), approve (hold for an operator),
// dry-run (record what would have run, touch nothing); idempotency keys
// guarantee a re-diagnosed cause never double-fires an action; and every
// decision is appended to the operation's flight-recorder evidence ring
// as remediation.action / remediation.outcome entries citing the
// confirmed cause's DAG path, so the audit trail chains detection →
// diagnosis → cause → action → outcome.
package remediate

import (
	"context"
	"fmt"
	"strings"
	"sync"
)

// Mode is the policy decision applied to a remediation action.
type Mode string

// Policy modes. ModeOff disables remediation for a fault class entirely
// (no audit entries either); the zero Policy is all-off, so remediation
// is strictly opt-in.
const (
	ModeOff     Mode = "off"
	ModeDryRun  Mode = "dry-run"
	ModeApprove Mode = "approve"
	ModeAuto    Mode = "auto"
)

// ParseMode parses the flag/JSON form of a mode.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case ModeOff, ModeDryRun, ModeApprove, ModeAuto:
		return Mode(s), nil
	case "":
		return ModeOff, nil
	default:
		return ModeOff, fmt.Errorf("remediate: unknown mode %q (want off, dry-run, approve or auto)", s)
	}
}

// Fault classes grading actions for the policy. Classes, not individual
// actions, carry modes: an operator reasons about "configuration
// rollbacks may run unattended, aborts need a human" rather than about
// every binding.
const (
	// ClassConfig covers configuration-drift repairs: rolling the group
	// back onto the intended launch configuration and replacing
	// instances launched off it.
	ClassConfig = "config"
	// ClassTraffic covers load-balancer membership repairs.
	ClassTraffic = "traffic"
	// ClassOperation covers operation-level recovery (retrying the
	// failed process step).
	ClassOperation = "operation"
	// ClassEscalation covers last-resort actions (aborting the
	// operation) that should usually be approved by a human.
	ClassEscalation = "escalation"
)

// Policy maps fault classes to modes.
type Policy struct {
	// Default applies to classes without an override.
	Default Mode `json:"default"`
	// ByClass overrides the default per fault class.
	ByClass map[string]Mode `json:"byClass,omitempty"`
}

// ModeFor resolves the mode for a fault class.
func (p Policy) ModeFor(class string) Mode {
	if m, ok := p.ByClass[class]; ok && m != "" {
		return m
	}
	if p.Default == "" {
		return ModeOff
	}
	return p.Default
}

// Enabled reports whether any class can fire at all.
func (p Policy) Enabled() bool {
	if p.Default != "" && p.Default != ModeOff {
		return true
	}
	for _, m := range p.ByClass {
		if m != "" && m != ModeOff {
			return true
		}
	}
	return false
}

// Action is one executable remediation bound to diagnosis-plan causes.
type Action struct {
	// Name identifies the action ("rollback-launch-config", ...).
	Name string `json:"name"`
	// Description is the operator-facing summary, also used as the
	// dry-run outcome detail.
	Description string `json:"description"`
	// Class is the fault class graded by the policy.
	Class string `json:"class"`
	// Causes are the diagnosis-plan cause-node base ids this action
	// binds to. Catalog sub-graphs shared across plans carry "-suffix"
	// variants of these ids; binding resolution is prefix-aware, exactly
	// like Diagnosis.HasCause.
	Causes []string `json:"causes"`
	// Run executes the action and returns an operator-facing detail
	// line. It must be idempotent: the engine's idempotency keys stop
	// double-fires from re-diagnosed causes, but approve-mode actions
	// can run long after the triggering diagnosis.
	Run func(ctx context.Context, t *Target) (string, error) `json:"-"`

	// dryRun is the dry-run outcome detail, built once by Catalog.Add.
	dryRun string
}

// Binding is one resolved (action, cause-base) pair for a concrete
// diagnosis cause node.
type Binding struct {
	// Action is the bound action.
	Action *Action
	// Base is the catalog cause id that matched the concrete node.
	Base string
}

// Catalog is the declarative action↔cause binding set. Declaration order
// is execution order: when one confirmed cause binds several actions
// (restore the launch configuration, then replace instances launched off
// it, then retry the step), they fire in the order they were added.
type Catalog struct {
	actions []*Action
	byName  map[string]*Action
	manual  map[string]string // cause base id -> reason no action is bound

	// bindings memoises BindingsFor per concrete node id ([]Binding).
	// Node ids come from the registered plans, so it holds at most one
	// entry per plan cause; Add clears it.
	bindings sync.Map
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{byName: make(map[string]*Action), manual: make(map[string]string)}
}

// Add registers an action. Names must be unique and every action needs a
// class, at least one cause binding, and a Run implementation. Add must
// not run concurrently with the catalog's readers.
func (c *Catalog) Add(a Action) error {
	if a.Name == "" || a.Class == "" || len(a.Causes) == 0 || a.Run == nil {
		return fmt.Errorf("remediate: action needs name, class, causes and run (got %+v)", a.Name)
	}
	if _, dup := c.byName[a.Name]; dup {
		return fmt.Errorf("remediate: duplicate action %q", a.Name)
	}
	cp := a
	cp.dryRun = "dry-run: " + cp.Description
	c.actions = append(c.actions, &cp)
	c.byName[a.Name] = &cp
	c.bindings = sync.Map{}
	return nil
}

// MustAdd is Add, panicking on error (catalog construction is static).
func (c *Catalog) MustAdd(a Action) {
	if err := c.Add(a); err != nil {
		panic(err)
	}
}

// MarkManual records that a cause deliberately has no bound action: the
// reason is surfaced by lint (rule RM002 requires every rolling-upgrade
// cause to bind an action or carry a marker) and by operator tooling.
func (c *Catalog) MarkManual(causeBase, reason string) {
	c.manual[causeBase] = reason
}

// Actions returns the registered actions in declaration order.
func (c *Catalog) Actions() []*Action {
	out := make([]*Action, len(c.actions))
	copy(out, c.actions)
	return out
}

// Action returns the named action, or nil.
func (c *Catalog) Action(name string) *Action { return c.byName[name] }

// Manual returns the explicit no-action markers, sorted by cause id.
func (c *Catalog) Manual() map[string]string {
	out := make(map[string]string, len(c.manual))
	for k, v := range c.manual {
		out[k] = v
	}
	return out
}

// ManualReason returns the no-action marker covering the concrete cause
// node (prefix-aware), and whether one exists.
func (c *Catalog) ManualReason(nodeID string) (string, bool) {
	for base, reason := range c.manual {
		if Matches(nodeID, base) {
			return reason, true
		}
	}
	return "", false
}

// BindingsFor resolves the actions bound to a concrete cause node id, in
// declaration order. Matching is prefix-aware: the catalog binds base
// ids, compiled plans suffix shared-subtree causes. The result is
// resolved once per node id and shared: it must not be changed.
func (c *Catalog) BindingsFor(nodeID string) []Binding {
	if out, ok := c.bindings.Load(nodeID); ok {
		return out.([]Binding)
	}
	var out []Binding
	for _, a := range c.actions {
		for _, base := range a.Causes {
			if Matches(nodeID, base) {
				out = append(out, Binding{Action: a, Base: base})
				break
			}
		}
	}
	out = out[:len(out):len(out)] // a caller's append must not write into the shared array
	c.bindings.Store(nodeID, out)
	return out
}

// Matches reports whether the concrete cause node id is the base id or a
// suffixed variant of it ("launch-ami-unavailable-asg1"). Lint uses the
// same predicate to resolve catalog bindings against plan causes.
func Matches(nodeID, base string) bool {
	return nodeID == base || strings.HasPrefix(nodeID, base+"-")
}

// SuggestedPolicy grades the default catalog's classes for a requested
// base mode: config, traffic and operation repairs take the base mode,
// while escalations (abort) never run unattended — under an auto base
// they are held for approval.
func SuggestedPolicy(base Mode) Policy {
	p := Policy{Default: base}
	if base == ModeAuto {
		p.ByClass = map[string]Mode{ClassEscalation: ModeApprove}
	}
	return p
}
