// Package assertion implements the paper's assertion framework (§III.B.3):
// a library of pre-defined checks over cloud resources, a registry keyed by
// check id, an evaluator that runs checks through the consistent AWS API
// layer and records results as log events, and timers for assertion
// evaluations that are not triggered by log lines.
//
// Assertions come in two flavours: high-level checks over the whole system
// ("the system has N instances with the new version") and low-level checks
// over a specific node ("instance i-x runs version v2"). Checks are
// parameterized at evaluation time so fault trees can instantiate them
// with runtime request variables.
package assertion

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"poddiagnosis/internal/consistentapi"
)

// Status is the outcome of one assertion evaluation.
type Status int

// Evaluation outcomes.
const (
	// StatusPass means the asserted condition holds.
	StatusPass Status = iota + 1
	// StatusFail means the asserted condition is violated.
	StatusFail
	// StatusError means the evaluation could not complete (e.g. the API
	// timed out); per the paper such evaluations are "regarded as
	// failed", but diagnosis distinguishes inconclusive from violated.
	StatusError
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusPass:
		return "pass"
	case StatusFail:
		return "fail"
	case StatusError:
		return "error"
	default:
		return "unknown"
	}
}

// Params carries the runtime parameters of one evaluation (asg name,
// expected AMI, instance count, ...). Values are strings so they can be
// templated into fault trees and serialized trivially.
type Params map[string]string

// Standard parameter keys.
const (
	ParamASG          = "asgid"
	ParamELB          = "elbname"
	ParamAMI          = "amiid"
	ParamKeyPair      = "keyname"
	ParamSG           = "sgname"
	ParamInstanceType = "instancetype"
	ParamVersion      = "version"
	ParamWant         = "want"
	ParamInstance     = "instanceid"
	ParamLC           = "lcname"
	ParamWindow       = "window" // activity look-back window, duration string
)

// Clone returns a copy of the params.
func (p Params) Clone() Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Merge returns a copy of p with overrides applied. The copy is sized for
// both, so it is the call's only allocation.
func (p Params) Merge(overrides Params) Params {
	out := make(Params, len(p)+len(overrides))
	for k, v := range p {
		out[k] = v
	}
	for k, v := range overrides {
		out[k] = v
	}
	return out
}

// Int parses the named parameter as an integer.
func (p Params) Int(key string) (int, error) {
	v, ok := p[key]
	if !ok {
		return 0, fmt.Errorf("assertion: missing parameter %q", key)
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("assertion: parameter %q: %w", key, err)
	}
	return n, nil
}

// Str returns the named parameter, or an error when absent.
func (p Params) Str(key string) (string, error) {
	v, ok := p[key]
	if !ok || v == "" {
		return "", fmt.Errorf("assertion: missing parameter %q", key)
	}
	return v, nil
}

// Result records one assertion evaluation.
type Result struct {
	// CheckID identifies the check that ran.
	CheckID string `json:"checkId"`
	// Status is the outcome.
	Status Status `json:"status"`
	// Message is a human-readable explanation in the paper's log style,
	// e.g. "ASG pm--asg has 4 instances."
	Message string `json:"message"`
	// Params echoes the evaluation parameters.
	Params Params `json:"params"`
	// EvaluatedAt is the (simulated) evaluation time.
	EvaluatedAt time.Time `json:"evaluatedAt"`
	// Duration is how long the evaluation took, in simulated time.
	Duration time.Duration `json:"duration"`
	// Err carries the error text for StatusError results.
	Err string `json:"err,omitempty"`
	// Cached reports that the result was reused from a shared cache
	// rather than evaluated for this consumer.
	Cached bool `json:"cached,omitempty"`
}

// Passed reports whether the assertion held.
func (r Result) Passed() bool { return r.Status == StatusPass }

// Failed reports whether the assertion was violated (not merely
// inconclusive).
func (r Result) Failed() bool { return r.Status == StatusFail }

// Check is a named, parameterized assertion.
type Check struct {
	// ID is the registry key, e.g. "asg-version-count".
	ID string
	// Description documents the check; {param} placeholders are
	// substituted when describing an instantiated evaluation.
	Description string
	// HighLevel distinguishes whole-system checks from per-node checks.
	HighLevel bool
	// Eval performs the evaluation.
	Eval func(ctx context.Context, client *consistentapi.Client, p Params) Result
}

// pass builds a passing result.
func pass(checkID string, p Params, msg string) Result {
	return Result{CheckID: checkID, Status: StatusPass, Params: p, Message: msg}
}

// fail builds a failing result.
func fail(checkID string, p Params, msg string) Result {
	return Result{CheckID: checkID, Status: StatusFail, Params: p, Message: msg}
}

// evalErr builds an inconclusive result.
func evalErr(checkID string, p Params, err error) Result {
	return Result{
		CheckID: checkID, Status: StatusError, Params: p,
		Message: "evaluation could not complete", Err: err.Error(),
	}
}

// Registry maps check ids to checks. It is safe for concurrent use:
// parallel diagnosis walks look checks up while late registrations (e.g.
// test fixtures) may still be adding them.
type Registry struct {
	mu     sync.RWMutex
	checks map[string]Check
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{checks: make(map[string]Check)} }

// Register adds a check, replacing any previous one with the same id.
func (r *Registry) Register(c Check) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checks[c.ID] = c
}

// Lookup returns the check with the given id.
func (r *Registry) Lookup(id string) (Check, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.checks[id]
	return c, ok
}

// IDs returns all registered check ids.
func (r *Registry) IDs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.checks))
	for id := range r.checks {
		out = append(out, id)
	}
	return out
}
