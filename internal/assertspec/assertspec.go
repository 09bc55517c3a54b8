// Package assertspec implements the assertion specification language the
// paper names as future work (§VIII: "In order to simplify specifying
// boilerplate assertions, we are designing an assertion specification
// language"). A spec is a line-oriented text document binding checks from
// the assertion library to process triggers:
//
//	# post-step assertions (evaluated when the step's log line arrives)
//	on step2 assert lc-exists
//	on step7 assert asg-version-count want={progress}
//	on step7 assert instance-version instanceid={instanceid}
//
//	# a periodic assertion, started/stopped with the process
//	every 60s assert asg-instance-count want={min}
//
//	# a one-off timer armed when the step begins: if the next step's log
//	# line does not arrive within the step's historical duration x slack,
//	# the assertion is evaluated (trigger source "timer")
//	after step6 timeout assert asg-version-count want={next}
//
// Parameter values may reference {variables} resolved at evaluation time
// from the operation's expectation and the annotated log event (e.g. {n},
// {min}, {progress}, {next}, {instanceid}). A binding whose parameters
// cannot be fully resolved is skipped — e.g. instance-version when the
// triggering line carries no instance id.
package assertspec

import (
	"fmt"
	"strings"
	"time"

	"poddiagnosis/internal/assertion"
)

// TriggerKind distinguishes the binding trigger families.
type TriggerKind int

// Trigger kinds.
const (
	// TriggerStep evaluates after a step's log line.
	TriggerStep TriggerKind = iota + 1
	// TriggerPeriodic evaluates on a fixed period while the process runs.
	TriggerPeriodic
	// TriggerStepTimeout evaluates if the step does not complete in time.
	TriggerStepTimeout
)

// String implements fmt.Stringer.
func (k TriggerKind) String() string {
	switch k {
	case TriggerStep:
		return "on-step"
	case TriggerPeriodic:
		return "periodic"
	case TriggerStepTimeout:
		return "step-timeout"
	default:
		return "unknown"
	}
}

// Binding attaches one check to one trigger.
type Binding struct {
	// Kind is the trigger family.
	Kind TriggerKind `json:"kind"`
	// StepID applies to TriggerStep and TriggerStepTimeout.
	StepID string `json:"stepId,omitempty"`
	// Every applies to TriggerPeriodic.
	Every time.Duration `json:"every,omitempty"`
	// CheckID names the assertion to evaluate.
	CheckID string `json:"checkId"`
	// Params are the binding's explicit parameters; values may contain
	// {variable} placeholders.
	Params assertion.Params `json:"params,omitempty"`
	// Line is the 1-based source line, for error reporting.
	Line int `json:"line"`
}

// Spec is a parsed assertion specification.
type Spec struct {
	bindings []Binding
}

// Bindings returns all bindings in source order.
func (s *Spec) Bindings() []Binding {
	return append([]Binding(nil), s.bindings...)
}

// ByStep returns the TriggerStep bindings for the given step.
func (s *Spec) ByStep(stepID string) []Binding {
	return s.filter(func(b Binding) bool { return b.Kind == TriggerStep && b.StepID == stepID })
}

// Periodic returns the periodic bindings.
func (s *Spec) Periodic() []Binding {
	return s.filter(func(b Binding) bool { return b.Kind == TriggerPeriodic })
}

// TimeoutsFor returns the step-timeout bindings armed when the given step
// begins.
func (s *Spec) TimeoutsFor(stepID string) []Binding {
	return s.filter(func(b Binding) bool { return b.Kind == TriggerStepTimeout && b.StepID == stepID })
}

func (s *Spec) filter(pred func(Binding) bool) []Binding {
	var out []Binding
	for _, b := range s.bindings {
		if pred(b) {
			out = append(out, b)
		}
	}
	return out
}

// Parse reads a specification document. The registry, when non-nil, is
// used to reject bindings referencing unknown checks.
func Parse(src string, registry *assertion.Registry) (*Spec, error) {
	spec := &Spec{}
	for i, raw := range strings.Split(src, "\n") {
		lineNo := i + 1
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		b, err := parseLine(line, lineNo)
		if err != nil {
			return nil, err
		}
		if registry != nil {
			if _, ok := registry.Lookup(b.CheckID); !ok {
				return nil, fmt.Errorf("assertspec: line %d: unknown check %q", lineNo, b.CheckID)
			}
		}
		spec.bindings = append(spec.bindings, b)
	}
	if len(spec.bindings) == 0 {
		return nil, fmt.Errorf("assertspec: no bindings in specification")
	}
	return spec, nil
}

// parseLine parses one binding line.
func parseLine(line string, lineNo int) (Binding, error) {
	fields := strings.Fields(line)
	fail := func(format string, args ...any) (Binding, error) {
		return Binding{}, fmt.Errorf("assertspec: line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}
	b := Binding{Line: lineNo}
	idx := 0
	next := func() (string, bool) {
		if idx >= len(fields) {
			return "", false
		}
		f := fields[idx]
		idx++
		return f, true
	}

	head, _ := next()
	switch head {
	case "on":
		b.Kind = TriggerStep
		step, ok := next()
		if !ok {
			return fail("expected step id after 'on'")
		}
		b.StepID = step
	case "every":
		b.Kind = TriggerPeriodic
		durStr, ok := next()
		if !ok {
			return fail("expected duration after 'every'")
		}
		d, err := time.ParseDuration(durStr)
		if err != nil || d <= 0 {
			return fail("invalid duration %q", durStr)
		}
		b.Every = d
	case "after":
		b.Kind = TriggerStepTimeout
		step, ok := next()
		if !ok {
			return fail("expected step id after 'after'")
		}
		b.StepID = step
		kw, ok := next()
		if !ok || kw != "timeout" {
			return fail("expected 'timeout' after the step id")
		}
	default:
		return fail("expected 'on', 'every' or 'after', got %q", head)
	}

	kw, ok := next()
	if !ok || kw != "assert" {
		return fail("expected 'assert'")
	}
	checkID, ok := next()
	if !ok {
		return fail("expected a check id after 'assert'")
	}
	b.CheckID = checkID

	for {
		kv, ok := next()
		if !ok {
			break
		}
		key, value, found := strings.Cut(kv, "=")
		if !found || key == "" {
			return fail("malformed parameter %q (want key=value)", kv)
		}
		if b.Params == nil {
			b.Params = assertion.Params{}
		}
		b.Params[key] = value
	}
	return b, nil
}

// Resolve substitutes {variable} placeholders in the binding's parameters
// from vars and merges them over base and then extra (either may be nil),
// into one map sized for all three. It reports ok=false when any
// placeholder stays unresolved — the binding should then be skipped.
func (b Binding) Resolve(base, extra assertion.Params, vars map[string]string) (assertion.Params, bool) {
	out := make(assertion.Params, len(base)+len(extra)+len(b.Params))
	for k, v := range base {
		out[k] = v
	}
	for k, v := range extra {
		out[k] = v
	}
	for k, v := range b.Params {
		resolved := v
		for name, val := range vars {
			resolved = strings.ReplaceAll(resolved, "{"+name+"}", val)
		}
		if strings.Contains(resolved, "{") {
			return nil, false
		}
		out[k] = resolved
	}
	return out, true
}

// DefaultSpecText is the rolling-upgrade assertion specification that
// reproduces the paper's experiment setup (§V.B): step-specific assertions
// after each stage, low-level configuration double checks, the high-level
// version assertion after each completion of the loop, a periodic capacity
// assertion, and one-off timers on the steps whose completion can stall
// silently.
const DefaultSpecText = `
# --- post-step assertions ------------------------------------------------
on step2 assert lc-exists
on step4 assert elb-reachable
on step7 assert asg-version-count want={progress}
on step7 assert instance-version instanceid={instanceid}
on step7 assert asg-uses-ami
on step7 assert asg-uses-keypair
on step7 assert asg-uses-sg
on step7 assert asg-uses-instance-type
on step8 assert asg-version-count want={n}
on step8 assert asg-instance-count want={n}
on step8 assert asg-uses-ami
on step8 assert asg-uses-keypair
on step8 assert asg-uses-sg
on step8 assert asg-uses-instance-type

# --- periodic capacity assertion (started/stopped with the process) ------
every 60s assert asg-instance-count want={min}

# --- one-off step timers --------------------------------------------------
after step5 timeout assert asg-version-count want={next}
after step6 timeout assert asg-version-count want={next}
`

// DefaultSpec parses DefaultSpecText against the default registry; it
// panics on error since the text is a compile-time constant covered by
// tests.
func DefaultSpec() *Spec {
	spec, err := Parse(DefaultSpecText, assertion.DefaultRegistry())
	if err != nil {
		panic("assertspec: default spec invalid: " + err.Error())
	}
	return spec
}
