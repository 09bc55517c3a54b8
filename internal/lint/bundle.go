package lint

import (
	"fmt"
	"sort"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/assertspec"
	"poddiagnosis/internal/diagplan"
	"poddiagnosis/internal/process"
)

// NamedSpec labels an assertion specification for finding positions.
type NamedSpec struct {
	// Name labels the spec in findings, e.g. "default-spec".
	Name string
	// Spec is the parsed specification.
	Spec *assertspec.Spec
}

// Bundle is one operation's complete artifact set: the process model, the
// assertion specifications bound to it, the diagnosis-plan catalog consulted
// when those assertions fail, and the check registry everything references.
// Plans and Registry are typically shared between bundles (the deployment
// runs one diagnosis engine for all operations).
type Bundle struct {
	// Name labels the bundle in findings.
	Name string
	// Model is the operation's process model.
	Model *process.Model
	// Specs are the assertion specifications triggered from the model.
	Specs []NamedSpec
	// Plans is the diagnosis-plan catalog.
	Plans *diagplan.Catalog
	// Registry is the assertion check registry.
	Registry *assertion.Registry
}

// LintBundles cross-validates a set of operation bundles: each model, spec
// and plan individually, the per-bundle trigger chain (XC001, XC002), and —
// because diagnosis plans are shared between operations — plan
// triggerability (XC003) against the union of every bundle's
// specifications. Shared catalogs are linted once.
func LintBundles(bundles ...Bundle) []Finding {
	var fs []Finding
	seenCat := make(map[*diagplan.Catalog]bool)
	allBound := make(map[string]bool) // checks bound by any spec of any bundle

	for _, b := range bundles {
		for _, ns := range b.Specs {
			for _, bind := range ns.Spec.Bindings() {
				allBound[bind.CheckID] = true
			}
		}
	}

	for _, b := range bundles {
		if b.Model != nil {
			fs = append(fs, LintModel(b.Model)...)
		}
		bound := make(map[string]bool)
		for _, ns := range b.Specs {
			fs = append(fs, LintSpec(ns.Name, ns.Spec, b.Model, b.Registry)...)
			for _, bind := range ns.Spec.Bindings() {
				bound[bind.CheckID] = true
			}
		}

		// XC001: each process step should have at least one assertion —
		// post-step, or a timeout timer armed on the step. A bare step is
		// a gap in the paper's detection chain: only conformance checking
		// watches it.
		if b.Model != nil {
			for _, n := range b.Model.Activities() {
				if n.StepID == "" {
					continue
				}
				covered := false
				for _, ns := range b.Specs {
					if len(ns.Spec.ByStep(n.StepID)) > 0 || len(ns.Spec.TimeoutsFor(n.StepID)) > 0 {
						covered = true
						break
					}
				}
				if !covered {
					fs = append(fs, finding(RuleCoverageStepNoAssertion, modelPos(b.Model.ID(), n.ID),
						"step %s (%s) has no assertion bound", n.StepID, n.Name))
				}
			}
		}

		// XC002: every spec-bound assertion needs a diagnosis plan, or its
		// failure is detected but undiagnosable.
		if b.Plans != nil {
			for _, checkID := range sortedKeys(bound) {
				if len(b.Plans.Select(checkID)) == 0 {
					fs = append(fs, finding(RuleCoverageAssertionNoTree, fmt.Sprintf("bundle:%s/check:%s", b.Name, checkID),
						"assertion %q is bound by a specification but has no diagnosis plan", checkID))
				}
			}
		}

		if b.Plans != nil && !seenCat[b.Plans] {
			seenCat[b.Plans] = true
			for _, p := range b.Plans.All() {
				fs = append(fs, LintPlan(p, b.Registry)...)
				// XC003: a plan whose assertion no specification binds can
				// only fire through on-demand diagnosis; in the normal
				// trigger chain it is dead weight.
				if !allBound[p.AssertionID] {
					fs = append(fs, finding(RuleCoverageTreeNeverTrigger, planPos(p.ID, ""),
						"assertion %q is bound by no specification; the plan never fires from monitoring", p.AssertionID))
				}
			}
		}
	}
	Sort(fs)
	return fs
}

// Builtins returns the bundles every shipped binary deploys: the built-in
// operations over the default registry and the full diagnosis-plan catalog
// (the rolling-upgrade plans plus the scenario plans).
// cmd/podlint lints these by default, and the regression tests pin them to
// zero errors.
func Builtins() ([]Bundle, error) {
	reg := assertion.DefaultRegistry()
	cat := diagplan.FullCatalog()
	soSpec, err := assertspec.Parse(process.ScaleOutSpecText, reg)
	if err != nil {
		return nil, fmt.Errorf("lint: parse scale-out spec: %w", err)
	}
	bgSpec, err := assertspec.Parse(process.BlueGreenSpecText, reg)
	if err != nil {
		return nil, fmt.Errorf("lint: parse blue/green spec: %w", err)
	}
	ssSpec, err := assertspec.Parse(process.SpotRebalanceSpecText, reg)
	if err != nil {
		return nil, fmt.Errorf("lint: parse spot-rebalance spec: %w", err)
	}
	return []Bundle{
		{
			Name:     "rolling-upgrade",
			Model:    process.RollingUpgradeModel(),
			Specs:    []NamedSpec{{Name: "default-spec", Spec: assertspec.DefaultSpec()}},
			Plans:    cat,
			Registry: reg,
		},
		{
			Name:     "scale-out",
			Model:    process.ScaleOutModel(),
			Specs:    []NamedSpec{{Name: "scale-out-spec", Spec: soSpec}},
			Plans:    cat,
			Registry: reg,
		},
		{
			Name:     "blue-green",
			Model:    process.BlueGreenModel(),
			Specs:    []NamedSpec{{Name: "blue-green-spec", Spec: bgSpec}},
			Plans:    cat,
			Registry: reg,
		},
		{
			Name:     "spot-rebalance",
			Model:    process.SpotRebalanceModel(),
			Specs:    []NamedSpec{{Name: "spot-rebalance-spec", Spec: ssSpec}},
			Plans:    cat,
			Registry: reg,
		},
	}, nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
