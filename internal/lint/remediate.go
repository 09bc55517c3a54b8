package lint

import (
	"fmt"
	"sort"

	"poddiagnosis/internal/diagplan"
	"poddiagnosis/internal/remediate"
)

// LintRemediation cross-validates a remediation catalog against the
// diagnosis-plan catalog whose confirmed causes trigger it. The policy
// decides which actions count as auto-mode: an auto action that binds a
// cause no plan defines is an error (RM001) — it claims unattended repair
// authority over a fault that can never be diagnosed, which is either a
// typo in the binding or a plan that was renamed out from under it.
// coverPlanIDs names the plans whose every cause must be actionable: each
// of their cause nodes either binds at least one action or carries an
// explicit MarkManual marker, or RM002 fires. A manual marker matching no
// cause in any plan is stale (RM003, warning).
func LintRemediation(cat *remediate.Catalog, policy remediate.Policy, plans *diagplan.Catalog, coverPlanIDs []string) []Finding {
	var fs []Finding
	if cat == nil || plans == nil {
		return nil
	}

	// Every concrete cause node id across the whole plan catalog.
	allCauses := make(map[string]bool)
	for _, c := range plans.Compiled("") {
		for _, n := range planCauses(c) {
			allCauses[n.ID] = true
		}
	}
	matchesAny := func(base string) bool {
		for id := range allCauses {
			if remediate.Matches(id, base) {
				return true
			}
		}
		return false
	}

	// RM001: auto-mode action bound to a cause absent from every plan.
	for _, a := range cat.Actions() {
		if policy.ModeFor(a.Class) != remediate.ModeAuto {
			continue
		}
		for _, base := range a.Causes {
			if !matchesAny(base) {
				fs = append(fs, finding(RuleRemediateDanglingCause, remediatePos(a.Name, base),
					"auto-mode action %q binds cause %q, which no diagnosis plan defines", a.Name, base))
			}
		}
	}

	// RM002: cause in a coverage plan with neither an action binding nor a
	// manual marker. The rolling-upgrade knowledge base is the paper's
	// core scenario, so its causes may not silently fall outside the
	// remediation surface.
	cover := make(map[string]bool, len(coverPlanIDs))
	for _, id := range coverPlanIDs {
		cover[id] = true
	}
	for _, c := range plans.Compiled("") {
		if !cover[c.Plan.ID] {
			continue
		}
		for _, n := range planCauses(c) {
			if len(cat.BindingsFor(n.ID)) > 0 {
				continue
			}
			if _, ok := cat.ManualReason(n.ID); ok {
				continue
			}
			fs = append(fs, finding(RuleRemediateUncovered, planPos(c.Plan.ID, n.ID),
				"cause %q binds no remediation action and carries no manual marker", n.ID))
		}
	}

	// RM003: manual marker whose base matches no cause anywhere — the
	// cause it once excused was renamed or removed.
	manual := cat.Manual()
	bases := make([]string, 0, len(manual))
	for base := range manual {
		bases = append(bases, base)
	}
	sort.Strings(bases)
	for _, base := range bases {
		if !matchesAny(base) {
			fs = append(fs, finding(RuleRemediateStaleManual, remediatePos("manual", base),
				"manual marker for cause %q matches no diagnosis-plan cause", base))
		}
	}

	Sort(fs)
	return fs
}

// planCauses returns the distinct causes the plan's entry reaches, unpruned,
// in visit order.
func planCauses(c *diagplan.Compiled) []*diagplan.VNode {
	if entry := c.View("", false).Entry; entry != nil {
		return entry.CausesUnder
	}
	return nil
}

// remediatePos renders the locus of a remediation finding.
func remediatePos(action, cause string) string {
	return fmt.Sprintf("remediate:%s/cause:%s", action, cause)
}

// BuiltinRemediation lints the shipped remediation surface: the default
// action catalog under the most permissive suggested policy (auto base —
// so RM001 covers every class that could ever run unattended) against the
// full diagnosis-plan catalog, with the rolling-upgrade plans
// (diagplan.DefaultCatalog) as the coverage set. cmd/podlint runs this with
// the builtin bundles, and the regression tests pin it to zero findings.
func BuiltinRemediation() []Finding {
	var cover []string
	for _, p := range diagplan.DefaultCatalog().All() {
		cover = append(cover, p.ID)
	}
	return LintRemediation(remediate.DefaultCatalog(), remediate.SuggestedPolicy(remediate.ModeAuto), diagplan.FullCatalog(), cover)
}
