package diagplan_test

import (
	"testing"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/diagplan"
)

// catalogSetUpAllocBudget bounds the allocations of building the full
// catalog and validating it, what every NewManager pays: 824 measured when
// registration still cached an id index on each plan.
const catalogSetUpAllocBudget = 824

func TestCatalogSetUpAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	reg := assertion.DefaultRegistry()
	diagplan.FullCatalog() // parse the shipped documents once per process
	got := testing.AllocsPerRun(200, func() {
		if err := diagplan.FullCatalog().Validate(reg); err != nil {
			panic(err)
		}
	})
	t.Logf("FullCatalog + Validate: %.0f allocs", got)
	if got > catalogSetUpAllocBudget {
		t.Errorf("FullCatalog + Validate allocates %.0f, budget %d", got, catalogSetUpAllocBudget)
	}
}
