package diagplan

import (
	"embed"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
)

// shippedFS embeds the shipped plan documents. Shipping them as JSON (not
// Go builders) keeps the production load path identical to the
// operator-authored one: parse, validate, walk.
//
//go:embed plans/*.json
var shippedFS embed.FS

// upgradePrefix starts the file names of the rolling-upgrade plans; every
// other shipped document is a scenario plan.
const upgradePrefix = "ft-"

// shippedPlans is the embedded catalog. Its plans are shared by every
// catalog built from them and must not be modified.
type shippedPlans struct {
	upgrade, scenarios []*Plan           // each sorted by plan id
	sources            map[string][]byte // raw documents by file name
}

// shipped parses the embedded documents once per process. A broken
// shipped plan is a build defect, so errors panic.
var shipped = sync.OnceValue(func() *shippedPlans {
	entries, err := shippedFS.ReadDir("plans")
	if err != nil {
		panic(fmt.Sprintf("diagplan: embedded plans: %v", err))
	}
	s := &shippedPlans{sources: make(map[string][]byte, len(entries))}
	for _, e := range entries {
		data, err := shippedFS.ReadFile("plans/" + e.Name())
		var p *Plan
		if err == nil {
			p, err = Parse(data)
		}
		if err != nil {
			panic(fmt.Sprintf("diagplan: embedded plan %s: %v", e.Name(), err))
		}
		s.sources[e.Name()] = data
		if strings.HasPrefix(e.Name(), upgradePrefix) {
			s.upgrade = append(s.upgrade, p)
		} else {
			s.scenarios = append(s.scenarios, p)
		}
	}
	for _, ps := range [][]*Plan{s.upgrade, s.scenarios} {
		sort.Slice(ps, func(i, j int) bool { return ps[i].ID < ps[j].ID })
	}
	return s
})

// DefaultCatalog returns a new catalog of the rolling-upgrade plans: the
// paper's Figure 5 fault trees, one per assertion the POD engine attaches
// to the process, with the account-limit root cause of the §VI.A
// amendment.
func DefaultCatalog() *Catalog {
	c := NewCatalog()
	for _, p := range shipped().upgrade {
		c.MustRegister(p)
	}
	return c
}

// FullCatalog extends DefaultCatalog with the scenario plans (blue/green
// deploy, spot rebalance), registered after the rolling-upgrade plans so
// Select lists those first. Scenario plan nodes are scoped to
// bgstepN/ssstepN contexts, so rolling-upgrade diagnoses prune them away
// and vice versa.
func FullCatalog() *Catalog {
	c := DefaultCatalog()
	for _, p := range shipped().scenarios {
		c.MustRegister(p)
	}
	return c
}

// Sources returns the raw shipped documents keyed by file name, for the
// round-trip tests and podlint's self-check. The bytes must not be modified.
func Sources() map[string][]byte { return maps.Clone(shipped().sources) }
