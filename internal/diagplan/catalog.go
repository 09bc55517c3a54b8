package diagplan

import (
	"fmt"
	"sort"

	"poddiagnosis/internal/assertion"
)

// Catalog holds diagnosis plans, keyed by plan id and by assertion id.
// Several plans may serve one assertion; the diagnosis engine consults them
// all, in registration order. Registering a plan compiles it (see Compiled)
// without writing to it: a registered plan must not be modified afterwards,
// and may be registered in many catalogs concurrently.
type Catalog struct {
	byID        map[string]*Compiled
	byAssertion map[string][]*Compiled // in registration order
	sorted      []*Compiled            // every plan, by plan id
	nodes       int                    // nodes across all plans: the next VNode.Index
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		byID:        make(map[string]*Compiled),
		byAssertion: make(map[string][]*Compiled),
	}
}

// Register adds a plan and compiles its walk form. Plan ids are the
// catalog key and must be unique; node ids within the plan must be non-empty
// and unique, or the plan cannot be compiled.
func (c *Catalog) Register(p *Plan) error {
	if p == nil || p.ID == "" {
		return fmt.Errorf("diagplan: cannot register a plan without an id")
	}
	if _, dup := c.byID[p.ID]; dup {
		return fmt.Errorf("diagplan: duplicate plan id %q", p.ID)
	}
	cp, err := compile(p, c.nodes)
	if err != nil {
		return err
	}
	c.nodes += len(p.Nodes)
	c.byID[p.ID] = cp
	c.byAssertion[p.AssertionID] = append(c.byAssertion[p.AssertionID], cp)
	at := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i].Plan.ID > p.ID })
	c.sorted = append(c.sorted, nil)
	copy(c.sorted[at+1:], c.sorted[at:])
	c.sorted[at] = cp
	return nil
}

// MustRegister registers a plan and panics on error; built-in catalogs
// use it because a failure there is a programming bug.
func (c *Catalog) MustRegister(p *Plan) {
	if err := c.Register(p); err != nil {
		panic(err)
	}
}

// Get returns the compiled plan with the given id, or nil.
func (c *Catalog) Get(id string) *Compiled { return c.byID[id] }

// Select returns the plans for the given assertion id.
func (c *Catalog) Select(assertionID string) []*Plan {
	return plansOf(c.byAssertion[assertionID])
}

func plansOf(cs []*Compiled) []*Plan {
	var out []*Plan
	for _, c := range cs {
		out = append(out, c.Plan)
	}
	return out
}

// Compiled returns the walk forms of the plans a diagnosis triggered by
// assertionID consults: those Select returns, in the same order, or — for
// an empty assertionID — every plan, sorted by plan id like All. NodeCount
// bounds the VNode.Index values found in them. The slice is shared; callers
// must not modify it.
func (c *Catalog) Compiled(assertionID string) []*Compiled {
	if assertionID == "" {
		return c.sorted
	}
	return c.byAssertion[assertionID]
}

// NodeCount returns the number of nodes across all registered plans.
func (c *Catalog) NodeCount() int { return c.nodes }

// All returns every registered plan, sorted by plan id for deterministic
// unscoped diagnoses.
func (c *Catalog) All() []*Plan { return plansOf(c.sorted) }

// Validate validates every plan in the catalog against the registry, in
// plan id order, on the id index its compilation built.
func (c *Catalog) Validate(reg *assertion.Registry) error {
	for _, cp := range c.sorted {
		if err := cp.Plan.validate(cp.shape.index, reg); err != nil {
			return err
		}
	}
	return nil
}
