package diagplan

import (
	"os"
	"path/filepath"
	"testing"

	"poddiagnosis/internal/assertion"
)

// Malformed, truncated, or cyclic plan documents must never panic the
// loader — Parse either returns a valid plan or an error — and a parsed plan
// must register and be readable the way a diagnosis reads it: every view,
// every node's description and test parameters.
func FuzzParse(f *testing.F) {
	for _, src := range Sources() {
		f.Add(src)
	}
	examples, err := filepath.Glob("../../examples/plans/*.json")
	if err != nil || len(examples) == 0 {
		f.Fatalf("example plans: %v (%d found)", err, len(examples))
	}
	for _, path := range examples {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"id":"p","entry":"e","nodes":[]}`))
	f.Add([]byte(`{"id":"p","entry":"a","nodes":[{"id":"a","kind":"entry","edges":[{"to":"b","prob":1}]},{"id":"b","kind":"collector","edges":[{"to":"a","prob":1}]}]}`))
	f.Add([]byte(`{"id":"p","entry":"a","nodes":[{"id":"a","kind":"entry"},{"id":"a","kind":"cause"}]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))
	params := assertion.Params{assertion.ParamASG: "pm--asg", assertion.ParamWant: "{asgid}", "": "empty"}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			return
		}
		// A successfully parsed plan must be safe to exercise.
		if err := p.Validate(nil); err != nil {
			t.Fatalf("Parse returned plan failing Validate: %v", err)
		}
		_, _ = p.Render()
		_ = p.DOT()
		_ = p.Instantiate(nil).Prune("step1")
		cat := NewCatalog()
		if err := cat.Register(p); err != nil {
			t.Fatalf("valid plan refused by Register: %v", err)
		}
		c := cat.Get(p.ID)
		steps := []string{"", "a-step-nobody-names"}
		for _, n := range p.Nodes {
			steps = append(steps, n.Steps...)
		}
		for _, step := range steps {
			for _, prune := range []bool{true, false} {
				v := c.View(step, prune)
				if v.Entry == nil {
					t.Fatalf("step %q prune=%t: a valid plan's entry does not resolve", step, prune)
				}
				for _, n := range p.Nodes {
					if vn := v.Node(n.ID); vn != nil {
						_, _ = vn.Description(nil), vn.Description(params)
						_, _ = vn.TestParams(nil), vn.TestParams(params)
					}
				}
			}
		}
	})
}
