package diagplan

import "testing"

// Satellite 3: malformed, truncated, or cyclic plan documents must never
// panic the loader — Parse either returns a valid plan or an error.
func FuzzParse(f *testing.F) {
	for _, src := range ScenarioPlanSources() {
		f.Add(src)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"id":"p","entry":"e","nodes":[]}`))
	f.Add([]byte(`{"id":"p","entry":"a","nodes":[{"id":"a","kind":"entry","edges":[{"to":"b","prob":1}]},{"id":"b","kind":"collector","edges":[{"to":"a","prob":1}]}]}`))
	f.Add([]byte(`{"id":"p","entry":"a","nodes":[{"id":"a","kind":"entry"},{"id":"a","kind":"cause"}]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))
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
		for _, n := range p.Nodes {
			_ = p.Children(n)
			_ = p.Parents(n.ID)
			_ = p.PathTo(n.ID)
			_ = p.CausesUnder(n.ID)
		}
		_ = p.PotentialRootCauses()
		_ = p.Prune("step1")
		_ = p.Instantiate(nil)
		if err := NewCatalog().Register(p); err != nil {
			t.Fatalf("valid plan refused by Register: %v", err)
		}
	})
}
