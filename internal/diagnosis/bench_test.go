package diagnosis

import (
	"context"
	"fmt"
	"testing"
	"time"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/consistentapi"
	"poddiagnosis/internal/diagplan"
	"poddiagnosis/internal/simaws"
)

// benchScale compresses the simulated diagnosis-test latency; at 100x the
// 200ms-sim slow check costs 2ms of wall clock, so the tests a walk runs
// (rather than its bookkeeping) dominate the measurement.
const benchScale = 100

// benchWorkload builds a wide multi-plan workload: plans× leaves
// root-cause candidates, each guarded by a slow passing check with
// distinct params (so no two tests share a cache key).
func benchWorkload(plans, leaves int) []*diagplan.Plan {
	out := make([]*diagplan.Plan, plans)
	for ti := 0; ti < plans; ti++ {
		top := &diagplan.Node{ID: fmt.Sprintf("bench-%d-top", ti), Kind: diagplan.KindEntry, Description: "top"}
		p := &diagplan.Plan{ID: fmt.Sprintf("bench-%d", ti), AssertionID: "bench-assert", Description: "top", Entry: top.ID, Nodes: []*diagplan.Node{top}}
		for li := 0; li < leaves; li++ {
			id := fmt.Sprintf("t%d-leaf-%d", ti, li)
			top.Edges = append(top.Edges, diagplan.Edge{To: id, Prob: float64(leaves - li)})
			p.Nodes = append(p.Nodes, &diagplan.Node{
				ID:          id,
				Kind:        diagplan.KindCause,
				Description: fmt.Sprintf("candidate fault %d of plan %d", li, ti),
				CheckID:     "slow-pass",
				CheckParams: assertion.Params{"which": fmt.Sprintf("t%d-l%d", ti, li)},
			})
		}
		out[ti] = p
	}
	return out
}

func newBenchEngine(b *testing.B, profile simaws.Profile, plans []*diagplan.Plan) *Engine {
	b.Helper()
	clk := clock.NewScaled(benchScale, time.Date(2013, 11, 19, 11, 48, 0, 0, time.UTC))
	cloud := simaws.New(clk, profile, simaws.WithSeed(7))
	client := consistentapi.New(cloud, consistentapi.Config{MaxAttempts: 1, CallTimeout: time.Minute})
	reg := assertion.NewRegistry()
	reg.Register(assertion.Check{
		ID: "slow-pass", Description: "slow diagnostic check",
		Eval: func(ctx context.Context, c *consistentapi.Client, p assertion.Params) assertion.Result {
			_ = c.Clock().Sleep(ctx, 200*time.Millisecond)
			return assertion.Result{CheckID: "slow-pass", Status: assertion.StatusPass, Params: p, Message: "ok"}
		},
	})
	cat := diagplan.NewCatalog()
	for _, p := range plans {
		cat.MustRegister(p)
	}
	return NewEngine(cat, assertion.NewEvaluator(client, reg, nil), nil, Options{})
}

// BenchmarkDiagnose walks the wide workload: 24 slow tests, one at a time.
// Under FastProfile the cloud has no consistency window, so every run
// evaluates every test; under a profile with a window, back-to-back runs
// answer the tests from the shared cache.
func BenchmarkDiagnose(b *testing.B) {
	stale := simaws.FastProfile()
	stale.StaleProb = 0.05
	stale.StaleLag = clock.Fixed(10 * time.Second)
	for _, bc := range []struct {
		name    string
		profile simaws.Profile
	}{
		{"fast", simaws.FastProfile()},
		{"stale", stale},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e := newBenchEngine(b, bc.profile, benchWorkload(3, 8))
			req := Request{AssertionID: "bench-assert", Source: SourceAssertion, Params: assertion.Params{}}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := e.Diagnose(ctx, req)
				if d.Conclusion != ConclusionNone {
					b.Fatalf("unexpected conclusion %s", d.Conclusion)
				}
			}
		})
	}
}
