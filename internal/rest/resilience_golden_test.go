package rest

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/consistentapi"
	"poddiagnosis/internal/diagnosis"
	"poddiagnosis/internal/diagplan"
	"poddiagnosis/internal/resilience"
	"poddiagnosis/internal/simaws"
)

// frozenClock never moves: a breaker's openedAt is its instant, and a
// back-off sleep returns at once.
type frozenClock struct{ at time.Time }

func (c frozenClock) Now() time.Time                                   { return c.at }
func (c frozenClock) Sleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }
func (c frozenClock) AfterFunc(time.Duration, func()) func() bool      { return func() bool { return true } }
func (c frozenClock) Since(t time.Time) time.Duration                  { return c.at.Sub(t) }

// TestDiagnosisResilienceGolden pins every byte GET /diagnosis/resilience
// and GET /diagnosis/config serve for a fresh engine, and the resilience
// body again once one test's breaker has opened: three failed attempts
// (two of them retries, charged to the budget) at a pinned instant.
func TestDiagnosisResilienceGolden(t *testing.T) {
	clk := frozenClock{at: time.Date(2013, 11, 19, 11, 48, 0, 0, time.UTC)}
	cloud := simaws.New(clk, simaws.FastProfile(), simaws.WithSeed(1))
	eval := assertion.NewEvaluator(consistentapi.New(cloud, consistentapi.Config{}), assertion.DefaultRegistry(), nil)
	engine := diagnosis.NewEngine(diagplan.DefaultCatalog(), eval, nil, diagnosis.Options{})
	srv := httptest.NewServer(NewServer(nil, eval, engine))
	defer srv.Close()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return string(body)
	}
	check := func(name, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}

	check("fresh /diagnosis/resilience", get("/diagnosis/resilience"),
		`{"executor":{"maxAttempts":3,"initialBackoff":200000000,"maxBackoff":5000000000,"failureThreshold":3,"cooldown":30000000000,"retryBudget":64,"budgetRemaining":64}}`+"\n")
	check("fresh /diagnosis/config", get("/diagnosis/config"),
		`{"maxTests":64,"sharedCacheTtl":"0s","sharedCache":{"size":0,"hits":0,"coalesced":0,"evaluations":0,"evictions":0,"ttl":0}}`+"\n")

	engine.Resilience().Do(context.Background(), assertion.CheckASGUsesAMI, func(context.Context) resilience.Verdict {
		return resilience.VerdictRetryable
	})
	check("open-breaker /diagnosis/resilience", get("/diagnosis/resilience"),
		`{"executor":{"maxAttempts":3,"initialBackoff":200000000,"maxBackoff":5000000000,"failureThreshold":3,"cooldown":30000000000,"retryBudget":64,"budgetRemaining":62,`+
			`"breakers":[{"key":"asg-uses-ami","state":"open","consecutiveFailures":3,"shortCircuited":0,"openedAt":"2013-11-19T11:48:00Z"}]}}`+"\n")
}
