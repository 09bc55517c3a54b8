package rest

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/consistentapi"
	"poddiagnosis/internal/diagnosis"
	"poddiagnosis/internal/diagplan"
	"poddiagnosis/internal/simaws"
)

// TestPlanSurfaceGolden pins every byte the plan endpoints serve: the
// GET /diagnosis/plans listing and, for each plan, the bare, ?format=json
// and ?format=dot bodies, for the default and the full catalog. Each digest
// covers status, content type and a sha256 of the body per request, in a
// fixed order; on a mismatch the per-request lines are logged.
func TestPlanSurfaceGolden(t *testing.T) {
	want := map[string]string{
		"default": "ba22f095dd9f55fdf9cd1d1854c38656de14e267e25772ae797412965fa95b22",
		"full":    "6aa5af9dfbcc55ec2b37ff1e4ca1a387294481aae81b744f6156d1a96f8acbfc",
	}
	cloud := simaws.New(clock.NewScaled(1000, time.Unix(0, 0)), simaws.FastProfile(), simaws.WithSeed(1))
	eval := assertion.NewEvaluator(consistentapi.New(cloud, consistentapi.Config{}), assertion.DefaultRegistry(), nil)
	for name, cat := range map[string]*diagplan.Catalog{"default": diagplan.DefaultCatalog(), "full": diagplan.FullCatalog()} {
		srv := httptest.NewServer(NewServer(nil, eval, diagnosis.NewEngine(cat, eval, nil, diagnosis.Options{})))
		paths := []string{"/diagnosis/plans", "/diagnosis/plans/no-such-plan"}
		for _, p := range cat.All() {
			for _, q := range []string{"", "?format=json", "?format=dot"} {
				paths = append(paths, "/diagnosis/plans/"+p.ID+q)
			}
		}
		var lines strings.Builder
		for _, path := range paths {
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(body)
			fmt.Fprintf(&lines, "%s %d %s %s\n", path, resp.StatusCode, resp.Header.Get("Content-Type"), hex.EncodeToString(sum[:]))
		}
		srv.Close()
		sum := sha256.Sum256([]byte(lines.String()))
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s catalog: digest %q, want %q; per request:\n%s", name, got, want[name], lines.String())
		}
	}
}
