package rest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/conformance"
	"poddiagnosis/internal/core"
	"poddiagnosis/internal/diagnosis"
	"poddiagnosis/internal/diagplan"
	"poddiagnosis/internal/federate"
	"poddiagnosis/internal/obs/flight"
	"poddiagnosis/internal/remediate"
)

// Client talks to a POD REST server.
type Client struct {
	base string
	http *http.Client
	clk  clock.Clock
}

// ClientOption tunes a Client.
type ClientOption func(*Client)

// WithClientClock injects the clock governing the retry backoff. The
// default is the wall clock; harnesses running under a scaled clock pass
// theirs so the backoff scales with the rest of the simulation.
func WithClientClock(clk clock.Clock) ClientOption {
	return func(c *Client) {
		if clk != nil {
			c.clk = clk
		}
	}
}

// NewClient returns a client for the server at base (e.g.
// "http://localhost:8077"). A nil httpClient uses a 30s-timeout default.
func NewClient(base string, httpClient *http.Client, opts ...ClientOption) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 30 * time.Second}
	}
	c := &Client{base: base, http: httpClient, clk: clock.Wall}
	for _, o := range opts {
		o(c)
	}
	return c
}

// CheckConformance posts one log line for token replay.
func (c *Client) CheckConformance(ctx context.Context, req ConformanceRequest) (conformance.Result, error) {
	var out conformance.Result
	err := c.post(ctx, "/conformance/check", req, &out)
	return out, err
}

// Evaluate runs one assertion evaluation.
func (c *Client) Evaluate(ctx context.Context, req EvaluateRequest) (assertion.Result, error) {
	var out assertion.Result
	err := c.post(ctx, "/assertions/evaluate", req, &out)
	return out, err
}

// Diagnose runs one diagnosis.
func (c *Client) Diagnose(ctx context.Context, req diagnosis.Request) (*diagnosis.Diagnosis, error) {
	var out diagnosis.Diagnosis
	if err := c.post(ctx, "/diagnosis", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Checks lists the registered assertion check ids.
func (c *Client) Checks(ctx context.Context) ([]string, error) {
	var out []string
	err := c.get(ctx, "/assertions/checks", &out)
	return out, err
}

// ConformanceStats holds the fitness summary of one trace.
type ConformanceStats struct {
	Events    int     `json:"events"`
	Fit       int     `json:"fit"`
	Fitness   float64 `json:"fitness"`
	Completed bool    `json:"completed"`
}

// Stats fetches the replay statistics of one trace.
func (c *Client) Stats(ctx context.Context, traceID string) (ConformanceStats, error) {
	var out ConformanceStats
	err := c.get(ctx, "/conformance/stats?trace="+traceID, &out)
	return out, err
}

// Instances lists the known process instance ids.
func (c *Client) Instances(ctx context.Context) ([]string, error) {
	var out []string
	err := c.get(ctx, "/conformance/instances", &out)
	return out, err
}

// Plans lists the diagnosis plans in the server's catalog.
func (c *Client) Plans(ctx context.Context) ([]PlanSummary, error) {
	var out []PlanSummary
	err := c.get(ctx, "/diagnosis/plans", &out)
	return out, err
}

// Plan fetches one diagnosis plan as its canonical JSON document.
func (c *Client) Plan(ctx context.Context, id string) (*diagplan.Plan, error) {
	var out diagplan.Plan
	if err := c.get(ctx, "/diagnosis/plans/"+url.PathEscape(id), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// PlanDOT fetches one diagnosis plan rendered as a Graphviz document.
func (c *Client) PlanDOT(ctx context.Context, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/diagnosis/plans/"+url.PathEscape(id)+"?format=dot", nil)
	if err != nil {
		return "", fmt.Errorf("rest client: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", fmt.Errorf("rest client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var eb ErrorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		return "", fmt.Errorf("rest client: GET plan dot: status %d: %s", resp.StatusCode, eb.Error)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("rest client: %w", err)
	}
	return string(data), nil
}

// Resilience fetches the diagnosis-test retry/breaker posture and the
// lossy-pipeline repair counters.
func (c *Client) Resilience(ctx context.Context) (ResilienceStatus, error) {
	var out ResilienceStatus
	err := c.get(ctx, "/diagnosis/resilience", &out)
	return out, err
}

// Healthy reports whether the server responds to the health check.
func (c *Client) Healthy(ctx context.Context) bool {
	var out map[string]string
	return c.get(ctx, "/healthz", &out) == nil
}

// Ready fetches the readiness status, including the per-operation backlog
// breakdown when the server has a manager attached.
func (c *Client) Ready(ctx context.Context) (ReadyStatus, error) {
	var out ReadyStatus
	err := c.get(ctx, "/readyz", &out)
	return out, err
}

// CreateOperation registers a new monitoring session with the server's
// manager and returns its summary.
func (c *Client) CreateOperation(ctx context.Context, req federate.WatchRequest) (core.SessionSummary, error) {
	var out core.SessionSummary
	err := c.post(ctx, "/operations", req, &out)
	return out, err
}

// Operations lists the manager's monitoring sessions.
func (c *Client) Operations(ctx context.Context) ([]core.SessionSummary, error) {
	var out []core.SessionSummary
	err := c.get(ctx, "/operations", &out)
	return out, err
}

// Operation fetches one monitoring session's summary.
func (c *Client) Operation(ctx context.Context, id string) (core.SessionSummary, error) {
	var out core.SessionSummary
	err := c.get(ctx, "/operations/"+url.PathEscape(id), &out)
	return out, err
}

// OperationDetections fetches the detections recorded by one session.
func (c *Client) OperationDetections(ctx context.Context, id string) ([]core.Detection, error) {
	var out []core.Detection
	err := c.get(ctx, "/operations/"+url.PathEscape(id)+"/detections", &out)
	return out, err
}

// OperationTimeline fetches one session's causal flight-recorder
// timeline, optionally restricted to the given event kinds.
func (c *Client) OperationTimeline(ctx context.Context, id string, kinds ...string) (flight.Timeline, error) {
	path := "/operations/" + url.PathEscape(id) + "/timeline"
	if len(kinds) > 0 {
		q := url.Values{"kind": kinds}
		path += "?" + q.Encode()
	}
	var out flight.Timeline
	err := c.get(ctx, path, &out)
	return out, err
}

// Remediations fetches the remediations admitted for one operation's
// confirmed causes (pending approvals, dry-run records, outcomes).
func (c *Client) Remediations(ctx context.Context, id string) ([]remediate.Remediation, error) {
	var out []remediate.Remediation
	err := c.get(ctx, "/operations/"+url.PathEscape(id)+"/remediations", &out)
	return out, err
}

// ApproveRemediation executes one pending (approve-mode) remediation and
// returns its resolved record.
func (c *Client) ApproveRemediation(ctx context.Context, id string) (remediate.Remediation, error) {
	var out remediate.Remediation
	err := c.post(ctx, "/remediations/"+url.PathEscape(id)+"/approve", struct{}{}, &out)
	return out, err
}

// RemoveOperation ends and deletes one monitoring session.
func (c *Client) RemoveOperation(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		c.base+"/operations/"+url.PathEscape(id), nil)
	if err != nil {
		return fmt.Errorf("rest client: %w", err)
	}
	return c.do(req, nil)
}

func (c *Client) post(ctx context.Context, path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("rest client: marshal: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("rest client: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return fmt.Errorf("rest client: %w", err)
	}
	return c.do(req, out)
}

// retryDelay is the single short backoff before an idempotent GET retry.
var retryDelay = 100 * time.Millisecond

func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.http.Do(req)
	if retryable(req, resp, err) {
		// Idempotent GETs retry exactly once after a short backoff: a
		// connection refused (server restarting) or a 5xx is routinely
		// transient, and a GET repeated carries no side effects. The
		// backoff runs on the injected clock — a scaled harness clock
		// compresses it with the rest of the simulation — and the
		// caller's context still governs the whole exchange.
		if resp != nil {
			resp.Body.Close()
		}
		if serr := c.clk.Sleep(req.Context(), retryDelay); serr != nil {
			return fmt.Errorf("rest client: %w", serr)
		}
		resp, err = c.http.Do(req.Clone(req.Context()))
	}
	if err != nil {
		return fmt.Errorf("rest client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var eb ErrorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		return fmt.Errorf("rest client: %s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, eb.Error)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("rest client: decode response: %w", err)
	}
	return nil
}

// retryable reports whether a first attempt is worth one retry: only GETs
// (idempotent, bodyless), and only on connection-level errors or 5xx.
func retryable(req *http.Request, resp *http.Response, err error) bool {
	if req.Method != http.MethodGet || req.Context().Err() != nil {
		return false
	}
	if err != nil {
		// Connection-level failure (refused, reset) — not a ctx timeout.
		return true
	}
	return resp.StatusCode >= 500
}
