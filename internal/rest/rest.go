// Package rest exposes Conformance Checking, Assertion Evaluation and
// Error Diagnosis as RESTful web services, mirroring the paper's RESTlet
// deployment (§IV): the process model is provided to the services
// up-front; the local log agent posts one message per event containing the
// process model id, the trace id, and the whole log line.
package rest

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"poddiagnosis/internal/assertion"
	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/conformance"
	"poddiagnosis/internal/core"
	"poddiagnosis/internal/diagnosis"
	"poddiagnosis/internal/federate"
	"poddiagnosis/internal/obs"
	"poddiagnosis/internal/pipeline"
	"poddiagnosis/internal/resilience"
)

// HTTP serving metrics, labelled by logical route name (not raw path, to
// keep cardinality bounded).
var (
	mRequests = obs.Default.CounterVec("pod_http_requests_total",
		"HTTP requests by route and status class.", "route", "class")
	mRequestLatency = obs.Default.HistogramVec("pod_http_request_seconds",
		"HTTP request handling latency by route.", nil, "route")
)

// ConformanceRequest is the body of POST /conformance/check.
type ConformanceRequest struct {
	// ModelID names the process model (informational; the server is
	// bound to one model at construction, as in the paper).
	ModelID string `json:"modelId,omitempty"`
	// TraceID is the process instance id.
	TraceID string `json:"traceId"`
	// Line is the raw log line.
	Line string `json:"line"`
	// Timestamp is the event time (optional).
	Timestamp time.Time `json:"timestamp,omitempty"`
}

// EvaluateRequest is the body of POST /assertions/evaluate.
type EvaluateRequest struct {
	// CheckID names the assertion to evaluate.
	CheckID string `json:"checkId"`
	// Params are the evaluation parameters.
	Params assertion.Params `json:"params"`
	// Trigger carries the process context.
	Trigger assertion.Trigger `json:"trigger"`
}

// ErrorBody is the JSON error envelope.
type ErrorBody struct {
	// Error is the message.
	Error string `json:"error"`
}

// ReadyStatus is the body of GET /readyz.
type ReadyStatus struct {
	// Ready reports whether the deployment can take traffic.
	Ready bool `json:"ready"`
	// QueueDepth is the monitoring engine's backlog (queued evaluations,
	// diagnoses and undrained log events); zero means drained.
	QueueDepth int `json:"queueDepth"`
	// PerOperation breaks the backlog down by monitoring session (queued
	// plus in-flight work per operation) when a manager is attached.
	PerOperation map[string]int `json:"perOperation,omitempty"`
	// Detail is free-form context, e.g. per-queue depths.
	Detail string `json:"detail,omitempty"`
}

// Option customizes a Server.
type Option func(*Server)

// WithReady installs the readiness probe backing GET /readyz. WithManager
// installs one over the manager's backlog; without either, /readyz always
// reports ready with depth 0.
func WithReady(fn func() ReadyStatus) Option {
	return func(s *Server) { s.ready = fn }
}

// WithObservability overrides the metrics registry and tracer served by
// GET /metrics and GET /traces (default: obs.Default, obs.DefaultTracer).
func WithObservability(reg *obs.Registry, tracer *obs.Tracer) Option {
	return func(s *Server) { s.reg, s.tracer = reg, tracer }
}

// WithManager attaches a core.Manager, enabling the /operations endpoints
// (register, list, inspect, fetch detections, remove). Unless WithReady
// overrides it, GET /readyz then aggregates the manager's backlog with a
// per-operation breakdown.
func WithManager(m *core.Manager) Option {
	return func(s *Server) { s.mgr = m }
}

// Server hosts the three POD services over one model.
type Server struct {
	checker *conformance.Checker
	eval    *assertion.Evaluator
	diag    *diagnosis.Engine
	mgr     *core.Manager
	front   *federate.Front
	ops     operations
	mux     *http.ServeMux
	reg     *obs.Registry
	tracer  *obs.Tracer
	ready   func() ReadyStatus
}

var _ http.Handler = (*Server)(nil)

// NewServer builds a Server. Any of the components may be nil; their
// endpoints then return 503.
func NewServer(checker *conformance.Checker, eval *assertion.Evaluator, diag *diagnosis.Engine, opts ...Option) *Server {
	s := &Server{
		checker: checker, eval: eval, diag: diag,
		mux:    http.NewServeMux(),
		reg:    obs.Default,
		tracer: obs.DefaultTracer,
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.ready == nil && s.mgr != nil {
		s.ready = managerReady(s.mgr)
	}
	switch {
	case s.front != nil:
		s.ops = s.front
	case s.mgr != nil:
		s.ops = newLocalOperations(s.mgr)
	}
	s.route("POST /conformance/check", "conformance_check", s.handleConformance)
	s.route("POST /operations", "operations_create", s.handleOperationCreate)
	s.route("GET /operations", "operations_list", s.handleOperationList)
	s.route("GET /operations/{id}", "operations_get", s.handleOperationGet)
	s.route("GET /operations/{id}/detections", "operations_detections", s.handleOperationDetections)
	s.route("GET /operations/{id}/timeline", "operations_timeline", s.handleOperationTimeline)
	s.route("GET /operations/{id}/remediations", "operations_remediations", s.handleOperationRemediations)
	s.route("POST /remediations/{id}/approve", "remediations_approve", s.handleRemediationApprove)
	s.route("DELETE /operations/{id}", "operations_delete", s.handleOperationDelete)
	s.route("GET /operations/{id}/export", "operations_export", s.handleOperationExport)
	s.route("POST /operations/restore", "operations_restore", s.handleOperationRestore)
	s.route("POST /federation/join", "federation_join", s.frontOnly(s.handleFederationJoin))
	s.route("POST /federation/renew", "federation_renew", s.frontOnly(s.handleFederationRenew))
	s.route("GET /federation/members", "federation_members", s.frontOnly(s.handleFederationMembers))
	s.route("GET /federation/route/{id}", "federation_route", s.frontOnly(s.handleFederationRoute))
	s.route("GET /conformance/instances", "conformance_instances", s.handleInstances)
	s.route("GET /conformance/stats", "conformance_stats", s.handleStats)
	s.route("POST /assertions/evaluate", "assertions_evaluate", s.handleEvaluate)
	s.route("GET /assertions/checks", "assertions_checks", s.handleChecks)
	s.route("POST /diagnosis", "diagnosis", s.handleDiagnose)
	s.route("GET /diagnosis/config", "diagnosis_config", s.handleDiagnosisConfig)
	s.route("GET /diagnosis/resilience", "diagnosis_resilience", s.handleDiagnosisResilience)
	s.route("GET /diagnosis/plans", "diagnosis_plans", s.handlePlans)
	s.route("GET /diagnosis/plans/{id}", "diagnosis_plan_get", s.handlePlanGet)
	s.route("GET /model", "model", s.handleModel)
	s.route("GET /healthz", "healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.route("GET /readyz", "readyz", s.handleReady)
	s.route("GET /metrics", "metrics", obs.MetricsHandler(s.reg).ServeHTTP)
	s.route("GET /traces", "traces", obs.TracesHandler(s.tracer).ServeHTTP)
	// Catch-all so unknown paths get the JSON error envelope instead of
	// the mux's plain-text 404.
	s.route("/", "not_found", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such endpoint: %s %s", r.Method, r.URL.Path))
	})
	return s
}

// route registers pattern with the serving middleware: a span per
// request, a status-class counter and a latency histogram, all labelled
// with the logical route name.
func (s *Server) route(pattern, name string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := clock.Wall.Now()
		ctx, span := s.tracer.StartSpan(r.Context(), "http."+name)
		span.SetAttr("method", r.Method)
		span.SetAttr("path", r.URL.Path)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r.WithContext(ctx))
		span.SetAttr("status", fmt.Sprintf("%d", sw.status))
		span.End()
		mRequests.With(name, statusClass(sw.status)).Inc()
		mRequestLatency.With(name).Observe(clock.Wall.Since(start).Seconds())
	})
}

// statusWriter captures the response status for metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(status int) {
	if !w.wrote {
		w.status = status
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// statusClass buckets a status code as "2xx", "4xx", ...
func statusClass(status int) string {
	switch {
	case status >= 500:
		return "5xx"
	case status >= 400:
		return "4xx"
	case status >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	st := ReadyStatus{Ready: true}
	if s.ready != nil {
		st = s.ready()
	}
	status := http.StatusOK
	if !st.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, st)
}

func (s *Server) handleConformance(w http.ResponseWriter, r *http.Request) {
	if s.checker == nil {
		writeErr(w, http.StatusServiceUnavailable, errors.New("conformance checking not configured"))
		return
	}
	var req ConformanceRequest
	if err := decode(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.TraceID == "" || req.Line == "" {
		writeErr(w, http.StatusBadRequest, errors.New("traceId and line are required"))
		return
	}
	ts := req.Timestamp
	if ts.IsZero() {
		ts = clock.Wall.Now()
	}
	writeJSON(w, http.StatusOK, s.checker.Check(req.TraceID, req.Line, ts))
}

func (s *Server) handleInstances(w http.ResponseWriter, r *http.Request) {
	if s.checker == nil {
		writeErr(w, http.StatusServiceUnavailable, errors.New("conformance checking not configured"))
		return
	}
	ids := s.checker.InstanceIDs()
	if ids == nil {
		ids = []string{}
	}
	writeJSON(w, http.StatusOK, ids)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if s.checker == nil {
		writeErr(w, http.StatusServiceUnavailable, errors.New("conformance checking not configured"))
		return
	}
	traceID := r.URL.Query().Get("trace")
	if traceID == "" {
		writeErr(w, http.StatusBadRequest, errors.New("query parameter 'trace' is required"))
		return
	}
	stats := s.checker.StatsFor(traceID)
	writeJSON(w, http.StatusOK, map[string]any{
		"events":    stats.Events,
		"fit":       stats.Fit,
		"fitness":   stats.Fitness(),
		"completed": stats.Completed,
	})
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	if s.eval == nil {
		writeErr(w, http.StatusServiceUnavailable, errors.New("assertion evaluation not configured"))
		return
	}
	var req EvaluateRequest
	if err := decode(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.CheckID == "" {
		writeErr(w, http.StatusBadRequest, errors.New("checkId is required"))
		return
	}
	writeJSON(w, http.StatusOK, s.eval.Evaluate(r.Context(), req.CheckID, req.Params, req.Trigger))
}

func (s *Server) handleChecks(w http.ResponseWriter, r *http.Request) {
	if s.eval == nil {
		writeErr(w, http.StatusServiceUnavailable, errors.New("assertion evaluation not configured"))
		return
	}
	ids := s.eval.Registry().IDs()
	if ids == nil {
		ids = []string{}
	}
	writeJSON(w, http.StatusOK, ids)
}

func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	if s.diag == nil {
		writeErr(w, http.StatusServiceUnavailable, errors.New("diagnosis not configured"))
		return
	}
	var req diagnosis.Request
	if err := decode(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, s.diag.Diagnose(r.Context(), req))
}

// DiagnosisConfig is the body of GET /diagnosis/config: the engine's
// effective tuning plus live shared-cache statistics, so operators can see
// the test budget and cache behaviour without scraping /metrics.
type DiagnosisConfig struct {
	// MaxTests is the per-run diagnosis test budget.
	MaxTests int `json:"maxTests"`
	// SharedCacheTTL is the cross-run reuse window (the cloud's
	// eventual-consistency window), as a duration string.
	SharedCacheTTL string `json:"sharedCacheTtl"`
	// SharedCache carries live cache counters.
	SharedCache diagnosis.CacheStats `json:"sharedCache"`
}

func (s *Server) handleDiagnosisConfig(w http.ResponseWriter, r *http.Request) {
	if s.diag == nil {
		writeErr(w, http.StatusServiceUnavailable, errors.New("diagnosis not configured"))
		return
	}
	c := s.diag.Cache()
	writeJSON(w, http.StatusOK, DiagnosisConfig{
		MaxTests:       s.diag.Options().MaxTests,
		SharedCacheTTL: c.TTL().String(),
		SharedCache:    c.Stats(),
	})
}

// ResilienceStatus is the body of GET /diagnosis/resilience: the retry
// and circuit-breaker posture of the diagnosis-test executor, plus the
// lossy-pipeline repair counters when a manager is attached.
type ResilienceStatus struct {
	// Executor is the diagnosis-test retry/breaker snapshot.
	Executor resilience.Status `json:"executor"`
	// Reorder carries the manager's reorder-buffer counters; absent in
	// standalone (manager-less) servers.
	Reorder *pipeline.ReorderStats `json:"reorder,omitempty"`
}

func (s *Server) handleDiagnosisResilience(w http.ResponseWriter, r *http.Request) {
	if s.diag == nil {
		writeErr(w, http.StatusServiceUnavailable, errors.New("diagnosis not configured"))
		return
	}
	st := ResilienceStatus{Executor: s.diag.Resilience().Snapshot()}
	if s.mgr != nil {
		rs := s.mgr.ReorderStats()
		st.Reorder = &rs
	}
	writeJSON(w, http.StatusOK, st)
}

// PlanSummary is one row of GET /diagnosis/plans: the shape of one
// diagnosis plan in the engine's catalog.
type PlanSummary struct {
	// ID is the plan id, the key of GET /diagnosis/plans/{id}.
	ID string `json:"id"`
	// AssertionID is the failing assertion the plan diagnoses.
	AssertionID string `json:"assertionId"`
	// Description explains the plan's top event.
	Description string `json:"description,omitempty"`
	// Nodes is the total node count.
	Nodes int `json:"nodes"`
	// Causes is the number of distinct diagnosable root causes.
	Causes int `json:"causes"`
}

func (s *Server) handlePlans(w http.ResponseWriter, r *http.Request) {
	if s.diag == nil {
		writeErr(w, http.StatusServiceUnavailable, errors.New("diagnosis not configured"))
		return
	}
	out := []PlanSummary{}
	for _, c := range s.diag.Catalog().Compiled("") {
		out = append(out, PlanSummary{
			ID:          c.Plan.ID,
			AssertionID: c.Plan.AssertionID,
			Description: c.Plan.Description,
			Nodes:       len(c.Plan.Nodes),
			Causes:      c.View("", false).PotentialFaults,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handlePlanGet(w http.ResponseWriter, r *http.Request) {
	if s.diag == nil {
		writeErr(w, http.StatusServiceUnavailable, errors.New("diagnosis not configured"))
		return
	}
	c := s.diag.Catalog().Get(r.PathValue("id"))
	if c == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such plan: %s", r.PathValue("id")))
		return
	}
	p := c.Plan
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		data, err := p.Render()
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
	case "dot":
		w.Header().Set("Content-Type", "text/vnd.graphviz")
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, p.DOT())
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (want json or dot)", format))
	}
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	if s.checker == nil {
		writeErr(w, http.StatusServiceUnavailable, errors.New("conformance checking not configured"))
		return
	}
	writeJSON(w, http.StatusOK, s.checker.Model())
}

func decode(r *http.Request, v any) error {
	defer r.Body.Close()
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("rest: decode request: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorBody{Error: err.Error()})
}
