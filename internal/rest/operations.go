package rest

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	"poddiagnosis/internal/core"
	"poddiagnosis/internal/federate"
	"poddiagnosis/internal/obs/flight"
)

// errNoManager is returned by the operation endpoints when the server was
// built without WithManager.
var errNoManager = errors.New("operation management not configured")

func (s *Server) handleOperationCreate(w http.ResponseWriter, r *http.Request) {
	if s.front != nil {
		s.handleFrontOperationCreate(w, r)
		return
	}
	if s.mgr == nil {
		writeErr(w, http.StatusServiceUnavailable, errNoManager)
		return
	}
	var req federate.WatchRequest
	if err := decode(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sess, err := s.mgr.Watch(req.Expect, req.Options()...)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, sess.Summary())
}

func (s *Server) handleOperationList(w http.ResponseWriter, r *http.Request) {
	if s.front != nil {
		s.handleFrontOperationList(w, r)
		return
	}
	if s.mgr == nil {
		writeErr(w, http.StatusServiceUnavailable, errNoManager)
		return
	}
	sessions := s.mgr.Sessions()
	out := make([]core.SessionSummary, 0, len(sessions))
	for _, sess := range sessions {
		out = append(out, sess.Summary())
	}
	writeJSON(w, http.StatusOK, out)
}

// operation resolves the {id} path value to a session, writing the error
// response itself when the manager is absent or the id is unknown.
func (s *Server) operation(w http.ResponseWriter, r *http.Request) *core.Session {
	if s.mgr == nil {
		writeErr(w, http.StatusServiceUnavailable, errNoManager)
		return nil
	}
	id := r.PathValue("id")
	sess := s.mgr.Session(id)
	if sess == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such operation: %s", id))
	}
	return sess
}

func (s *Server) handleOperationGet(w http.ResponseWriter, r *http.Request) {
	if s.front != nil {
		s.handleFrontOperationGet(w, r)
		return
	}
	if sess := s.operation(w, r); sess != nil {
		writeJSON(w, http.StatusOK, sess.Summary())
	}
}

func (s *Server) handleOperationDetections(w http.ResponseWriter, r *http.Request) {
	if s.front != nil {
		s.handleFrontOperationDetections(w, r)
		return
	}
	sess := s.operation(w, r)
	if sess == nil {
		return
	}
	ds := sess.Detections()
	if ds == nil {
		ds = []core.Detection{}
	}
	writeJSON(w, http.StatusOK, ds)
}

// handleOperationTimeline serves GET /operations/{id}/timeline: the
// operation's causal flight-recorder timeline. Repeatable (or
// comma-separated) ?kind= query parameters restrict the entries to the
// named event kinds; unknown kinds are a 400 so typos don't silently
// return an empty timeline.
func (s *Server) handleOperationTimeline(w http.ResponseWriter, r *http.Request) {
	if s.front != nil {
		s.handleFrontOperationTimeline(w, r)
		return
	}
	sess := s.operation(w, r)
	if sess == nil {
		return
	}
	var kinds []flight.Kind
	for _, raw := range r.URL.Query()["kind"] {
		for _, part := range strings.Split(raw, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			k := flight.Kind(part)
			if !flight.KnownKind(k) {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown timeline kind %q (known: %v)", part, flight.Kinds()))
				return
			}
			kinds = append(kinds, k)
		}
	}
	writeJSON(w, http.StatusOK, sess.Timeline(kinds...))
}

func (s *Server) handleOperationDelete(w http.ResponseWriter, r *http.Request) {
	if s.front != nil {
		s.handleFrontOperationDelete(w, r)
		return
	}
	if s.mgr == nil {
		writeErr(w, http.StatusServiceUnavailable, errNoManager)
		return
	}
	id := r.PathValue("id")
	if !s.mgr.Remove(id) {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such operation: %s", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"removed": id})
}

// managerReady is the default readiness probe installed by WithManager: it
// aggregates the shared backlog plus every session's queued and in-flight
// work into the per-operation breakdown.
func managerReady(m *core.Manager) func() ReadyStatus {
	return func() ReadyStatus {
		q := m.QueueDepth()
		return ReadyStatus{
			Ready:        true,
			QueueDepth:   q.Depth(),
			PerOperation: q.Sessions,
		}
	}
}
