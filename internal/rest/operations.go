package rest

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"

	"poddiagnosis/internal/core"
	"poddiagnosis/internal/federate"
	"poddiagnosis/internal/obs/flight"
)

// errNoManager is returned by the operation endpoints when the server was
// built with neither WithManager nor WithFront.
var errNoManager = errors.New("operation management not configured")

// operations is the backend of the /operations handlers: a federation
// front, or the local manager seen as the only member of one. Either
// way an operation id resolves to the federate.Member that owns it.
type operations interface {
	Watch(ctx context.Context, req federate.WatchRequest) (core.SessionSummary, string, error)
	Operations(ctx context.Context) []core.SessionSummary
	Route(opID string) (federate.Member, bool)
	Remove(ctx context.Context, opID string) error
}

var _ operations = (*federate.Front)(nil)

// localOperations serves /operations from one Manager through the same
// federate.Member calls a front makes.
type localOperations struct{ *federate.LocalMember }

func newLocalOperations(m *core.Manager) localOperations {
	lm, _ := federate.NewLocalMember(federate.LocalConfig{ // cannot fail: ID and factory are set
		ID:         "local",
		NewManager: func() (*core.Manager, error) { return m, nil },
	})
	return localOperations{lm}
}

func (o localOperations) Watch(ctx context.Context, req federate.WatchRequest) (core.SessionSummary, string, error) {
	sum, err := o.LocalMember.Watch(ctx, req)
	return sum, o.ID(), err
}

func (o localOperations) Operations(context.Context) []core.SessionSummary {
	sessions := o.Manager().Sessions()
	out := make([]core.SessionSummary, 0, len(sessions))
	for _, sess := range sessions {
		out = append(out, sess.Summary())
	}
	return out
}

func (o localOperations) Route(opID string) (federate.Member, bool) {
	return o.LocalMember, o.Manager().Session(opID) != nil
}

// Watch registers an operation with the /operations backend, as POST
// /operations does, and returns its summary and owning member.
func (s *Server) Watch(ctx context.Context, req federate.WatchRequest) (core.SessionSummary, string, error) {
	if s.ops == nil {
		return core.SessionSummary{}, "", errNoManager
	}
	return s.ops.Watch(ctx, req)
}

func (s *Server) handleOperationCreate(w http.ResponseWriter, r *http.Request) {
	if s.ops == nil {
		writeErr(w, http.StatusServiceUnavailable, errNoManager)
		return
	}
	var req federate.WatchRequest
	if err := decode(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sum, _, err := s.ops.Watch(r.Context(), req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, sum)
}

func (s *Server) handleOperationList(w http.ResponseWriter, r *http.Request) {
	if s.ops == nil {
		writeErr(w, http.StatusServiceUnavailable, errNoManager)
		return
	}
	writeJSON(w, http.StatusOK, s.ops.Operations(r.Context()))
}

// member resolves the {id} path value to the member owning it, writing
// the error response itself when there is no backend or the id is
// unknown.
func (s *Server) member(w http.ResponseWriter, r *http.Request) (federate.Member, string) {
	if s.ops == nil {
		writeErr(w, http.StatusServiceUnavailable, errNoManager)
		return nil, ""
	}
	id := r.PathValue("id")
	m, ok := s.ops.Route(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such operation: %s", id))
		return nil, id
	}
	return m, id
}

func (s *Server) handleOperationGet(w http.ResponseWriter, r *http.Request) {
	m, id := s.member(w, r)
	if m == nil {
		return
	}
	sum, err := m.Operation(r.Context(), id)
	if err != nil {
		writeErr(w, http.StatusBadGateway, err)
		return
	}
	writeJSON(w, http.StatusOK, sum)
}

func (s *Server) handleOperationDetections(w http.ResponseWriter, r *http.Request) {
	m, id := s.member(w, r)
	if m == nil {
		return
	}
	ds, err := m.Detections(r.Context(), id)
	if err != nil {
		writeErr(w, http.StatusBadGateway, err)
		return
	}
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
	m, id := s.member(w, r)
	if m == nil {
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
	tl, err := m.Timeline(r.Context(), id)
	if err != nil {
		writeErr(w, http.StatusBadGateway, err)
		return
	}
	if len(kinds) > 0 {
		tl.Entries = slices.DeleteFunc(tl.Entries, func(e flight.Entry) bool { return !slices.Contains(kinds, e.Kind) })
	}
	writeJSON(w, http.StatusOK, tl)
}

func (s *Server) handleOperationDelete(w http.ResponseWriter, r *http.Request) {
	m, id := s.member(w, r)
	if m == nil {
		return
	}
	if err := s.ops.Remove(r.Context(), id); err != nil {
		writeErr(w, http.StatusBadGateway, err)
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
