package rest

import (
	"errors"
	"fmt"
	"net/http"

	"poddiagnosis/internal/remediate"
)

// errNoRemediation is returned by the remediation endpoints when the
// attached manager runs with remediation disabled (or no manager at all).
var errNoRemediation = errors.New("remediation not configured")

// remediator resolves the manager's remediation engine, writing the 503
// itself when remediation is not configured.
func (s *Server) remediator(w http.ResponseWriter) *remediate.Engine {
	if s.mgr == nil {
		writeErr(w, http.StatusServiceUnavailable, errNoManager)
		return nil
	}
	eng := s.mgr.Remediator()
	if eng == nil {
		writeErr(w, http.StatusServiceUnavailable, errNoRemediation)
		return nil
	}
	return eng
}

// handleOperationRemediations serves GET /operations/{id}/remediations:
// the remediations admitted for one operation's confirmed causes, in
// admission order, including pending approvals and dry-run records.
func (s *Server) handleOperationRemediations(w http.ResponseWriter, r *http.Request) {
	eng := s.remediator(w)
	if eng == nil {
		return
	}
	if m, _ := s.member(w, r); m == nil {
		return
	}
	rs := eng.List(r.PathValue("id"))
	if rs == nil {
		rs = []remediate.Remediation{}
	}
	writeJSON(w, http.StatusOK, rs)
}

// handleRemediationApprove serves POST /remediations/{id}/approve:
// executes a pending (approve-mode) remediation. A double approve is a
// 409; an unknown or garbage-collected id a 404.
func (s *Server) handleRemediationApprove(w http.ResponseWriter, r *http.Request) {
	eng := s.remediator(w)
	if eng == nil {
		return
	}
	id := r.PathValue("id")
	rm, err := eng.Approve(r.Context(), id)
	switch {
	case errors.Is(err, remediate.ErrNotFound):
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such remediation: %s", id))
	case errors.Is(err, remediate.ErrNotPending):
		writeErr(w, http.StatusConflict, err)
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, rm)
	}
}
