package rest

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"

	"poddiagnosis/internal/core"
	"poddiagnosis/internal/federate"
	"poddiagnosis/internal/obs/flight"
)

// WithFront attaches a federation front: the server then serves the
// /federation/* membership endpoints and proxies the /operations
// surface through the front to whichever member currently owns each
// operation, so clients keep one base URL across handoffs.
func WithFront(f *federate.Front) Option {
	return func(s *Server) { s.front = f }
}

// FederationRouteResponse is the body of GET /federation/route/{id}.
type FederationRouteResponse struct {
	// Owner is the member currently owning the operation.
	Owner string `json:"owner"`
	// Epoch is the operation's handoff epoch.
	Epoch uint64 `json:"epoch"`
}

var errNoFront = errors.New("federation front not configured")

// frontOnly serves h on a front server and a 503 anywhere else.
func (s *Server) frontOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.front == nil {
			writeErr(w, http.StatusServiceUnavailable, errNoFront)
			return
		}
		h(w, r)
	}
}

func (s *Server) handleFederationJoin(w http.ResponseWriter, r *http.Request) {
	var lease federate.Lease
	if err := decode(r, &lease); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if lease.ID == "" || lease.Base == "" {
		writeErr(w, http.StatusBadRequest, errors.New("id and base are required"))
		return
	}
	var err error
	if lease.Epoch, err = s.front.Join(NewFederationMember(lease.ID, lease.Base, nil)); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, lease)
}

func (s *Server) handleFederationRenew(w http.ResponseWriter, r *http.Request) {
	var renewal federate.Renewal
	if err := decode(r, &renewal); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if renewal.ID == "" {
		writeErr(w, http.StatusBadRequest, errors.New("id is required"))
		return
	}
	writeJSON(w, http.StatusOK, s.front.Renew(renewal.ID, renewal.Epoch, renewal))
}

func (s *Server) handleFederationMembers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.front.Members())
}

func (s *Server) handleFederationRoute(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	owner, epoch, ok := s.front.Owner(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such operation: %s", id))
		return
	}
	writeJSON(w, http.StatusOK, FederationRouteResponse{Owner: owner, Epoch: epoch})
}

// handleOperationExport serves GET /operations/{id}/export on member
// servers: the graceful half of a federation handoff.
func (s *Server) handleOperationExport(w http.ResponseWriter, r *http.Request) {
	if s.mgr == nil {
		writeErr(w, http.StatusServiceUnavailable, errNoManager)
		return
	}
	snap, err := s.mgr.ExportSession(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleOperationRestore serves POST /operations/restore on member
// servers: the adopting half of a federation handoff.
func (s *Server) handleOperationRestore(w http.ResponseWriter, r *http.Request) {
	if s.mgr == nil {
		writeErr(w, http.StatusServiceUnavailable, errNoManager)
		return
	}
	var snap core.SessionSnapshot
	if err := decode(r, &snap); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sess, err := s.mgr.RestoreSession(&snap)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, sess.Summary())
}

// FederationMember is a federate.Member backed by a member server's
// REST API: the front drives remote podserve members through it.
type FederationMember struct {
	id string
	c  *Client
}

var _ federate.Member = (*FederationMember)(nil)

// NewFederationMember returns a Member proxying to the member server at
// base. A nil httpClient uses the 30s-timeout default.
func NewFederationMember(id, base string, httpClient *http.Client, opts ...ClientOption) *FederationMember {
	return &FederationMember{id: id, c: NewClient(base, httpClient, opts...)}
}

// ID implements federate.Member.
func (m *FederationMember) ID() string { return m.id }

// Watch implements federate.Member.
func (m *FederationMember) Watch(ctx context.Context, req federate.WatchRequest) (core.SessionSummary, error) {
	return m.c.CreateOperation(ctx, req)
}

// Export implements federate.Member.
func (m *FederationMember) Export(ctx context.Context, opID string) (*core.SessionSnapshot, error) {
	return m.c.ExportOperation(ctx, opID)
}

// Restore implements federate.Member.
func (m *FederationMember) Restore(ctx context.Context, snap *core.SessionSnapshot) error {
	_, err := m.c.RestoreOperation(ctx, snap)
	return err
}

// Remove implements federate.Member.
func (m *FederationMember) Remove(ctx context.Context, opID string) error {
	return m.c.RemoveOperation(ctx, opID)
}

// Operation implements federate.Member.
func (m *FederationMember) Operation(ctx context.Context, opID string) (core.SessionSummary, error) {
	return m.c.Operation(ctx, opID)
}

// Detections implements federate.Member.
func (m *FederationMember) Detections(ctx context.Context, opID string) ([]core.Detection, error) {
	return m.c.OperationDetections(ctx, opID)
}

// Timeline implements federate.Member.
func (m *FederationMember) Timeline(ctx context.Context, opID string) (flight.Timeline, error) {
	return m.c.OperationTimeline(ctx, opID)
}

// NewFederationAgent returns the lease agent of a member server
// advertised at base: it joins the front server behind front and
// renews with snapshots of mgr's sessions, over POST /federation/join
// and /federation/renew.
func NewFederationAgent(id, base string, mgr *core.Manager, front *Client) *federate.Agent {
	return federate.NewAgent(id, func() (*core.Manager, error) { return mgr, nil },
		func(ctx context.Context) (uint64, error) {
			lease := federate.Lease{ID: id, Base: base}
			err := front.post(ctx, "/federation/join", lease, &lease)
			return lease.Epoch, err
		},
		func(ctx context.Context, r federate.Renewal) (federate.RenewResult, error) {
			var out federate.RenewResult
			err := front.post(ctx, "/federation/renew", r, &out)
			return out, err
		})
}

// Client federation methods.

// ExportOperation fetches one session's handoff snapshot from a member
// server.
func (c *Client) ExportOperation(ctx context.Context, id string) (*core.SessionSnapshot, error) {
	var out core.SessionSnapshot
	if err := c.get(ctx, "/operations/"+url.PathEscape(id)+"/export", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RestoreOperation ships a handoff snapshot to a member server for
// adoption.
func (c *Client) RestoreOperation(ctx context.Context, snap *core.SessionSnapshot) (core.SessionSummary, error) {
	var out core.SessionSummary
	err := c.post(ctx, "/operations/restore", snap, &out)
	return out, err
}

// FederationMembers lists a front server's membership.
func (c *Client) FederationMembers(ctx context.Context) ([]federate.MemberInfo, error) {
	var out []federate.MemberInfo
	err := c.get(ctx, "/federation/members", &out)
	return out, err
}

// FederationRoute resolves which member currently owns an operation.
func (c *Client) FederationRoute(ctx context.Context, opID string) (FederationRouteResponse, error) {
	var out FederationRouteResponse
	err := c.get(ctx, "/federation/route/"+url.PathEscape(opID), &out)
	return out, err
}
