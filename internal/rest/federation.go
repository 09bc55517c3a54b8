package rest

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"time"

	"poddiagnosis/internal/clock"
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

// WithMemberFactory overrides how the front server turns a join
// request into a federate.Member (default: a REST-backed
// FederationMember dialing the advertised base URL). Tests inject
// in-process members here.
func WithMemberFactory(fn func(id, base string) federate.Member) Option {
	return func(s *Server) { s.memberFactory = fn }
}

// FederationJoinRequest is the body of POST /federation/join: a member
// advertises itself to the front.
type FederationJoinRequest struct {
	// ID is the member's federation identity.
	ID string `json:"id"`
	// Base is the member's own REST base URL, which the front dials for
	// handoffs and proxy reads.
	Base string `json:"base"`
}

// FederationJoinResponse returns the lease epoch granted by the join;
// every renewal must carry it.
type FederationJoinResponse struct {
	Epoch uint64 `json:"epoch"`
}

// FederationRenewRequest is the body of POST /federation/renew.
type FederationRenewRequest struct {
	ID      string           `json:"id"`
	Epoch   uint64           `json:"epoch"`
	Renewal federate.Renewal `json:"renewal"`
}

// FederationRouteResponse is the body of GET /federation/route/{id}.
type FederationRouteResponse struct {
	// Owner is the member currently owning the operation.
	Owner string `json:"owner"`
	// Epoch is the operation's handoff epoch.
	Epoch uint64 `json:"epoch"`
}

var errNoFront = errors.New("federation front not configured")

func (s *Server) handleFederationJoin(w http.ResponseWriter, r *http.Request) {
	if s.front == nil {
		writeErr(w, http.StatusServiceUnavailable, errNoFront)
		return
	}
	var req FederationJoinRequest
	if err := decode(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.ID == "" || req.Base == "" {
		writeErr(w, http.StatusBadRequest, errors.New("id and base are required"))
		return
	}
	factory := s.memberFactory
	if factory == nil {
		factory = func(id, base string) federate.Member {
			return NewFederationMember(id, base, nil)
		}
	}
	epoch, err := s.front.Join(factory(req.ID, req.Base))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, FederationJoinResponse{Epoch: epoch})
}

func (s *Server) handleFederationRenew(w http.ResponseWriter, r *http.Request) {
	if s.front == nil {
		writeErr(w, http.StatusServiceUnavailable, errNoFront)
		return
	}
	var req FederationRenewRequest
	if err := decode(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.ID == "" {
		writeErr(w, http.StatusBadRequest, errors.New("id is required"))
		return
	}
	writeJSON(w, http.StatusOK, s.front.Renew(req.ID, req.Epoch, req.Renewal))
}

func (s *Server) handleFederationMembers(w http.ResponseWriter, r *http.Request) {
	if s.front == nil {
		writeErr(w, http.StatusServiceUnavailable, errNoFront)
		return
	}
	writeJSON(w, http.StatusOK, s.front.Members())
}

func (s *Server) handleFederationRoute(w http.ResponseWriter, r *http.Request) {
	if s.front == nil {
		writeErr(w, http.StatusServiceUnavailable, errNoFront)
		return
	}
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

// Front-proxied /operations handlers: the server answers from the
// federation instead of a local manager.

func (s *Server) handleFrontOperationCreate(w http.ResponseWriter, r *http.Request) {
	var req federate.WatchRequest
	if err := decode(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sum, _, err := s.front.Watch(r.Context(), req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, sum)
}

func (s *Server) handleFrontOperationList(w http.ResponseWriter, r *http.Request) {
	out := s.front.Operations(r.Context())
	if out == nil {
		out = []core.SessionSummary{}
	}
	writeJSON(w, http.StatusOK, out)
}

// frontRoute resolves {id} through the front, writing the 404 itself.
func (s *Server) frontRoute(w http.ResponseWriter, r *http.Request) (federate.Member, string) {
	id := r.PathValue("id")
	m, ok := s.front.Route(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such operation: %s", id))
		return nil, id
	}
	return m, id
}

func (s *Server) handleFrontOperationGet(w http.ResponseWriter, r *http.Request) {
	m, id := s.frontRoute(w, r)
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

func (s *Server) handleFrontOperationDetections(w http.ResponseWriter, r *http.Request) {
	m, id := s.frontRoute(w, r)
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

func (s *Server) handleFrontOperationTimeline(w http.ResponseWriter, r *http.Request) {
	m, id := s.frontRoute(w, r)
	if m == nil {
		return
	}
	tl, err := m.Timeline(r.Context(), id)
	if err != nil {
		writeErr(w, http.StatusBadGateway, err)
		return
	}
	writeJSON(w, http.StatusOK, tl)
}

func (s *Server) handleFrontOperationDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.front.Remove(r.Context(), id); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"removed": id})
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

// FederationAgent is the member-process side of the lease protocol: it
// joins the front over REST, heartbeats renewals carrying the local
// manager's session snapshots, and — when told it is stale — drops the
// operations it lost and re-joins for a fresh epoch.
type FederationAgent struct {
	// ID is the member's federation identity.
	ID string
	// Base is this member's own advertised REST base URL.
	Base string
	// Manager is the local manager whose sessions the agent replicates.
	Manager *core.Manager
	// Front is a client to the front server.
	Front *Client

	mu    sync.Mutex
	epoch uint64
}

// Epoch returns the agent's current lease epoch.
func (a *FederationAgent) Epoch() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch
}

// Join advertises the member to the front and records the granted
// epoch.
func (a *FederationAgent) Join(ctx context.Context) error {
	epoch, err := a.Front.FederationJoin(ctx, a.ID, a.Base)
	if err != nil {
		return err
	}
	a.mu.Lock()
	a.epoch = epoch
	a.mu.Unlock()
	return nil
}

// RenewOnce sends one lease renewal with the manager's current backlog
// and session snapshots. A stale verdict drops the listed operations
// and re-joins.
func (a *FederationAgent) RenewOnce(ctx context.Context) error {
	renewal := federate.Renewal{Pending: a.Manager.QueueDepth().Depth()}
	for _, sess := range a.Manager.Sessions() {
		if snap, err := a.Manager.ExportSession(sess.ID()); err == nil {
			renewal.Snapshots = append(renewal.Snapshots, snap)
		}
	}
	res, err := a.Front.FederationRenew(ctx, a.ID, a.Epoch(), renewal)
	if err != nil {
		return err
	}
	if !res.Stale {
		return nil
	}
	for _, opID := range res.DropOps {
		a.Manager.Remove(opID)
	}
	return a.Join(ctx)
}

// Run heartbeats every interval on the manager's injected clock until
// the context ends. Renewal errors (front briefly unreachable) are
// retried on the next beat.
func (a *FederationAgent) Run(ctx context.Context, every time.Duration) {
	ticker := clock.NewTicker(a.Manager.Clock(), every)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			_ = a.RenewOnce(ctx)
		}
	}
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

// FederationJoin advertises a member to a front server and returns the
// granted lease epoch.
func (c *Client) FederationJoin(ctx context.Context, id, base string) (uint64, error) {
	var out FederationJoinResponse
	err := c.post(ctx, "/federation/join", FederationJoinRequest{ID: id, Base: base}, &out)
	return out.Epoch, err
}

// FederationRenew sends one lease renewal to a front server.
func (c *Client) FederationRenew(ctx context.Context, id string, epoch uint64, r federate.Renewal) (federate.RenewResult, error) {
	var out federate.RenewResult
	err := c.post(ctx, "/federation/renew", FederationRenewRequest{ID: id, Epoch: epoch, Renewal: r}, &out)
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

// FailoverClient fans one logical client across several base URLs
// (e.g. every front replica, or every member of a federation): each
// call starts at the last base that worked and rotates through the
// rest on error, so a dead server costs one failed attempt, not an
// outage.
type FailoverClient struct {
	mu      sync.Mutex
	clients []*Client
	cur     int
}

// NewFailoverClient builds a failover client over the given base URLs.
func NewFailoverClient(bases []string, httpClient *http.Client, opts ...ClientOption) (*FailoverClient, error) {
	if len(bases) == 0 {
		return nil, errors.New("rest client: at least one base URL is required")
	}
	f := &FailoverClient{}
	for _, b := range bases {
		f.clients = append(f.clients, NewClient(b, httpClient, opts...))
	}
	return f, nil
}

// Do runs fn against the preferred client, rotating to the next base
// on error until one succeeds or every base has failed (then the last
// error is returned).
func (f *FailoverClient) Do(fn func(*Client) error) error {
	f.mu.Lock()
	start := f.cur
	n := len(f.clients)
	f.mu.Unlock()
	var lastErr error
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		if err := fn(f.clients[idx]); err != nil {
			lastErr = err
			continue
		}
		f.mu.Lock()
		f.cur = idx
		f.mu.Unlock()
		return nil
	}
	return lastErr
}

// CreateOperation registers an operation via the first reachable base.
func (f *FailoverClient) CreateOperation(ctx context.Context, req federate.WatchRequest) (core.SessionSummary, error) {
	var out core.SessionSummary
	err := f.Do(func(c *Client) error {
		var err error
		out, err = c.CreateOperation(ctx, req)
		return err
	})
	return out, err
}

// Operations lists operations via the first reachable base.
func (f *FailoverClient) Operations(ctx context.Context) ([]core.SessionSummary, error) {
	var out []core.SessionSummary
	err := f.Do(func(c *Client) error {
		var err error
		out, err = c.Operations(ctx)
		return err
	})
	return out, err
}

// Operation fetches one operation via the first reachable base.
func (f *FailoverClient) Operation(ctx context.Context, id string) (core.SessionSummary, error) {
	var out core.SessionSummary
	err := f.Do(func(c *Client) error {
		var err error
		out, err = c.Operation(ctx, id)
		return err
	})
	return out, err
}

// OperationDetections fetches detections via the first reachable base.
func (f *FailoverClient) OperationDetections(ctx context.Context, id string) ([]core.Detection, error) {
	var out []core.Detection
	err := f.Do(func(c *Client) error {
		var err error
		out, err = c.OperationDetections(ctx, id)
		return err
	})
	return out, err
}

// OperationTimeline fetches a timeline via the first reachable base.
func (f *FailoverClient) OperationTimeline(ctx context.Context, id string, kinds ...string) (flight.Timeline, error) {
	var out flight.Timeline
	err := f.Do(func(c *Client) error {
		var err error
		out, err = c.OperationTimeline(ctx, id, kinds...)
		return err
	})
	return out, err
}
