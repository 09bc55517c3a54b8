package federate

import (
	"context"
	"sync"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/core"
)

// Agent is the member side of the lease protocol, written once for
// both transports: a LocalMember's agent calls its *Front directly,
// with no encoding; a member server's agent (rest.NewFederationAgent)
// posts the same Lease and Renewal values to a front server.
type Agent struct {
	// ID is the member's federation identity.
	ID string

	// manager yields the Manager whose sessions a renewal replicates,
	// or an error when the member cannot renew right now.
	manager func() (*core.Manager, error)
	join    func(context.Context) (uint64, error)
	renew   func(context.Context, Renewal) (RenewResult, error)

	mu    sync.Mutex
	epoch uint64
}

// NewAgent builds an agent over one transport: join (re)admits the
// member and returns its epoch, renew delivers one renewal.
func NewAgent(id string, manager func() (*core.Manager, error),
	join func(context.Context) (uint64, error),
	renew func(context.Context, Renewal) (RenewResult, error)) *Agent {
	return &Agent{ID: id, manager: manager, join: join, renew: renew}
}

// Epoch returns the agent's current lease epoch.
func (a *Agent) Epoch() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch
}

// Join (re)joins the front and records the granted epoch.
func (a *Agent) Join(ctx context.Context) error {
	epoch, err := a.join(ctx)
	if err != nil {
		return err
	}
	a.mu.Lock()
	a.epoch = epoch
	a.mu.Unlock()
	return nil
}

// RenewOnce sends one renewal carrying the manager's backlog and a
// snapshot of every session it runs. A stale verdict makes the member
// drop the operations it lost and re-join for a fresh epoch: the
// recovering side of the split-brain guard.
func (a *Agent) RenewOnce(ctx context.Context) error {
	mgr, err := a.manager()
	if err != nil {
		return err
	}
	r := Renewal{Lease: Lease{ID: a.ID, Epoch: a.Epoch()}, Pending: mgr.QueueDepth().Depth()}
	for _, s := range mgr.Sessions() {
		if snap, err := mgr.ExportSession(s.ID()); err == nil {
			r.Snapshots = append(r.Snapshots, snap)
		}
	}
	res, err := a.renew(ctx, r)
	if err != nil || !res.Stale {
		return err
	}
	for _, opID := range res.DropOps {
		mgr.Remove(opID)
	}
	return a.Join(ctx)
}

// Run renews every interval on clk until ctx ends. A failed renewal
// (front briefly unreachable, member down) is retried on the next beat.
func (a *Agent) Run(ctx context.Context, clk clock.Clock, every time.Duration) {
	ticker := clock.NewTicker(clk, every)
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
