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

	// beat serializes renewals and joins, so acknowledgements commit in
	// the order the front stored the snapshots they acknowledge.
	beat sync.Mutex
	// acked maps each session the front holds a current snapshot of to
	// the revision read before that snapshot was exported. spare is the
	// map the next renewal fills; it replaces acked once the front
	// accepts the renewal. Keyed by session, not operation id, so a
	// session restored after its operation moved away and back is new
	// here and always resent. Both are guarded by beat.
	acked, spare map[*core.Session]uint64

	mu    sync.Mutex
	epoch uint64
}

// NewAgent builds an agent over one transport: join (re)admits the
// member and returns its epoch, renew delivers one renewal.
func NewAgent(id string, manager func() (*core.Manager, error),
	join func(context.Context) (uint64, error),
	renew func(context.Context, Renewal) (RenewResult, error)) *Agent {
	return &Agent{ID: id, manager: manager, join: join, renew: renew,
		acked: make(map[*core.Session]uint64), spare: make(map[*core.Session]uint64)}
}

// Epoch returns the agent's current lease epoch.
func (a *Agent) Epoch() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch
}

// Join (re)joins the front and records the granted epoch.
func (a *Agent) Join(ctx context.Context) error {
	a.beat.Lock()
	defer a.beat.Unlock()
	return a.joinLocked(ctx)
}

// joinLocked is Join with a.beat held. The front drops every snapshot
// it holds of the member on a join, so the acknowledgements go first —
// even when the join fails, since the front may have seen it — and the
// next renewal carries every session.
func (a *Agent) joinLocked(ctx context.Context) error {
	clear(a.acked)
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
// snapshot of every session whose revision moved since the front last
// accepted one of it: an idle session costs a revision read, not an
// export. No periodic full resend is needed: the front keeps what it
// accepted until the member re-joins, which clears the
// acknowledgements. A stale verdict makes the member drop the
// operations it lost and re-join for a fresh epoch: the recovering side
// of the split-brain guard.
func (a *Agent) RenewOnce(ctx context.Context) error {
	mgr, err := a.manager()
	if err != nil {
		return err
	}
	a.beat.Lock()
	defer a.beat.Unlock()
	r := Renewal{Lease: Lease{ID: a.ID, Epoch: a.Epoch()}, Pending: mgr.Backlog()}
	next := a.spare
	clear(next)
	for _, s := range mgr.Sessions() {
		// The revision is read before the export, so a write racing
		// the export moves it past what is acknowledged here.
		rev := s.Revision()
		if acked, ok := a.acked[s]; !ok || acked != rev {
			snap, err := mgr.ExportSession(s.ID())
			if err != nil {
				continue // removed since Sessions: nothing to replicate
			}
			r.Snapshots = append(r.Snapshots, snap)
		}
		next[s] = rev
	}
	res, err := a.renew(ctx, r)
	if err != nil {
		return err
	}
	if !res.Stale {
		a.acked, a.spare = next, a.acked
		return nil
	}
	for _, opID := range res.DropOps {
		mgr.Remove(opID)
	}
	return a.joinLocked(ctx)
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
