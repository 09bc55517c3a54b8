package federate

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"poddiagnosis/internal/core"
	"poddiagnosis/internal/obs/flight"
	"poddiagnosis/internal/remediate"
)

// LocalConfig builds a LocalMember.
type LocalConfig struct {
	// ID is the member's federation identity.
	ID string
	// NewManager builds AND starts a fresh Manager. Called once at
	// construction and again on every Restart, so a killed member
	// rejoins with a clean substrate (its sessions live on elsewhere).
	NewManager func() (*core.Manager, error)
	// ControllerFor, when set, supplies the remediation operation
	// controller attached to sessions this member adopts (Watch or
	// Restore). Sharing one controller per operation across members is
	// what keeps operation-level remediations idempotent across a
	// handoff.
	ControllerFor func(opID string) remediate.OperationController
}

// LocalMember is an in-process federation member: one Manager plus the
// Agent that renews its lease and replicates its session snapshots
// straight into the front. Tests drive it deterministically with
// HeartbeatNow, Kill, Restart and SetPartitioned.
type LocalMember struct {
	id     string
	build  func() (*core.Manager, error)
	ctlFor func(opID string) remediate.OperationController
	agent  *Agent
	front  atomic.Pointer[Front]

	mu          sync.Mutex
	mgr         *core.Manager
	down        bool
	partitioned bool
	stopHB      context.CancelFunc
	wg          sync.WaitGroup
}

// errNoBeat makes the agent skip a heartbeat of a member that is down,
// partitioned or not joined.
var errNoBeat = errors.New("federate: member cannot heartbeat")

// NewLocalMember builds the member and its first Manager.
func NewLocalMember(cfg LocalConfig) (*LocalMember, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("federate: LocalConfig.ID is required")
	}
	if cfg.NewManager == nil {
		return nil, fmt.Errorf("federate: LocalConfig.NewManager is required")
	}
	mgr, err := cfg.NewManager()
	if err != nil {
		return nil, err
	}
	l := &LocalMember{id: cfg.ID, build: cfg.NewManager, ctlFor: cfg.ControllerFor, mgr: mgr}
	l.agent = NewAgent(cfg.ID, l.leased,
		func(context.Context) (uint64, error) { return l.front.Load().Join(l) },
		func(_ context.Context, r Renewal) (RenewResult, error) {
			return l.front.Load().Renew(r.ID, r.Epoch, r), nil
		})
	return l, nil
}

// ID implements Member.
func (l *LocalMember) ID() string { return l.id }

// Manager returns the member's current Manager (still readable after
// Kill, for post-mortem assertions on its ledgers).
func (l *LocalMember) Manager() *core.Manager {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.mgr
}

// Epoch returns the member's current lease epoch.
func (l *LocalMember) Epoch() uint64 { return l.agent.Epoch() }

func (l *LocalMember) manager() (*core.Manager, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down {
		return nil, fmt.Errorf("federate: member %s is down", l.id)
	}
	return l.mgr, nil
}

// Watch implements Member.
func (l *LocalMember) Watch(_ context.Context, req WatchRequest) (core.SessionSummary, error) {
	mgr, err := l.manager()
	if err != nil {
		return core.SessionSummary{}, err
	}
	opts := req.Options()
	if l.ctlFor != nil {
		opts = append(opts, core.WithRemediationController(l.ctlFor(req.ID)))
	}
	s, err := mgr.Watch(req.Expect, opts...)
	if err != nil {
		return core.SessionSummary{}, err
	}
	return s.Summary(), nil
}

// Export implements Member.
func (l *LocalMember) Export(_ context.Context, opID string) (*core.SessionSnapshot, error) {
	mgr, err := l.manager()
	if err != nil {
		return nil, err
	}
	return mgr.ExportSession(opID)
}

// Restore implements Member: the adoption half of a handoff.
func (l *LocalMember) Restore(_ context.Context, snap *core.SessionSnapshot) error {
	mgr, err := l.manager()
	if err != nil {
		return err
	}
	var opts []core.WatchOption
	if l.ctlFor != nil && snap != nil {
		opts = append(opts, core.WithRemediationController(l.ctlFor(snap.ID)))
	}
	_, err = mgr.RestoreSession(snap, opts...)
	return err
}

// Remove implements Member.
func (l *LocalMember) Remove(_ context.Context, opID string) error {
	mgr, err := l.manager()
	if err != nil {
		return err
	}
	mgr.Remove(opID)
	return nil
}

// Operation implements Member.
func (l *LocalMember) Operation(_ context.Context, opID string) (core.SessionSummary, error) {
	mgr, err := l.manager()
	if err != nil {
		return core.SessionSummary{}, err
	}
	s := mgr.Session(opID)
	if s == nil {
		return core.SessionSummary{}, fmt.Errorf("federate: member %s: no operation %q", l.id, opID)
	}
	return s.Summary(), nil
}

// Detections implements Member.
func (l *LocalMember) Detections(_ context.Context, opID string) ([]core.Detection, error) {
	mgr, err := l.manager()
	if err != nil {
		return nil, err
	}
	s := mgr.Session(opID)
	if s == nil {
		return nil, fmt.Errorf("federate: member %s: no operation %q", l.id, opID)
	}
	return s.Detections(), nil
}

// Timeline implements Member.
func (l *LocalMember) Timeline(_ context.Context, opID string) (flight.Timeline, error) {
	mgr, err := l.manager()
	if err != nil {
		return flight.Timeline{}, err
	}
	return mgr.Flight().Timeline(opID), nil
}

// JoinFront joins (or re-joins) the front and records the granted
// epoch.
func (l *LocalMember) JoinFront(f *Front) error {
	l.front.Store(f)
	return l.agent.Join(context.TODO())
}

// leased returns the Manager a heartbeat replicates.
func (l *LocalMember) leased() (*core.Manager, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down || l.partitioned || l.front.Load() == nil {
		return nil, errNoBeat
	}
	return l.mgr, nil
}

// HeartbeatNow renews the lease once, synchronously: the deterministic
// path tests use to force snapshot replication before a kill. A stale
// verdict makes the member drop the listed operations and re-join for
// a fresh epoch (the recovering side of the split-brain guard).
// Down or partitioned members skip silently.
func (l *LocalMember) HeartbeatNow() { _ = l.agent.RenewOnce(context.TODO()) }

// StartHeartbeats renews the lease every interval on the manager's
// injected clock until StopHeartbeats (or Kill).
func (l *LocalMember) StartHeartbeats(every time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stopHB != nil || l.mgr == nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	l.stopHB = cancel
	clk := l.mgr.Clock()
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		l.agent.Run(ctx, clk, every)
	}()
}

// StopHeartbeats halts the heartbeat loop. Idempotent.
func (l *LocalMember) StopHeartbeats() {
	l.mu.Lock()
	if l.stopHB != nil {
		l.stopHB()
		l.stopHB = nil
	}
	l.mu.Unlock()
	l.wg.Wait()
}

// Kill simulates the member crashing: heartbeats stop, the Manager
// stops, and every Member call fails until Restart. The dead Manager
// stays readable via Manager() for post-mortem ledger assertions.
func (l *LocalMember) Kill() {
	l.StopHeartbeats()
	l.mu.Lock()
	mgr := l.mgr
	l.down = true
	l.mu.Unlock()
	if mgr != nil {
		mgr.Stop()
	}
}

// Restart brings a killed member back with a fresh Manager (built and
// started by the factory). The caller re-joins and restarts
// heartbeats.
func (l *LocalMember) Restart() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.down {
		return fmt.Errorf("federate: member %s is not down", l.id)
	}
	mgr, err := l.build()
	if err != nil {
		return err
	}
	l.mgr = mgr
	l.down = false
	return nil
}

// SetPartitioned toggles a network partition: the member keeps running
// but its heartbeats stop reaching the front, so its lease decays and
// its operations fail over. Healing the partition lets the next
// heartbeat discover it is stale.
func (l *LocalMember) SetPartitioned(p bool) {
	l.mu.Lock()
	l.partitioned = p
	l.mu.Unlock()
}
