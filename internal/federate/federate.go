// Package federate makes the monitoring plane itself fault-tolerant:
// multiple Manager instances (in-process members for tests and the
// demo, REST-backed members for podserve deployments) stand behind a
// routing front that consistent-hashes operation ids onto a member
// ring.
//
// Membership is lease-based. Members heartbeat the front on the
// injected clock; missed renewals move a member through healthy →
// suspect → dead. Every (re)join is stamped with a monotonically
// increasing epoch, and a renewal carrying a stale epoch — or arriving
// after the member was declared dead — is rejected and told which
// operations to drop, so a partitioned member that comes back cannot
// keep monitoring operations that were already failed over (the
// split-brain guard).
//
// Heartbeats piggyback snapshots (core.SessionSnapshot) of the sessions
// whose revision moved since the front last accepted one of them. On
// member death the front restores each of the dead member's operations
// onto a survivor from its last replicated snapshot, so evidence
// chains, dedup maps and remediation idempotency keys survive the
// handoff; a join triggers bounded rebalancing via live export →
// restore → remove; an overloaded member (reported backlog above the
// shed threshold) is skipped at placement time — shed, not dropped.
package federate

import (
	"context"
	"time"

	"poddiagnosis/internal/core"
	"poddiagnosis/internal/obs"
	"poddiagnosis/internal/obs/flight"
)

// MemberState is a member's lease state at the front.
type MemberState string

// Lease states, in order of decay.
const (
	// StateHealthy means the lease is current; the member receives new
	// placements and keeps its operations.
	StateHealthy MemberState = "healthy"
	// StateSuspect means the lease expired; the member keeps its
	// operations but receives no new placements. A renewal recovers it.
	StateSuspect MemberState = "suspect"
	// StateDead means the lease expired past the grace window; the
	// member's operations were failed over and only a re-join (with a
	// fresh epoch) readmits it.
	StateDead MemberState = "dead"
)

// WatchRequest registers one operation: the body of POST /operations on a
// member or front server, and the federation front's placement request.
// The id is the consistent-hashing key; the rest mirrors a Manager.Watch
// call.
type WatchRequest struct {
	// ID names the session; empty means a generated id.
	ID string `json:"id,omitempty"`
	// Expect declares the operation's desired end state.
	Expect core.Expectation `json:"expect"`
	// InstanceIDs pre-binds process instance ids (e.g. upgrade task ids)
	// to the session. A bind-only session auto-ends when every bound
	// instance's process completes.
	InstanceIDs []string `json:"instanceIds,omitempty"`
	// MatchASG adopts unknown process instances that reference the
	// expectation's ASG.
	MatchASG bool `json:"matchAsg,omitempty"`
	// MatchAny adopts every unclaimed process instance.
	MatchAny bool `json:"matchAny,omitempty"`
	// AssertionSpec overrides the manager's default assertion
	// specification for this session.
	AssertionSpec string `json:"assertionSpec,omitempty"`
	// MaxDetections overrides the per-session detection cap.
	MaxDetections int `json:"maxDetections,omitempty"`
}

// Options translates the request into the Manager.Watch options that
// register it.
func (r WatchRequest) Options() []core.WatchOption {
	var opts []core.WatchOption
	if r.ID != "" {
		opts = append(opts, core.WithSessionID(r.ID))
	}
	if len(r.InstanceIDs) > 0 {
		opts = append(opts, core.BindInstance(r.InstanceIDs...))
	}
	if r.MatchASG {
		opts = append(opts, core.MatchASGInstances())
	}
	if r.MatchAny {
		opts = append(opts, core.MatchAnyInstance())
	}
	if r.AssertionSpec != "" {
		opts = append(opts, core.WithAssertionSpec(r.AssertionSpec))
	}
	if r.MaxDetections > 0 {
		opts = append(opts, core.WithMaxDetections(r.MaxDetections))
	}
	return opts
}

// Member is one Manager instance participating in the federation. The
// front drives it through this interface only, so in-process members
// (LocalMember) and REST-backed ones (rest.FederationMember) are
// interchangeable.
type Member interface {
	ID() string
	// Watch registers a new session for the operation.
	Watch(ctx context.Context, req WatchRequest) (core.SessionSummary, error)
	// Export snapshots one session for a graceful handoff.
	Export(ctx context.Context, opID string) (*core.SessionSnapshot, error)
	// Restore adopts a session from a snapshot (the failover path).
	Restore(ctx context.Context, snap *core.SessionSnapshot) error
	// Remove deletes a session (the releasing half of a handoff).
	Remove(ctx context.Context, opID string) error
	// Operation, Detections and Timeline serve the front's proxy reads.
	Operation(ctx context.Context, opID string) (core.SessionSummary, error)
	Detections(ctx context.Context, opID string) ([]core.Detection, error)
	Timeline(ctx context.Context, opID string) (flight.Timeline, error)
}

// Lease names one member incarnation, and is the body of a REST join:
// the member posts its ID and the Base URL the front dials it back on,
// and gets the same Lease back with the granted Epoch. Every Renewal
// carries the ID and Epoch it renews.
type Lease struct {
	ID    string `json:"id,omitempty"`
	Base  string `json:"base,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// Renewal is one lease renewal, as sent in-process and over REST: the
// lease it renews, the member's reported backlog (the shed signal) and
// fresh snapshots of the sessions that changed since the front last
// accepted one of them (the failover state). The front overwrites what
// it holds with each snapshot it receives; a session a renewal leaves
// out keeps its last copy.
type Renewal struct {
	Lease
	Pending   int                     `json:"pending"`
	Snapshots []*core.SessionSnapshot `json:"snapshots,omitempty"`
}

// RenewResult answers a renewal.
type RenewResult struct {
	// Stale reports the split-brain guard fired: the epoch is not the
	// member's current one (or the member was declared dead). The
	// member must drop DropOps and re-join for a fresh epoch before
	// monitoring anything again.
	Stale bool `json:"stale,omitempty"`
	// DropOps lists operation ids the renewing member may still hold
	// but no longer owns.
	DropOps []string `json:"dropOps,omitempty"`
	// Expires is the renewed lease deadline (zero when stale).
	Expires time.Time `json:"expires,omitempty"`
}

// MemberInfo is the serializable view of one member's lease.
type MemberInfo struct {
	ID         string      `json:"id"`
	State      MemberState `json:"state"`
	Epoch      uint64      `json:"epoch"`
	Expires    time.Time   `json:"expires"`
	Pending    int         `json:"pending"`
	Operations int         `json:"operations"`
}

// Federation metrics (pod_fed_*).
var (
	mFedMembers = obs.Default.GaugeVec("pod_fed_members",
		"Federation members by lease state.", "state")
	mFedOps = obs.Default.Gauge("pod_fed_operations",
		"Operations routed by the federation front.")
	mFedRenewals = obs.Default.CounterVec("pod_fed_renewals_total",
		"Lease renewals by outcome (ok or stale).", "outcome")
	mFedHandoffs = obs.Default.CounterVec("pod_fed_handoffs_total",
		"Operation handoffs by reason (member-dead, rebalance).", "reason")
	mFedTransitions = obs.Default.CounterVec("pod_fed_lease_transitions_total",
		"Member lease-state transitions, by new state.", "to")
	mFedShed = obs.Default.Counter("pod_fed_placements_shed_total",
		"Placements diverted past an overloaded member by the shed threshold.")
)
