package simaws

import "time"

// Eventual consistency model: while the profile can serve stale reads
// (StaleProb > 0) the reconciler records a deep-copy snapshot of account
// state every tick. Describe* calls read either live state or — with
// probability Profile.StaleProb — the most recent snapshot older than a
// sampled lag, and copy out only the resource(s) they return. This
// reproduces the behaviour the paper's "consistent AWS API layer" (§IV)
// exists to mask: reads that do not yet reflect a recently acknowledged
// mutation.

// resources is the account's describable state: the cloud's live maps, and
// the shape of every recorded snapshot, so a describe call reads either
// through the same code.
type resources struct {
	images    map[string]*Image
	keyPairs  map[string]*KeyPair
	sgs       map[string]*SecurityGroup // by name
	lcs       map[string]*LaunchConfig
	asgs      map[string]*ASG
	elbs      map[string]*LoadBalancer
	instances map[string]*Instance
}

// snapshot is an immutable deep copy of the whole account at one instant.
type snapshot struct {
	at time.Time
	resources
}

// maxSnapshotAge bounds the retained history.
const maxSnapshotAge = 30 * time.Second

// captureSnapshot deep-copies current state. Caller must hold mu.
func (c *Cloud) captureSnapshot() snapshot {
	return snapshot{at: c.now(), resources: resources{
		images:    copyAll(c.images, copyImage),
		keyPairs:  copyAll(c.keyPairs, func(v *KeyPair) KeyPair { return *v }),
		sgs:       copyAll(c.sgs, copySG),
		lcs:       copyAll(c.lcs, copyLC),
		asgs:      copyAll(c.asgs, copyASG),
		elbs:      copyAll(c.elbs, copyELB),
		instances: copyAll(c.instances, copyInstance),
	}}
}

// copyAll deep-copies one resource map.
func copyAll[T any](src map[string]*T, deepCopy func(*T) T) map[string]*T {
	out := make(map[string]*T, len(src))
	for id, v := range src {
		cp := deepCopy(v)
		out[id] = &cp
	}
	return out
}

// recordSnapshot appends a snapshot and prunes old history. A profile that
// never serves stale reads records nothing: no read could select it. Caller
// must hold mu.
func (c *Cloud) recordSnapshot() {
	if c.profile.StaleProb <= 0 {
		return
	}
	s := c.captureSnapshot()
	c.snapshots = append(c.snapshots, s)
	cutoff := s.at.Add(-maxSnapshotAge)
	firstKept := 0
	for firstKept < len(c.snapshots)-1 && c.snapshots[firstKept].at.Before(cutoff) {
		firstKept++
	}
	if firstKept > 0 {
		c.snapshots = append([]snapshot(nil), c.snapshots[firstKept:]...)
	}
}

// view returns the state a describe call observes: usually live state,
// sometimes a stale snapshot. Caller must hold mu while reading the view and
// must copy whatever it returns to its own caller — the live maps change
// under mu and snapshots are shared between reads.
func (c *Cloud) view() *resources {
	if c.profile.StaleProb > 0 && len(c.snapshots) > 0 && c.rng.Float64() < c.profile.StaleProb {
		mStaleReads.Inc()
		lag := c.profile.StaleLag.Sample(c.rng)
		target := c.now().Add(-lag)
		// Newest snapshot at or before target; fall back to oldest.
		best := &c.snapshots[0]
		for i := range c.snapshots {
			if !c.snapshots[i].at.After(target) {
				best = &c.snapshots[i]
			}
		}
		return &best.resources
	}
	return &c.resources
}

func copyImage(v *Image) Image {
	out := *v
	out.Services = append([]string(nil), v.Services...)
	return out
}

func copySG(v *SecurityGroup) SecurityGroup {
	out := *v
	out.IngressPorts = append([]int(nil), v.IngressPorts...)
	return out
}

func copyLC(v *LaunchConfig) LaunchConfig {
	out := *v
	out.SecurityGroups = append([]string(nil), v.SecurityGroups...)
	return out
}

func copyASG(v *ASG) ASG {
	out := *v
	out.LoadBalancers = append([]string(nil), v.LoadBalancers...)
	out.Instances = append([]string(nil), v.Instances...)
	out.Activities = append([]Activity(nil), v.Activities...)
	return out
}

func copyELB(v *LoadBalancer) LoadBalancer {
	out := *v
	out.Instances = append([]string(nil), v.Instances...)
	return out
}

func copyInstance(v *Instance) Instance {
	out := *v
	out.Services = append([]string(nil), v.Services...)
	out.SecurityGroups = append([]string(nil), v.SecurityGroups...)
	return out
}
