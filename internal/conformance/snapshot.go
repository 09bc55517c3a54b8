package conformance

import (
	"sort"
	"time"
)

// InstanceSnapshot is the portable replay state of one process
// instance: everything the checker needs to resume token replay on
// another manager mid-operation. The marking serializes place names
// ("from\x1fto" for a sequence flow, "\x1eA" for an activity's virtual
// output place — stable properties of the model, frozen on the wire, not
// the compiled net's integers); the
// last valid activity is carried by node id and re-resolved against
// the adopting checker's model on import.
type InstanceSnapshot struct {
	InstanceID string         `json:"instanceId"`
	Marking    map[string]int `json:"marking,omitempty"`
	LastValid  string         `json:"lastValid,omitempty"`
	Completed  bool           `json:"completed,omitempty"`
	Fired      map[string]int `json:"fired,omitempty"`
	LastAt     time.Time      `json:"lastAt,omitempty"`
	Events     int            `json:"events,omitempty"`
	Fit        int            `json:"fit,omitempty"`
}

// Export snapshots every instance's replay state, sorted by instance
// id for deterministic round-trips.
func (c *Checker) Export() []InstanceSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	activities := c.model.Activities()
	out := make([]InstanceSnapshot, 0, len(c.instances))
	for id, st := range c.instances {
		snap := InstanceSnapshot{
			InstanceID: id,
			Marking:    st.m.Export(),
			Completed:  st.completed,
			Fired:      make(map[string]int),
			LastAt:     st.lastAt,
			Events:     st.events,
			Fit:        st.fit,
		}
		for i, n := range st.fired {
			if n > 0 {
				snap.Fired[activities[i].ID] = n
			}
		}
		if st.lastValid != nil {
			snap.LastValid = st.lastValid.ID
		}
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].InstanceID < out[j].InstanceID })
	return out
}

// Import installs exported replay states, replacing any same-named
// instances. What the adopting checker's model does not know (a model
// mismatch between the exporting and importing managers) degrades rather
// than failing the restore: an unknown last-valid node id to a nil
// last-valid activity, which the next fit line re-anchors; unknown places
// and fired activities are dropped, and a marking left empty restarts at
// the initial one.
func (c *Checker) Import(snaps []InstanceSnapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, snap := range snaps {
		st := c.newInstance()
		st.m = c.model.Net().Import(snap.Marking)
		st.completed = snap.Completed
		st.lastAt = snap.LastAt
		st.events = snap.Events
		st.fit = snap.Fit
		for a, n := range snap.Fired {
			if node := c.model.Node(a); node != nil && node.Index() >= 0 {
				st.fired[node.Index()] = n
			}
		}
		if snap.LastValid != "" {
			st.lastValid = c.model.Node(snap.LastValid)
		}
		c.instances[snap.InstanceID] = st
	}
}
