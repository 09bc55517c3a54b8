package federate

import (
	"fmt"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("op-%d", i)
	}
	return keys
}

// TestRingJoinOrderIrrelevant: ownership must depend only on the member
// set, never on the order members joined in.
func TestRingJoinOrderIrrelevant(t *testing.T) {
	a := newRing()
	for _, m := range []string{"m1", "m2", "m3"} {
		a.add(m)
	}
	b := newRing()
	for _, m := range []string{"m3", "m1", "m2"} {
		b.add(m)
	}
	for _, k := range ringKeys(300) {
		if a.owner(k) != b.owner(k) {
			t.Fatalf("owner of %q depends on join order: %q vs %q", k, a.owner(k), b.owner(k))
		}
	}
}

// TestRingRemovalOnlyMovesVictims: removing a member must not move any
// key owned by a survivor — the consistent-hashing contract that keeps
// failover from churning healthy members' operations.
func TestRingRemovalOnlyMovesVictims(t *testing.T) {
	r := newRing()
	for _, m := range []string{"m1", "m2", "m3"} {
		r.add(m)
	}
	keys := ringKeys(300)
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = r.owner(k)
	}
	r.remove("m2")
	for _, k := range keys {
		after := r.owner(k)
		if before[k] != "m2" && after != before[k] {
			t.Errorf("key %q moved %q -> %q although its owner survived", k, before[k], after)
		}
		if after == "m2" {
			t.Errorf("key %q still owned by removed member", k)
		}
	}
}

// TestRingSequence: the preference walk yields every member exactly
// once, starting with the owner — the failover order placement relies
// on.
func TestRingSequence(t *testing.T) {
	r := newRing()
	members := map[string]bool{"m1": true, "m2": true, "m3": true, "m4": true}
	for m := range members {
		r.add(m)
	}
	for _, k := range ringKeys(50) {
		seq := r.sequence(k)
		if len(seq) != len(members) {
			t.Fatalf("sequence(%q) has %d members, want %d", k, len(seq), len(members))
		}
		if seq[0] != r.owner(k) {
			t.Fatalf("sequence(%q)[0] = %q, owner = %q", k, seq[0], r.owner(k))
		}
		seen := map[string]bool{}
		for _, m := range seq {
			if !members[m] || seen[m] {
				t.Fatalf("sequence(%q) = %v is not a permutation of the member set", k, seq)
			}
			seen[m] = true
		}
	}
}

// TestRingSpread: with virtual nodes, no member of three should own a
// wildly disproportionate share of keys.
func TestRingSpread(t *testing.T) {
	r := newRing()
	for _, m := range []string{"m1", "m2", "m3"} {
		r.add(m)
	}
	counts := map[string]int{}
	for _, k := range ringKeys(900) {
		counts[r.owner(k)]++
	}
	for m, n := range counts {
		if n < 90 { // 10% of keys; fair share is 300
			t.Errorf("member %s owns only %d/900 keys; virtual nodes are not spreading", m, n)
		}
	}
}
