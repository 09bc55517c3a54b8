package federate

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ringReplicas is the per-member point count on the hash ring.
const ringReplicas = 64

// hashRing is a consistent-hash ring with virtual nodes. Each member
// contributes ringReplicas points ("id#i" hashed); an operation id lands
// on the first point at or after its own hash, and the successor walk
// yields the failover order. Points sort by (hash, member) so ties are
// deterministic regardless of join order.
type hashRing struct {
	points  []ringPoint // sorted by (hash, member)
	members map[string]bool
}

type ringPoint struct {
	hash   uint32
	member string
}

func newRing() *hashRing {
	return &hashRing{members: make(map[string]bool)}
}

func ringHash(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

func (r *hashRing) add(id string) {
	if r.members[id] {
		return
	}
	r.members[id] = true
	for i := 0; i < ringReplicas; i++ {
		r.points = append(r.points, ringPoint{ringHash(id + "#" + strconv.Itoa(i)), id})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
}

func (r *hashRing) remove(id string) {
	if !r.members[id] {
		return
	}
	delete(r.members, id)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != id {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

func (r *hashRing) size() int { return len(r.members) }

// owner returns the ring owner of the key ("" on an empty ring).
func (r *hashRing) owner(key string) string {
	seq := r.sequence(key)
	if len(seq) == 0 {
		return ""
	}
	return seq[0]
}

// sequence returns every member in ring order starting at the key's
// hash: the placement preference list (first entry is the owner, the
// rest the failover successors).
func (r *hashRing) sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, len(r.members))
	out := make([]string, 0, len(r.members))
	for i := 0; i < len(r.points) && len(out) < len(r.members); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, p.member)
		}
	}
	return out
}
