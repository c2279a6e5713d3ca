// Package fleet promotes the single-process cprd daemon into a
// horizontally scalable fleet: a thin, stateless front tier that routes
// load/verify/repair/delta requests across N cprd worker replicas by the
// session's content address, with per-replica health probes, time-boxed
// leases on hash-ring ownership, bounded retry with jittered backoff,
// hedged failover to the ring successor, and graceful rebalance on
// scale-up/down.
//
// Routing is a pure function of the request's content address and the
// ring state. Because worker answers are deterministic in the session
// contents (the determinism suite pins byte-identity across parallelism
// and cache replay), a request answered by any healthy replica is
// byte-identical to the single-node answer — the property the fleet
// differential oracle (internal/crosscheck.CheckFleet) enforces.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// Ring is an immutable consistent-hash ring over replica names. Build
// with NewRing; membership changes build a new ring, so routing reads
// never lock against rebalances.
type Ring struct {
	points  []ringPoint // sorted by hash
	members []string    // sorted, distinct
}

type ringPoint struct {
	hash   uint64
	member string
}

// NewRing builds a ring from the given replica names (duplicates are
// dropped) with vnodes virtual nodes per replica. The ring is
// deterministic in the member set: order of the input slice does not
// matter.
func NewRing(members []string) *Ring {
	seen := make(map[string]bool, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	r := &Ring{
		points:  make([]ringPoint, 0, len(uniq)*vnodes),
		members: uniq,
	}
	for _, m := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(m + "#" + strconv.Itoa(i)), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash collisions across members are broken by name so the ring
		// stays a pure function of the member set.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Members returns the ring's member names, sorted.
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// Len returns the number of members.
func (r *Ring) Len() int { return len(r.members) }

// Owner returns the replica owning key: the member of the first ring
// point at or clockwise of the key's hash. Empty ring returns "".
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(key)].member
}

// Candidates returns up to max distinct members in failover order: the
// owner first, then each successive distinct member clockwise around the
// ring. max <= 0 returns every member. This is the order the front tier
// tries replicas in: the ring successor of a failed owner is
// Candidates(key, 2)[1].
func (r *Ring) Candidates(key string, max int) []string {
	if len(r.points) == 0 {
		return nil
	}
	if max <= 0 || max > len(r.members) {
		max = len(r.members)
	}
	out := make([]string, 0, max)
	seen := make(map[string]bool, max)
	for i, start := 0, r.search(key); i < len(r.points) && len(out) < max; i++ {
		m := r.points[(start+i)%len(r.points)].member
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// search returns the index of the first point at or clockwise of the
// key's hash.
func (r *Ring) search(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// hash64 maps a string to a ring position: the first 8 bytes of its
// sha256, which matches how session keys themselves are derived
// (ContentKey is a sha256) and gives a far better spread than FNV for
// the structured "name#vnode" point labels.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}
