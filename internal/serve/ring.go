package serve

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// The fleet routes a session to a shard by consistent-hashing its
// workload class: all sessions of one class land on one shard, so that
// shard's per-class LUT sees every observation of the class and stays
// warm, and growing or shrinking the fleet remaps only the classes whose
// arc the new shard takes over — the other shards' LUTs keep their heat.
//
// The ring is the classic construction: every shard contributes
// ringReplicas virtual points hashed from "shard/<index>/<replica>", a
// key hashes to a point on the circle, and its home shard is the owner of
// the first virtual point at or after it (wrapping around).

// RingReplicas is the default number of virtual points per member. 64
// keeps the per-member arc share within a few percent of uniform for
// small member sets while the ring stays tiny (members × 64 points).
const RingReplicas = 64

type ringPoint struct {
	hash   uint64
	member string
}

// Ring is the consistent-hash ring, keyed by member *name*. The fleet
// uses it with members named "shard/<index>"; a distributed master reuses
// it unchanged with agent names as members. Because a member's virtual
// points depend only on its own name, membership is order-independent:
// building a ring from {a, b, c} in any registration order yields the
// same key→member mapping, and adding or removing a member never moves
// the other members' points — a key changes home only if its arc is
// taken over by a joined member or owned by a left one.
type Ring struct {
	points []ringPoint
}

// NewRing builds a ring over the named members with the given number of
// virtual points each (<= 0 means RingReplicas). Member names must be
// distinct; a duplicated name just doubles that member's points.
func NewRing(members []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = RingReplicas
	}
	r := &Ring{points: make([]ringPoint, 0, len(members)*replicas)}
	for _, m := range members {
		for rep := 0; rep < replicas; rep++ {
			h := hash64(fmt.Sprintf("%s/%d", m, rep))
			r.points = append(r.points, ringPoint{hash: h, member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A full 64-bit collision between two virtual points is all but
		// impossible; break it deterministically anyway.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// MemberFor maps a key to its home member ("" on an empty ring): the
// owner of the first virtual point at or after the key's hash, wrapping.
func (r *Ring) MemberFor(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// hashRing adapts Ring to the fleet's integer shard indices. The member
// name for shard i is "shard/<i>", so the virtual-point keys
// ("shard/<i>/<rep>") — and therefore every class→shard assignment — are
// identical to the pre-Ring construction.
type hashRing struct {
	ring  *Ring
	index map[string]int
}

// newHashRing builds the ring over an explicit member set — the live
// shard indices. An elastic fleet rebuilds the ring on every resize.
func newHashRing(members []int, replicas int) *hashRing {
	names := make([]string, len(members))
	index := make(map[string]int, len(members))
	for i, shard := range members {
		names[i] = fmt.Sprintf("shard/%d", shard)
		index[names[i]] = shard
	}
	return &hashRing{ring: NewRing(names, replicas), index: index}
}

// seqMembers returns [0, 1, ..., n-1] — the member set of a fresh fleet.
func seqMembers(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// shardFor maps a key to its home shard (-1 on an empty ring).
func (r *hashRing) shardFor(key string) int {
	name := r.ring.MemberFor(key)
	if name == "" {
		return -1
	}
	return r.index[name]
}

// hash64 is FNV-1a over the string, finished with a splitmix64-style
// avalanche: raw FNV of near-identical short strings ("shard/3/0",
// "shard/3/1", ...) clusters on the ring badly enough to starve whole
// shards; the finalizer spreads the virtual points uniformly.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
