package serve

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
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

// Demand-aware placement (DESIGN.md §7). The ring alone routes by class
// — good for LUT warmth, blind to weight: a 4K class whose arc lands on a
// 4-core shard would pile demand it can never serve while a 32-core peer
// idles. WithDemandPlacement adds the capability/demand-aware layer on
// top: Submit prices the session's pixel rate into an estimated core
// demand (through sched.DemandOf, the same Algorithm-2 line 1 the
// allocator applies after admission) and places it by that demand against
// every shard's LoadReport — home first if the session fits there,
// otherwise best-fit over the shards with room (smallest free capacity
// that still takes it, so small shards saturate and big shards keep their
// headroom for the classes that need it), and only then
// lowest-utilization spill.

// defaultPixelsPerCore is the default placement price: how many luma
// pixels per second one core is assumed to transcode. The estimate only
// steers placement — admission re-prices every session from its measured
// LUTs — so the price needs the right order of magnitude, not accuracy.
const defaultPixelsPerCore = 2e6

// PlacementConfig parametrizes demand-aware placement
// (WithDemandPlacement).
type PlacementConfig struct {
	// PixelsPerCore converts a session's luma pixel rate (width × height
	// × FPS) into an estimated core demand: demand = ceil(rate /
	// PixelsPerCore), never below one core (0 → 2e6).
	PixelsPerCore float64
}

// WithDemandPlacement turns on demand-aware placement: Submit estimates
// each arriving session's core demand from its pixel rate and steers it
// to a shard with the capacity to serve it (see the package notes above),
// seeding the shard's LoadReport with the estimate so back-to-back
// submissions see each other's weight. Without this option placement is
// purely class-home with lowest-utilization fallback.
func WithDemandPlacement(cfg PlacementConfig) Option {
	return func(o *options) {
		if cfg.PixelsPerCore == 0 {
			cfg.PixelsPerCore = defaultPixelsPerCore
		}
		if !(cfg.PixelsPerCore > 0) { // NaN-safe
			o.errs = append(o.errs, fmt.Errorf("serve: placement pixels per core %v", cfg.PixelsPerCore))
			return
		}
		o.placement = &cfg
	}
}

// estimateDemand prices a session's frames into an estimated core demand
// for placement. Returns 0 when demand-aware placement is off. Frame 0 is
// rendered on the submitter's goroutine, so a source that panics on it (a
// FrameSource's only way to report an I/O error) is the submission's
// error, not the caller's crash.
func (f *Fleet) estimateDemand(src core.FrameSource) (demand int, err error) {
	cfg := f.opts.placement
	if cfg == nil {
		return 0, nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: frame 0 of the %s source: panic: %v", src.Class(), r)
		}
	}()
	fr := src.Frame(0)
	if fr == nil {
		return 1, nil
	}
	fps := src.FPS()
	if fps <= 0 {
		fps = f.opts.fps
	}
	// One synthetic thread whose slot utilization is the session's pixel
	// rate over the placement price; DemandOf ceils it into cores exactly
	// as the allocator would.
	rate := float64(fr.Width()*fr.Height()) * fps
	th := sched.Thread{TimeFmax: time.Duration(rate / cfg.PixelsPerCore / fps * float64(time.Second))}
	cores, err := sched.DemandOf(sched.Input{
		Platform: f.proto,
		FPS:      fps,
		Users:    []sched.UserDemand{{User: 0, Threads: []sched.Thread{th}}},
	})
	if err != nil {
		return 1, nil
	}
	return cores[0], nil
}

// placeOrder returns the shard indices Submit tries for a session whose
// class homes on home, carrying an estimated core demand (0 = no
// estimate, the demand-blind path). The home shard leads while it is
// routable, under the session capacity, and — when a demand estimate
// exists — has the free cores for it. The rest follow in two bands:
// shards that fit the demand in best-fit order (ascending free capacity,
// ties to the lower index), then the shards without room in ascending
// utilization (ties to fewer sessions, then the lower index) — which is
// also the complete order when no estimate exists.
func (f *Fleet) placeOrder(home, demand int) []int {
	f.mu.Lock()
	shards := append([]*shardState(nil), f.shards...)
	routable := make([]bool, len(shards))
	for i, s := range shards {
		routable[i] = s.routable()
	}
	f.mu.Unlock()

	reports := make([]core.LoadReport, len(shards))
	for i, s := range shards {
		if routable[i] {
			reports[i] = s.srv.LoadReport()
		}
	}
	fits := func(i int) bool { return demand > 0 && reports[i].Free() >= demand }

	order := make([]int, 0, len(shards))
	homeOK := home >= 0 && home < len(shards) && routable[home] &&
		(f.opts.capacity <= 0 || reports[home].Sessions < f.opts.capacity) &&
		(demand <= 0 || fits(home))
	if homeOK {
		order = append(order, home)
	}
	var fitting, spill []int
	for i := range shards {
		if (i == home && homeOK) || !routable[i] {
			continue
		}
		if fits(i) {
			fitting = append(fitting, i)
		} else {
			spill = append(spill, i)
		}
	}
	sort.Slice(fitting, func(a, b int) bool {
		fa, fb := reports[fitting[a]].Free(), reports[fitting[b]].Free()
		if fa != fb {
			return fa < fb
		}
		return fitting[a] < fitting[b]
	})
	sort.Slice(spill, func(a, b int) bool {
		ra, rb := reports[spill[a]], reports[spill[b]]
		if ra.Util != rb.Util {
			return ra.Util < rb.Util
		}
		if ra.Sessions != rb.Sessions {
			return ra.Sessions < rb.Sessions
		}
		return spill[a] < spill[b]
	})
	order = append(order, fitting...)
	return append(order, spill...)
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
