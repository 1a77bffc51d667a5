// Package workload implements the paper's LUT-based per-tile CPU-time
// estimation (Sec. III-D1). The look-up table is keyed by a coarse tile
// descriptor — tile area class, texture class, motion class, QP bucket and
// search level — and keeps, per key, an exponentially-weighted mean of the
// work observed under it, updated online throughout the encoding process:
// once per served tile, in a fixed order. Because the re-tiler produces a
// limited number of attainable tile structures and the encoder a limited
// number of configurations, the key space is small and the LUT converges
// quickly; the paper reports over/under-estimation below 100 µs once
// enough frames have been processed.
//
// Medical videos are classifiable into a small set of body-part categories
// (bones, lung and chest, brain, ...), and the LUT learned on one video
// transfers to other videos of the same class; Store keeps one LUT per
// class and hands out shared references.
package workload

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Area classes bucket tile pixel counts so similar tiles share an entry.
// Boundaries chosen around the re-tiler's attainable tile sizes for
// 640×480: min tiles are 64×64 = 4096 px, center tiles typically 60–160 px
// squares, grown corner tiles larger.
var areaBounds = []int{6 * 1024, 12 * 1024, 24 * 1024, 48 * 1024}

// Key identifies one entry in the LUT.
type Key struct {
	// AreaClass ∈ [0, len(areaBounds)] buckets the tile pixel count.
	AreaClass int
	// Texture ∈ {0,1,2} and Motion ∈ {0,1} mirror the analysis classes.
	Texture int
	Motion  int
	// QPBucket groups QP into the paper's five operating points
	// (22, 27, 32, 37, 42 → nearest).
	QPBucket int
	// SearchLevel encodes the search effort: the log2 of the window.
	SearchLevel int
}

// String formats the key compactly for traces.
func (k Key) String() string {
	return fmt.Sprintf("a%d/t%d/m%d/q%d/s%d", k.AreaClass, k.Texture, k.Motion, k.QPBucket, k.SearchLevel)
}

// areaClass buckets a tile area in pixels.
func areaClass(area int) int {
	for i, b := range areaBounds {
		if area <= b {
			return i
		}
	}
	return len(areaBounds)
}

// qpBucket maps a QP to the nearest paper operating point index
// (0→22, 1→27, 2→32, 3→37, 4→42).
func qpBucket(qp int) int {
	points := []int{22, 27, 32, 37, 42}
	best, bestD := 0, 1<<30
	for i, p := range points {
		d := qp - p
		if d < 0 {
			d = -d
		}
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// searchLevel maps a search window to a small level index (8→3, 16→4,
// 32→5, 64→6); non-power-of-two windows round down.
func searchLevel(window int) int {
	level := 0
	for w := window; w > 1; w >>= 1 {
		level++
	}
	return level
}

// MakeKey assembles a Key from raw tile properties.
func MakeKey(area int, texture, motion, qp, window int) Key {
	return Key{
		AreaClass:   areaClass(area),
		Texture:     texture,
		Motion:      motion,
		QPBucket:    qpBucket(qp),
		SearchLevel: searchLevel(window),
	}
}

// maxObservation caps a single observed duration. No real tile encode
// takes anywhere near a minute; the cap keeps the EWMA, and the legacy
// sums LoadStore still checks, safely clear of int64 overflow under
// adversarial feedback (see FuzzObserve).
const maxObservation = time.Minute

// alpha is the EWMA weight of the newest observation.
const alpha = 0.5

// clampObservation forces a measured duration into [0, maxObservation].
func clampObservation(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	if d > maxObservation {
		return maxObservation
	}
	return d
}

// entry holds one key's estimation state: an exponentially-weighted mean
// of the work observed under the key and the number of observations
// folded into it.
type entry struct {
	n    uint64
	ewma float64 // nanoseconds
}

// hasData reports whether the entry can produce an estimate.
func (h *entry) hasData() bool { return h.n > 0 }

// LUT is the per-class look-up table. It is safe for concurrent use.
type LUT struct {
	mu sync.RWMutex
	m  map[Key]*entry
}

// NewLUT returns an empty table.
func NewLUT() *LUT { return &LUT{m: make(map[Key]*entry)} }

// Observe folds one tile's measured work into key k's estimate:
//
//	ewma ← ewma + α·(d − ewma)
//
// The first observation of a key seeds the EWMA, so estimates track each
// key's recent work instead of dragging all of history behind them. The
// update is order-sensitive: callers that share a table apply it in a
// fixed order (see core's learn).
func (l *LUT) Observe(k Key, d time.Duration) {
	d = clampObservation(d)
	l.mu.Lock()
	defer l.mu.Unlock()
	h := l.m[k]
	if h == nil {
		h = &entry{}
		l.m[k] = h
	}
	if h.n == 0 {
		h.ewma = float64(d)
	} else {
		h.ewma += alpha * (float64(d) - h.ewma)
	}
	h.n++
}

// EstimateInto sets every key of m to its predicted encode time under a
// single read lock — stage D1's batched lookup, where the sessions of one
// workload class collectively look up far fewer distinct keys than they
// have tiles. A key's estimate is its EWMA (see Observe). Unknown keys
// fall back to the nearest known key (same texture/motion, closest area
// and QP), then, in a table with no data at all, to a conservative fixed
// prior.
func (l *LUT) EstimateInto(m map[Key]time.Duration) {
	if len(m) == 0 {
		return
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	for k := range m {
		m[k] = l.estimateLocked(k)
	}
}

// estimateLocked resolves one key; the caller holds at least mu.RLock.
func (l *LUT) estimateLocked(k Key) time.Duration {
	if h, ok := l.m[k]; ok && h.hasData() {
		return time.Duration(h.ewma)
	}
	// Nearest-key fallback: scan for the minimum key distance with data.
	// Ties break toward the smaller key so the estimate does not depend on
	// map iteration order — serving decisions must be reproducible.
	var best *entry
	var bestK Key
	bestD := 1 << 30
	for kk, h := range l.m {
		if !h.hasData() {
			continue
		}
		d := keyDistance(k, kk)
		if d < bestD || (d == bestD && less(kk, bestK)) {
			best, bestK, bestD = h, kk, d
		}
	}
	if best != nil {
		return time.Duration(best.ewma)
	}
	// Conservative prior: a dense 640×480 tile at fmax. Overestimation is
	// safe (the allocator reserves too much and releases slack via DVFS).
	return 5 * time.Millisecond
}

// keyDistance is a weighted L1 distance over key fields; texture/motion
// mismatches cost most because they change the encode path the most.
func keyDistance(a, b Key) int {
	d := 0
	d += 4 * abs(a.Texture-b.Texture)
	d += 4 * abs(a.Motion-b.Motion)
	d += 2 * abs(a.AreaClass-b.AreaClass)
	d += abs(a.QPBucket - b.QPBucket)
	d += abs(a.SearchLevel - b.SearchLevel)
	return d
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Keys returns the known keys in deterministic order (for traces/tests).
func (l *LUT) Keys() []Key {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]Key, 0, len(l.m))
	for k := range l.m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

func less(a, b Key) bool {
	if a.AreaClass != b.AreaClass {
		return a.AreaClass < b.AreaClass
	}
	if a.Texture != b.Texture {
		return a.Texture < b.Texture
	}
	if a.Motion != b.Motion {
		return a.Motion < b.Motion
	}
	if a.QPBucket != b.QPBucket {
		return a.QPBucket < b.QPBucket
	}
	return a.SearchLevel < b.SearchLevel
}

// Store keeps one LUT per body-part class so concurrent transcoding
// sessions of the same class share and jointly refine one table.
type Store struct {
	mu   sync.Mutex
	luts map[string]*LUT
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{luts: make(map[string]*LUT)} }

// ForClass returns the LUT shared by all videos of the named class,
// creating it on first use.
func (s *Store) ForClass(class string) *LUT {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.luts[class]
	if !ok {
		l = NewLUT()
		s.luts[class] = l
	}
	return l
}

// Classes returns the known class names in sorted order.
func (s *Store) Classes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.luts))
	for c := range s.luts {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
