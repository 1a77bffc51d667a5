package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
)

// Persistence of the per-class LUT store: a restarted service loads the
// previous run's tables and starts estimating from warm state instead of
// relearning every key (the ROADMAP's "LUTs die with the process" open
// item).
//
// The format is JSON with classes and keys in sorted order, so saving the
// same store twice yields identical bytes (diff-able snapshots, stable
// test fixtures). Versioned for forward evolution.

// persistVersion is bumped when a document the previous Save wrote no
// longer loads. Fields LoadStore does not read are ignored, so dropping one
// from the format is no bump: older documents load, and older binaries read
// a missing field as zero.
const persistVersion = 1

type storeJSON struct {
	Version int         `json:"version"`
	Classes []classJSON `json:"classes"`
}

type classJSON struct {
	Class string    `json:"class"`
	Keys  []keyJSON `json:"keys"`
}

// keyJSON is one key's entry: its EWMA and observation count. Count and
// SumNS are the lifetime-mean aggregates older documents carry; Save no
// longer writes them, and LoadStore reads them only to seed a key that has
// no EWMA.
type keyJSON struct {
	Key      Key     `json:"key"`
	Count    uint64  `json:"count,omitempty"`
	SumNS    int64   `json:"sum_ns,omitempty"`
	CalCount uint64  `json:"cal_count"`
	CalEWMA  float64 `json:"cal_ewma_ns"`
}

// Save writes the store — every class LUT with each key's EWMA and
// observation count — as deterministic JSON.
func (s *Store) Save(w io.Writer) error {
	s.mu.Lock()
	classes := make([]string, 0, len(s.luts))
	for c := range s.luts {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	doc := storeJSON{Version: persistVersion}
	for _, c := range classes {
		doc.Classes = append(doc.Classes, s.luts[c].toJSON(c))
	}
	s.mu.Unlock()

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// toJSON snapshots one LUT (takes the LUT's own lock).
func (l *LUT) toJSON(class string) classJSON {
	l.mu.RLock()
	defer l.mu.RUnlock()
	cj := classJSON{Class: class}
	keys := make([]Key, 0, len(l.m))
	for k := range l.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
	for _, k := range keys {
		h := l.m[k]
		cj.Keys = append(cj.Keys, keyJSON{Key: k, CalCount: h.n, CalEWMA: h.ewma})
	}
	return cj
}

// checkAggregate refuses a persisted (sum, count) pair no sequence of
// clamped observations could have produced: every term lies in
// [0, maxObservation], so 0 ≤ sum ≤ count·maxObservation (which also makes
// an empty aggregate carry a zero sum), and the mean divides through
// int64(count).
func checkAggregate(sumNS int64, count uint64) error {
	if count > math.MaxInt64 {
		return fmt.Errorf("count %d overflows int64", count)
	}
	// hi != 0: the bound itself is beyond any int64 sum.
	if hi, lo := bits.Mul64(count, uint64(maxObservation)); sumNS < 0 || (hi == 0 && uint64(sumNS) > lo) {
		return fmt.Errorf("sum %d ns impossible for %d observations", sumNS, count)
	}
	return nil
}

// LoadStore reads a store previously written by Save; every entry
// round-trips exactly. A key of an older document that carries only the
// lifetime-mean aggregates (count, sum_ns) starts its EWMA at that mean,
// with the mean's count; a present EWMA wins over them. The document may
// come from disk or from the network (the dist import handler), so values
// Save could not have written are refused here, the legacy aggregates
// included: a negative or overflowing one would surface rounds later as a
// negative stage-D1 estimate, which stage D2 rejects as a round-level error
// on every retry. Fields LoadStore does not read are ignored, not refused.
func LoadStore(r io.Reader) (*Store, error) {
	var doc storeJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("workload: load store: %w", err)
	}
	if doc.Version != persistVersion {
		return nil, fmt.Errorf("workload: store version %d, want %d", doc.Version, persistVersion)
	}
	s := NewStore()
	for _, cj := range doc.Classes {
		if cj.Class == "" {
			return nil, fmt.Errorf("workload: store entry with empty class")
		}
		l := s.ForClass(cj.Class)
		for _, kj := range cj.Keys {
			if err := checkAggregate(kj.SumNS, kj.Count); err != nil {
				return nil, fmt.Errorf("workload: key %v: %w", kj.Key, err)
			}
			if kj.CalCount > math.MaxInt64 || !(kj.CalEWMA >= 0 && kj.CalEWMA <= float64(maxObservation)) {
				return nil, fmt.Errorf("workload: key %v EWMA (%d, %v ns) out of range", kj.Key, kj.CalCount, kj.CalEWMA)
			}
			h := &entry{n: kj.CalCount, ewma: kj.CalEWMA}
			if h.n == 0 && kj.Count > 0 {
				h.n, h.ewma = kj.Count, float64(kj.SumNS/int64(kj.Count))
			}
			l.m[kj.Key] = h
		}
	}
	return s, nil
}

// Merge folds other's estimates into s: per key, the EWMAs combine
// weighted by their observation counts (an exact EWMA cannot be recovered
// from two interleaved streams; the count-weighted mean is the unbiased
// summary of what both shards measured).
// A fleet saves one file by merging its shards' stores; classes that live
// on exactly one shard — the common case under class-consistent routing —
// merge losslessly.
func (s *Store) Merge(other *Store) {
	if other == nil || other == s {
		return
	}
	other.mu.Lock()
	classes := make([]string, 0, len(other.luts))
	for c := range other.luts {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	src := make(map[string]*LUT, len(classes))
	for _, c := range classes {
		src[c] = other.luts[c]
	}
	other.mu.Unlock()
	for _, c := range classes {
		s.ForClass(c).merge(src[c])
	}
}

// merge folds one LUT into l.
func (l *LUT) merge(other *LUT) {
	if other == nil || other == l {
		return
	}
	other.mu.RLock()
	defer other.mu.RUnlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	for k, oh := range other.m {
		h := l.m[k]
		if h == nil {
			h = &entry{}
			l.m[k] = h
		}
		switch {
		case oh.n == 0:
		case h.n == 0:
			*h = *oh
		default:
			total := float64(h.n + oh.n)
			h.ewma = (h.ewma*float64(h.n) + oh.ewma*float64(oh.n)) / total
			h.n += oh.n
		}
	}
}

// MergeClass folds only the named class's LUT from other into s — the
// targeted variant of Merge a resizing fleet uses to hand one class's
// estimation state to the shard that takes the class over, without
// dragging the donor's other classes along. A class other does not know
// is a no-op.
func (s *Store) MergeClass(other *Store, class string) {
	if other == nil || other == s {
		return
	}
	other.mu.Lock()
	src := other.luts[class]
	other.mu.Unlock()
	if src == nil {
		return
	}
	s.ForClass(class).merge(src)
}

// Clone returns a deep copy of the store (shared with nothing).
func (s *Store) Clone() *Store {
	out := NewStore()
	out.Merge(s)
	return out
}
