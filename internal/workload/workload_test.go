package workload

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// Estimate is the one-key form of EstimateInto, which the tests assert
// estimates through.
func (l *LUT) Estimate(k Key) time.Duration {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.estimateLocked(k)
}

// observations sums the table's per-key observation counts.
func (l *LUT) observations() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var n uint64
	for _, h := range l.m {
		n += h.n
	}
	return n
}

func TestAreaClassMonotone(t *testing.T) {
	prev := -1
	for _, area := range []int{1, 4096, 8000, 20000, 40000, 100000, 400000} {
		c := areaClass(area)
		if c < prev {
			t.Fatalf("AreaClass(%d) = %d below previous %d", area, c, prev)
		}
		prev = c
	}
	if areaClass(64*64) != 0 {
		t.Fatalf("min tile (64×64) should land in class 0, got %d", areaClass(64*64))
	}
	if areaClass(640*480) != len(areaBounds) {
		t.Fatal("full frame should land in the top class")
	}
}

func TestQPBucketNearestOperatingPoint(t *testing.T) {
	cases := map[int]int{22: 0, 24: 0, 25: 1, 27: 1, 29: 1, 30: 2, 32: 2, 35: 3, 37: 3, 40: 4, 42: 4, 51: 4}
	for qp, want := range cases {
		if got := qpBucket(qp); got != want {
			t.Errorf("QPBucket(%d) = %d, want %d", qp, got, want)
		}
	}
}

func TestSearchLevel(t *testing.T) {
	cases := map[int]int{8: 3, 16: 4, 32: 5, 64: 6, 1: 0}
	for w, want := range cases {
		if got := searchLevel(w); got != want {
			t.Errorf("SearchLevel(%d) = %d, want %d", w, got, want)
		}
	}
}

func TestObserveAndEstimateExactKey(t *testing.T) {
	l := NewLUT()
	k := MakeKey(64*64, 1, 1, 32, 16)
	for i := 0; i < 10; i++ {
		l.Observe(k, 2*time.Millisecond)
	}
	if got := l.Estimate(k); got != 2*time.Millisecond {
		t.Fatalf("estimate = %v, want 2ms", got)
	}
	if n := l.observations(); n != 10 {
		t.Fatalf("observations = %d", n)
	}
}

func TestEstimateAveragesObservations(t *testing.T) {
	l := NewLUT()
	k := MakeKey(64*64, 0, 0, 37, 8)
	l.Observe(k, 1*time.Millisecond)
	l.Observe(k, 3*time.Millisecond)
	if got := l.Estimate(k); got != 2*time.Millisecond {
		t.Fatalf("estimate = %v, want mean 2ms", got)
	}
}

func TestEstimateUnknownKeyFallsBackToNearest(t *testing.T) {
	l := NewLUT()
	near := MakeKey(64*64, 2, 1, 27, 64)
	far := MakeKey(640*480, 0, 0, 42, 8)
	l.Observe(near, 4*time.Millisecond)
	l.Observe(far, 100*time.Microsecond)
	// Same texture/motion, slightly different QP: nearest is `near`.
	probe := MakeKey(64*64, 2, 1, 32, 64)
	if got := l.Estimate(probe); got != 4*time.Millisecond {
		t.Fatalf("estimate = %v, want nearest-key 4ms", got)
	}
}

func TestEstimateEmptyLUTUsesConservativePrior(t *testing.T) {
	l := NewLUT()
	got := l.Estimate(MakeKey(64*64, 1, 1, 32, 16))
	if got <= 0 {
		t.Fatalf("empty LUT estimate = %v, want positive prior", got)
	}
}

func TestMeanAbsErrorConverges(t *testing.T) {
	// The paper's claim: < 100 µs error once warm. Feed a stationary
	// workload with small jitter and check that the mean absolute error of
	// each estimate against the next observation lands in the tens of
	// microseconds.
	l := NewLUT()
	k := MakeKey(96*96, 1, 1, 32, 16)
	base := 1500 * time.Microsecond
	var sum time.Duration
	for i := 0; i < 200; i++ {
		d := base + time.Duration((i%7)-3)*10*time.Microsecond
		if i > 0 {
			sum += (l.Estimate(k) - d).Abs()
		}
		l.Observe(k, d)
	}
	if err := sum / 199; err > 100*time.Microsecond {
		t.Fatalf("mean abs error %v, want < 100µs (paper claim)", err)
	}
}

// TestObserveGrowsOnlyItsKey: an observation creates its own key's entry
// and nothing else; a key never observed has none.
func TestObserveGrowsOnlyItsKey(t *testing.T) {
	l := NewLUT()
	k := MakeKey(64*64, 0, 0, 32, 8)
	l.Observe(k, 3*time.Microsecond)
	l.Observe(k, 1*time.Millisecond)
	if h, ok := l.m[k]; !ok || h.n != 2 {
		t.Fatalf("observed key's entry = %+v, want 2 observations", h)
	}
	if _, ok := l.m[MakeKey(1, 0, 0, 22, 8)]; ok {
		t.Fatal("unknown key grew an entry")
	}
}

func TestKeysDeterministicOrder(t *testing.T) {
	l := NewLUT()
	ks := []Key{
		MakeKey(640*480, 2, 1, 42, 64),
		MakeKey(64*64, 0, 0, 22, 8),
		MakeKey(96*96, 1, 0, 32, 16),
	}
	for _, k := range ks {
		l.Observe(k, time.Millisecond)
	}
	a := l.Keys()
	b := l.Keys()
	if len(a) != 3 {
		t.Fatalf("%d keys", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("key order not deterministic")
		}
	}
	for i := 1; i < len(a); i++ {
		if !less(a[i-1], a[i]) {
			t.Fatal("keys not sorted")
		}
	}
}

func TestConcurrentObserveEstimate(t *testing.T) {
	l := NewLUT()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := MakeKey(64*64*(w%3+1), w%3, w%2, 27+w, 16)
			for i := 0; i < 100; i++ {
				l.Observe(k, time.Duration(500+i)*time.Microsecond)
				_ = l.Estimate(k)
			}
		}(w)
	}
	wg.Wait()
	if n := l.observations(); n != 800 {
		t.Fatalf("observations = %d, want 800", n)
	}
}

func TestNegativeDurationClamped(t *testing.T) {
	l := NewLUT()
	k := MakeKey(64*64, 0, 0, 32, 8)
	l.Observe(k, -5*time.Millisecond)
	if got := l.Estimate(k); got != 0 {
		t.Fatalf("estimate = %v, want 0 for clamped negative", got)
	}
}

func TestStoreSharesLUTPerClass(t *testing.T) {
	s := NewStore()
	a := s.ForClass("brain")
	b := s.ForClass("brain")
	c := s.ForClass("bone")
	if a != b {
		t.Fatal("same class returned different LUTs")
	}
	if a == c {
		t.Fatal("different classes share a LUT")
	}
	k := MakeKey(64*64, 1, 1, 32, 16)
	a.Observe(k, time.Millisecond)
	if b.observations() != 1 {
		t.Fatal("observation not visible through shared reference")
	}
	if c.observations() != 0 {
		t.Fatal("observation leaked across classes")
	}
	classes := s.Classes()
	if len(classes) != 2 || classes[0] != "bone" || classes[1] != "brain" {
		t.Fatalf("classes = %v", classes)
	}
}

func TestKeyStringStable(t *testing.T) {
	k := MakeKey(64*64, 2, 1, 27, 64)
	if k.String() != "a0/t2/m1/q1/s6" {
		t.Fatalf("key string = %s", k.String())
	}
}

func TestMakeKeyProperty(t *testing.T) {
	f := func(area uint32, tex, mot uint8, qp uint8, window uint8) bool {
		k := MakeKey(int(area%1000000), int(tex%3), int(mot%2), int(qp%52), int(window)%65+1)
		return k.AreaClass >= 0 && k.AreaClass <= len(areaBounds) &&
			k.QPBucket >= 0 && k.QPBucket <= 4 &&
			k.SearchLevel >= 0 && k.SearchLevel <= 6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
