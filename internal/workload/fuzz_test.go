package workload

import (
	"bytes"
	"os"
	"testing"
	"time"
)

// FuzzLoadStore feeds LoadStore arbitrary documents — it is reachable from
// the network through the dist import handler. Contract: an error, or a
// store on which every estimate (own key, nearest-key fallback, prior) is
// non-negative; never a panic.
func FuzzLoadStore(f *testing.F) {
	golden, err := os.ReadFile("testdata/store_v1.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{"version":1,"classes":[{"class":"c","keys":[{"key":{},"count":2,"sum_ns":-5000000}]}]}`))
	f.Add([]byte(`{"version":1,"classes":[{"class":"c","fallback_sum_ns":9,"fallback_count":18446744073709551615}]}`))
	legacy, err := os.ReadFile("testdata/store_v1_legacy.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	mean, err := os.ReadFile("testdata/store_v1_mean.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mean)

	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := LoadStore(bytes.NewReader(in))
		if err != nil {
			return
		}
		for _, class := range s.Classes() {
			l := s.ForClass(class)
			for _, k := range append(l.Keys(), Key{}, Key{AreaClass: 1 << 40, Texture: -7}) {
				if est := l.Estimate(k); est < 0 {
					t.Fatalf("class %q key %v: negative estimate %v from %q", class, k, est, in)
				}
			}
		}
	})
}

// FuzzObserve drives the LUT's one update path with arbitrary measured
// -time feedback and checks the estimator's safety invariants:
//
//   - estimates are never negative and never exceed the observation cap
//     (so no int64 overflow or sign flip can leak into stage D2, where a
//     negative thread time is an allocator validation error);
//   - monotone feedback stays monotone in area: when every measurement of
//     a larger-area key is ≥ every measurement of a smaller-area key (the
//     physical reality — more pixels cost more), the estimates preserve
//     that order, because each key's EWMA is a convex combination of its
//     own observations.
func FuzzObserve(f *testing.F) {
	f.Add(int64(1500000), int64(2500000), uint8(1), uint8(1), uint8(32), uint8(16), uint8(3))
	f.Add(int64(-5), int64(1<<62), uint8(0), uint8(0), uint8(0), uint8(0), uint8(1))
	f.Add(int64(1<<62), int64(1<<62), uint8(2), uint8(1), uint8(51), uint8(64), uint8(8))
	f.Add(int64(0), int64(0), uint8(5), uint8(3), uint8(200), uint8(255), uint8(0))

	f.Fuzz(func(t *testing.T, dA, dB int64, tex, mot, qp, window uint8, rounds uint8) {
		l := NewLUT()
		// Two keys identical except for the area class.
		small := Key{AreaClass: 0, Texture: int(tex % 3), Motion: int(mot % 2),
			QPBucket: qpBucket(int(qp)), SearchLevel: searchLevel(int(window) + 1)}
		large := small
		large.AreaClass = 2

		lo, hi := time.Duration(dA), time.Duration(dB)
		if lo > hi {
			lo, hi = hi, lo
		}
		n := int(rounds%16) + 1
		for i := 0; i < n; i++ {
			l.Observe(small, lo)
			l.Observe(large, hi)
		}

		for _, k := range []Key{small, large} {
			est := l.Estimate(k)
			if est < 0 {
				t.Fatalf("negative estimate %v for %v after feedback (%v, %v)", est, k, dA, dB)
			}
			if est > maxObservation {
				t.Fatalf("estimate %v for %v exceeds the observation cap", est, k)
			}
		}
		if es, el := l.Estimate(small), l.Estimate(large); el < es {
			t.Fatalf("monotone feedback inverted by estimation: small-area %v > large-area %v", es, el)
		}
		// The probe key between the two area classes must also estimate
		// inside the safe range via the nearest-key fallback.
		probe := small
		probe.AreaClass = 1
		if est := l.Estimate(probe); est < 0 || est > maxObservation {
			t.Fatalf("fallback estimate %v out of range", est)
		}
	})
}
