package workload

import (
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// The LUT's one estimator is the calibration EWMA: Observe updates it.

func TestCalibrateSeedsAndTracks(t *testing.T) {
	l := NewLUT()
	k := MakeKey(64*64, 1, 1, 32, 16)
	l.Observe(k, 4*time.Millisecond)
	if got := l.Estimate(k); got != 4*time.Millisecond {
		t.Fatalf("first observation should seed the EWMA, got %v", got)
	}
	l.Observe(k, 8*time.Millisecond)
	if got := l.Estimate(k); got != 6*time.Millisecond {
		t.Fatalf("EWMA after 4ms,8ms at α=0.5 should be 6ms, got %v", got)
	}
	if n := l.m[k].n; n != 2 {
		t.Fatalf("observations = %d, want 2", n)
	}
}

// TestCalibrationTakesPrecedenceOverMean: a key an older document seeded
// at its lifetime mean follows the EWMA from its first new observation on,
// instead of averaging the new work into all of that history.
func TestCalibrationTakesPrecedenceOverMean(t *testing.T) {
	s, err := LoadStore(strings.NewReader(`{"version":1,"classes":[{"class":"brain","keys":[{"key":{},"count":50,"sum_ns":500000000}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	l := s.ForClass("brain")
	if got := l.Estimate(Key{}); got != 10*time.Millisecond {
		t.Fatalf("seeded estimate %v, want the 10ms mean", got)
	}
	l.Observe(Key{}, 2*time.Millisecond)
	if got := l.Estimate(Key{}); got != 6*time.Millisecond {
		t.Fatalf("estimate after one 2ms observation %v, want the EWMA's 6ms", got)
	}
}

func TestCalibrationTracksDriftFasterThanMean(t *testing.T) {
	// Under a drifting host the EWMA stays close to the latest measurement
	// while a lifetime mean lags half the drift behind.
	l := NewLUT()
	k := MakeKey(96*96, 1, 1, 32, 16)
	var last, sum time.Duration
	const n = 40
	for i := 0; i < n; i++ {
		d := time.Duration(1+i) * time.Millisecond // steady upward drift
		l.Observe(k, d)
		sum += d
		last = d
	}
	meanErr := (last - sum/n).Abs()
	calErr := (last - l.Estimate(k)).Abs()
	if calErr >= meanErr {
		t.Fatalf("EWMA error %v not below lifetime-mean error %v", calErr, meanErr)
	}
}

func TestCalibrateClampsAdversarialFeedback(t *testing.T) {
	l := NewLUT()
	k := MakeKey(64*64, 2, 1, 42, 8)
	l.Observe(k, -time.Hour)
	if got := l.Estimate(k); got != 0 {
		t.Fatalf("negative feedback should clamp to 0, got %v", got)
	}
	for i := 0; i < 100; i++ {
		l.Observe(k, time.Duration(math.MaxInt64))
		if got := l.Estimate(k); got < 0 || got > maxObservation {
			t.Fatalf("huge feedback should clamp to [0, %v], got %v", maxObservation, got)
		}
	}
}

// TestCalibrateOnlyKeyServesNearestFallback: a key known only from a
// loaded document — never observed by this process — backs unknown-key
// estimation like any observed key.
func TestCalibrateOnlyKeyServesNearestFallback(t *testing.T) {
	s, err := LoadStore(strings.NewReader(`{"version":1,"classes":[{"class":"brain","keys":[` +
		`{"key":{"AreaClass":0,"Texture":2,"Motion":1,"QPBucket":1,"SearchLevel":6},"cal_count":1,"cal_ewma_ns":3000000}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	probe := MakeKey(64*64, 2, 1, 32, 64)
	if got := s.ForClass("brain").Estimate(probe); got != 3*time.Millisecond {
		t.Fatalf("nearest-key fallback ignored the loaded key: %v", got)
	}
}

func TestNearestFallbackTieBreaksDeterministically(t *testing.T) {
	// Two keys at equal distance from the probe: the estimate must come
	// from the smaller key regardless of map iteration order.
	probe := MakeKey(12*1024, 1, 1, 32, 16) // area class 1
	lo := Key{AreaClass: 0, Texture: 1, Motion: 1, QPBucket: 2, SearchLevel: 4}
	hi := Key{AreaClass: 2, Texture: 1, Motion: 1, QPBucket: 2, SearchLevel: 4}
	for i := 0; i < 20; i++ {
		l := NewLUT()
		l.Observe(lo, 1*time.Millisecond)
		l.Observe(hi, 9*time.Millisecond)
		if got := l.Estimate(probe); got != 1*time.Millisecond {
			t.Fatalf("run %d: tie-break not deterministic, got %v", i, got)
		}
	}
}

// TestConcurrentCalibrateAndEstimate: the EWMA update races the readers of
// a whole table — estimation, the Clone a heartbeat snapshot takes and the
// Save that ships it — without losing an update (run it under -race).
func TestConcurrentCalibrateAndEstimate(t *testing.T) {
	s := NewStore()
	l := s.ForClass("brain")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := MakeKey(64*64*(w%3+1), w%3, w%2, 27+w, 16)
			for i := 0; i < 200; i++ {
				l.Observe(k, time.Duration(100+i)*time.Microsecond)
				_ = l.Estimate(k)
				if i%50 == 0 {
					if err := s.Clone().Save(io.Discard); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n := l.observations(); n != 8*200 {
		t.Fatalf("observations = %d, want %d", n, 8*200)
	}
}
