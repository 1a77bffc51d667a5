package main

import (
	"fmt"
	"math"
	"sort"
)

// minTailSamples is how many samples must lie beyond a tail percentile
// before the benchmark will report it: a p90 over 30 rounds is the third
// worst round, not a percentile.
const minTailSamples = 10

// median returns the nearest-rank median (the ⌈n/2⌉-th smallest sample).
// It panics on an empty sample: every caller counts samples first.
func median(xs []float64) float64 {
	v, err := quantile(xs, 0.5)
	if err != nil {
		panic(err)
	}
	return v
}

// quantile returns the nearest-rank p-quantile of xs (0 < p < 1): the
// ⌈p·n⌉-th smallest sample. For p above the median it refuses — returns
// an error — unless at least minTailSamples samples lie beyond the
// returned rank. xs is not modified.
func quantile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("quantile: no samples")
	}
	if !(p > 0 && p < 1) {
		return 0, fmt.Errorf("quantile: p=%v outside (0,1)", p)
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if p > 0.5 && n-rank < minTailSamples {
		return 0, fmt.Errorf("quantile: p%g of %d samples has %d beyond it, need %d", p*100, n, n-rank, minTailSamples)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// tailOrMax is quantile for a report that must always print a number: when
// the tail percentile is refused (a smoke-sized run) it returns the sample
// maximum and ok=false so the caller can flag the line.
func tailOrMax(xs []float64, p float64) (v float64, ok bool) {
	if v, err := quantile(xs, p); err == nil {
		return v, true
	}
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m, false
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) (method "exclusive") does — the
// rule the acceptance driver applies to ten runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 { // i-th cut point of 4, 1-based
		if n == 1 {
			return s[0]
		}
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range of xs as a share of its median — the
// driver's steadiness measure.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// slowdown is the host-deflation factor S of one phase: the mean of the
// phase's reference-kernel samples over floor, the fastest run the kernel
// has made in this process. The kernel does fixed work, so the floor is the
// host's unhindered speed and mean/floor is by how much the host ran
// slower, on average, while the phase was measured. Noise is one-sided (a
// host is never faster than idle), so S ≥ 1. A floor of 0 means "use the
// phase's own minimum".
func slowdown(refSamples []float64, floor float64) float64 {
	if len(refSamples) == 0 {
		return 1
	}
	var sum float64
	lo := math.Inf(1)
	for _, x := range refSamples {
		sum += x
		lo = math.Min(lo, x)
	}
	if floor <= 0 || floor > lo {
		floor = lo
	}
	if floor <= 0 {
		return 1
	}
	return sum / float64(len(refSamples)) / floor
}

// deflate turns a raw duration-like value into the reported one, and
// inflateRate does the same for a rate; reported × S (or ÷ S) recovers raw.
func deflate(raw, s float64) float64     { return raw / s }
func inflateRate(raw, s float64) float64 { return raw * s }

// share returns part/whole, or 0 for an empty whole.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// worseBy reports by what share of a the value b is worse than a, for a
// metric whose better direction is given; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}
