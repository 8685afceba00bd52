package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank p-quantile (p in (0, 1]) of xs,
// which it sorts in place. Nearest rank reports a value that was
// actually observed, so a p99 over n samples has n/100 samples at or
// beyond it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	rank := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[min(max(rank, 0), len(xs)-1)]
}

// durationsMS converts durations to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// durationsUS converts durations to float microseconds.
func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// median is the middle value of xs (mean of the two middle values for
// an even count), as Python's statistics.median computes it. xs is
// sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4) — the
// method the steadiness rule is defined with. xs is sorted in place and
// needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	slices.Sort(xs)
	ld := len(xs)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range of xs as a share of its median:
// the run-to-run noise figure a metric's regression bound is judged
// against. It is 0 for fewer than two values or a zero median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	ys := slices.Clone(xs)
	q1, q3 := quartiles(ys)
	med := median(ys)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}
