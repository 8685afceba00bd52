package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200..1, unsorted on purpose
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.5, 100}, {0.99, 198}, {1, 200}, {0.001, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..200, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

// The expected figures are Python's statistics.quantiles(xs, n=4) and
// statistics.median, which define the steadiness rule.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs             []float64
		q1, q3, spread float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25, 1.0},
		{[]float64{3.1, 0.5, 2.2, 9.0, 4.4}, 1.35, 6.7, 1.725806451612903},
		{[]float64{5, 1}, 0, 6, 2},
	} {
		q1, q3 := quartiles(append([]float64(nil), tc.xs...))
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
		if got := spread(tc.xs); math.Abs(got-tc.spread) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", tc.xs, got, tc.spread)
		}
	}
}

func TestSpreadOfSteadyRunsIsSmall(t *testing.T) {
	if got := spread([]float64{100, 100, 100, 100}); got != 0 {
		t.Errorf("spread of identical runs = %v, want 0", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one run = %v, want 0", got)
	}
	// ±1% noise around 100 stays well inside a 0.05 bound's third.
	if got := spread([]float64{99, 100, 101, 100, 99.5, 100.5, 100, 99.8, 100.2, 100}); got > 0.05/3 {
		t.Errorf("spread = %v, want below %v", got, 0.05/3)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestSelfTimesAndCoverage(t *testing.T) {
	// One ask: 100ns ask span, an 90ns engine span inside it holding a
	// 60ns retrieve and a 20ns generate.
	spans := []span{
		{Ask: 1, Name: spanAsk, Parent: noParent, Start: 0, End: 100},
		{Ask: 1, Name: spanEngine, Parent: 0, Start: 10, End: 100},
		{Ask: 1, Name: spanRetrieve, Parent: 1, Start: 15, End: 75},
		{Ask: 1, Name: spanGenerate, Parent: 1, Start: 75, End: 95},
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{spanAsk: 10, spanEngine: 10, spanRetrieve: 60, spanGenerate: 20} {
		if got := self[name]; len(got) != 1 || got[0] != want {
			t.Errorf("self[%s] = %v, want [%v]", name, got, want)
		}
	}
	unattributed, overlap := coverage(spans)
	if math.Abs(unattributed-0.1) > 1e-12 || overlap != 0 {
		t.Errorf("coverage = %v, %v; want 0.1, 0", unattributed, overlap)
	}
	// A child that outlasts its parent shows as overrun.
	spans[2].End = 135
	if _, overlap := coverage(spans); math.Abs(overlap-0.5) > 1e-12 {
		t.Errorf("overrun = %v, want 0.5", overlap)
	}
}
