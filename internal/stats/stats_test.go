package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanMinMax(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if got := Mean(xs); got != 2.8 {
		t.Errorf("Mean = %v, want 2.8", got)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("Min = %v, want 1", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Errorf("Max = %v, want 5", got)
	}
}

func TestEmptySlices(t *testing.T) {
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty-slice aggregates should be zero")
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) should be zero")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := Percentile(xs, 50); got != 2.5 {
		t.Errorf("p50 = %v, want 2.5", got)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := Percentile(xs, 100); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	if got := Percentile(xs, 25); got != 1.75 {
		t.Errorf("p25 = %v, want 1.75", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{9, 1, 5}
	Percentile(xs, 90)
	if xs[0] != 9 || xs[1] != 1 || xs[2] != 5 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	qs := Quantiles(xs, 0, 50, 100)
	if qs[0] != 1 || qs[1] != 3 || qs[2] != 5 {
		t.Errorf("Quantiles = %v", qs)
	}
}

func TestSummarizeOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	b := Summarize(xs)
	if !(b.P1 <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.P99) {
		t.Errorf("box plot not ordered: %+v", b)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileProperties(t *testing.T) {
	prop := func(seed int64, pa, pb uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+rng.Intn(100))
		for i := range xs {
			xs[i] = rng.Float64()*200 - 100
		}
		lo, hi := float64(pa%101), float64(pb%101)
		if lo > hi {
			lo, hi = hi, lo
		}
		plo, phi := Percentile(xs, lo), Percentile(xs, hi)
		if plo > phi+1e-12 {
			return false
		}
		return plo >= slices.Min(xs)-1e-12 && phi <= slices.Max(xs)+1e-12
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestAccumulatorMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 1000)
	var acc Accumulator
	for i := range xs {
		xs[i] = rng.Float64() * 50
		acc.Add(xs[i])
	}
	if acc.Count() != len(xs) {
		t.Fatalf("Count = %d", acc.Count())
	}
	if !almostEqual(acc.Mean(), Mean(xs), 1e-9) {
		t.Errorf("Mean: acc=%v batch=%v", acc.Mean(), Mean(xs))
	}
	if acc.Max() != slices.Max(xs) {
		t.Errorf("Max: acc=%v batch=%v", acc.Max(), slices.Max(xs))
	}
}

func TestAccumulatorEmptyAndSingle(t *testing.T) {
	var acc Accumulator
	if acc.Mean() != 0 || acc.Max() != 0 {
		t.Error("empty accumulator should be zero")
	}
	acc.Add(5)
	if acc.Mean() != 5 || acc.Max() != 5 {
		t.Errorf("single-sample accumulator wrong: %+v", acc)
	}
}

// Property: median of sorted data equals middle element for odd lengths.
func TestMedianOdd(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2*rng.Intn(50) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		med := Percentile(xs, 50)
		sort.Float64s(xs)
		return almostEqual(med, xs[n/2], 1e-12)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
