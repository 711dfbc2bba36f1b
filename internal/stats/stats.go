// Package stats provides the small statistical toolkit the experiment
// harnesses need: means, percentiles, five-number box-plot summaries (the
// paper's Figures 2 and 3 are box plots over the SPEC2017 subset), and an
// online accumulator for streaming telemetry.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or zero for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mu := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - mu
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns zero for an empty slice.
// The input is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted computes a percentile over an already-sorted slice
// without copying it — the allocation-free fast path for callers that
// sort once and read several percentiles (e.g. a latency window's
// p50/p90/p99 inside the control loop).
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	lo, hi, frac := closestRanks(len(sorted), p)
	if lo == hi {
		return sorted[lo]
	}
	return interpolate(sorted[lo], sorted[hi], frac)
}

// closestRanks maps the p-th percentile of n > 0 sorted samples to the
// two closest ranks and the weight of the upper one; lo == hi when the
// percentile falls exactly on a sample. It and interpolate are the one
// definition of a percentile in this package: PercentileSorted and
// OrderWindow.Percentile both go through them, which is what keeps the
// two bit-identical.
func closestRanks(n int, p float64) (lo, hi int, frac float64) {
	if p <= 0 {
		return 0, 0, 0
	}
	if p >= 100 {
		return n - 1, n - 1, 0
	}
	rank := p / 100 * float64(n-1)
	lo = int(math.Floor(rank))
	hi = int(math.Ceil(rank))
	return lo, hi, rank - float64(lo)
}

func interpolate(lo, hi, frac float64) float64 {
	return lo*(1-frac) + hi*frac
}

// Quantiles returns several percentiles in one pass over a single sort.
func Quantiles(xs []float64, ps ...float64) []float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = PercentileSorted(sorted, p)
	}
	return out
}

// BoxPlot is the five-number summary used for the paper's DVFS sweep
// figures: median, first and third quartiles, and the 1st and 99th
// percentiles as whiskers, matching the figure captions.
type BoxPlot struct {
	P1, Q1, Median, Q3, P99 float64
}

// Summarize computes the box-plot summary of xs.
func Summarize(xs []float64) BoxPlot {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return BoxPlot{
		P1:     PercentileSorted(sorted, 1),
		Q1:     PercentileSorted(sorted, 25),
		Median: PercentileSorted(sorted, 50),
		Q3:     PercentileSorted(sorted, 75),
		P99:    PercentileSorted(sorted, 99),
	}
}

// String renders the summary compactly for experiment tables.
func (b BoxPlot) String() string {
	return fmt.Sprintf("p1=%.3f q1=%.3f med=%.3f q3=%.3f p99=%.3f",
		b.P1, b.Q1, b.Median, b.Q3, b.P99)
}

// Accumulator maintains a running count, mean and max. It is suitable for
// streaming telemetry samples where retaining the full series is
// unnecessary.
type Accumulator struct {
	n         int
	mean, max float64
}

// Add folds x into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 || x > a.max {
		a.max = x
	}
	a.mean += (x - a.mean) / float64(a.n)
}

// Count reports the number of samples added.
func (a *Accumulator) Count() int { return a.n }

// Mean reports the running mean, or zero before any sample.
func (a *Accumulator) Mean() float64 { return a.mean }

// Max reports the largest sample, or zero before any sample.
func (a *Accumulator) Max() float64 { return a.max }
