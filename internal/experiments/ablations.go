package experiments

// Ablations of the design choices DESIGN.md calls out: the Ryzen
// 3-P-state clustering, the daemon's control interval, and the share
// loops' deadband.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/units"
)

// ClusteringAblationResult compares frequency shares on Ryzen with the
// platform's real 3-simultaneous-P-state constraint against a hypothetical
// unconstrained chip: how much fidelity the clustering utility costs.
type ClusteringAblationResult struct {
	Limit units.Watts

	// DistinctConstrained counts distinct measured frequencies with the
	// constraint (must be <= 3); DistinctFree without.
	DistinctConstrained int
	DistinctFree        int

	// MeanAbsDiff is the mean per-app |constrained − unconstrained|
	// frequency difference.
	MeanAbsDiff units.Hertz

	// ShareErrConstrained / ShareErrFree are the mean absolute deviations
	// between each app's delivered frequency fraction and its share
	// fraction.
	ShareErrConstrained float64
	ShareErrFree        float64
}

// AblationClustering runs eight distinct share levels on Ryzen at 40 W,
// once with the real 3-P-state limit and once without.
func AblationClustering() (ClusteringAblationResult, error) {
	shares := []units.Shares{100, 85, 70, 60, 50, 40, 30, 20}
	names := make([]string, len(shares))
	for i := range names {
		names[i] = "leela"
	}
	run := func(chip platform.Chip) (RunResult, error) {
		return Run(RunConfig{
			Chip: chip, Names: names, Shares: shares,
			Policy: FreqShares, Limit: 40,
			Warmup: 40 * time.Second, Window: 20 * time.Second,
		})
	}
	constrainedChip := platform.Ryzen()
	freeChip := platform.Ryzen()
	freeChip.MaxSimultaneousPStates = 0

	constrained, err := run(constrainedChip)
	if err != nil {
		return ClusteringAblationResult{}, err
	}
	free, err := run(freeChip)
	if err != nil {
		return ClusteringAblationResult{}, err
	}

	res := ClusteringAblationResult{Limit: 40}
	res.DistinctConstrained = distinctFreqs(constrained, len(shares), constrainedChip.Freq.Step)
	res.DistinctFree = distinctFreqs(free, len(shares), freeChip.Freq.Step)
	var diff float64
	for i := range shares {
		diff += math.Abs(float64(constrained.Cores[i].MeanFreq - free.Cores[i].MeanFreq))
	}
	res.MeanAbsDiff = units.Hertz(diff / float64(len(shares)))
	res.ShareErrConstrained = shareError(constrained, shares)
	res.ShareErrFree = shareError(free, shares)
	return res, nil
}

// distinctFreqs counts distinct measured frequencies, bucketed to the
// P-state step so measurement noise does not inflate the count.
func distinctFreqs(r RunResult, n int, step units.Hertz) int {
	set := make(map[int64]bool)
	for i := 0; i < n; i++ {
		set[int64(r.Cores[i].MeanFreq.QuantizeNearest(step))] = true
	}
	return len(set)
}

// shareError measures how far delivered frequency fractions sit from share
// fractions.
func shareError(r RunResult, shares []units.Shares) float64 {
	var totF float64
	var totS units.Shares
	for i, s := range shares {
		totF += float64(r.Cores[i].MeanFreq)
		totS += s
	}
	if totF <= 0 {
		return 0
	}
	var err float64
	for i, s := range shares {
		err += math.Abs(float64(r.Cores[i].MeanFreq)/totF - s.Fraction(totS))
	}
	return err / float64(len(shares))
}

// Tables renders the ablation.
func (r ClusteringAblationResult) Tables() []trace.Table {
	t := trace.Table{
		Title:  "Ablation: Ryzen 3-P-state clustering vs unconstrained per-core DVFS (frequency shares @ 40 W)",
		Header: []string{"variant", "distinct P-states", "share tracking error", "mean |Δf| vs free"},
	}
	t.AddRow("3 P-states (real chip)", fmt.Sprintf("%d", r.DistinctConstrained),
		trace.Pct(r.ShareErrConstrained), trace.Hz(r.MeanAbsDiff))
	t.AddRow("unconstrained", fmt.Sprintf("%d", r.DistinctFree),
		trace.Pct(r.ShareErrFree), "0")
	return []trace.Table{t}
}

// IntervalAblationResult measures how the daemon's control interval trades
// settling time: the virtual time from a cold start until package power
// first holds within 5% of the limit.
type IntervalAblationResult struct {
	Rows []IntervalAblationRow
}

// IntervalAblationRow is one control interval's outcome.
type IntervalAblationRow struct {
	Interval   time.Duration
	SettleTime time.Duration // zero if never settled
	FinalPower units.Watts
	Iterations int
}

// AblationInterval runs frequency shares (10 cactusBSSN on Skylake, 40 W)
// at several control intervals.
func AblationInterval() (IntervalAblationResult, error) {
	var out IntervalAblationResult
	for _, interval := range []time.Duration{time.Second, 250 * time.Millisecond, 100 * time.Millisecond} {
		row, err := intervalRun(interval)
		if err != nil {
			return IntervalAblationResult{}, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func intervalRun(interval time.Duration) (IntervalAblationRow, error) {
	chip := platform.Skylake()
	specs := make([]core.AppSpec, 10)
	for i := range specs {
		specs[i] = core.AppSpec{Name: "cactusBSSN", Core: i, Shares: 50}
	}
	const limit = 40
	pol, err := policyFor(string(FreqShares), chip, specs, limit)
	if err != nil {
		return IntervalAblationRow{}, err
	}
	row := IntervalAblationRow{Interval: interval}
	settled := time.Duration(0)
	err = withNode(node.Spec{
		Chip: chip, Apps: specs, Policy: pol, Limit: limit, Interval: interval,
		OnSnapshot: func(s core.Snapshot) {
			row.Iterations++
			gap := float64(s.PackagePower - limit)
			if gap < 0 {
				gap = -gap
			}
			if settled == 0 && gap <= 0.05*limit {
				settled = s.Time
			}
			row.FinalPower = s.PackagePower
		},
	}, func(n *node.Node) error { return n.Run(60 * time.Second) })
	if err != nil {
		return IntervalAblationRow{}, err
	}
	row.SettleTime = settled
	return row, nil
}

// Tables renders the ablation.
func (r IntervalAblationResult) Tables() []trace.Table {
	t := trace.Table{
		Title:  "Ablation: control interval vs settling time (frequency shares, 10x cactusBSSN @ 40 W)",
		Header: []string{"interval", "settle time", "final pkg W", "iterations"},
	}
	for _, row := range r.Rows {
		settle := "never"
		if row.SettleTime > 0 {
			settle = row.SettleTime.String()
		}
		t.AddRow(row.Interval.String(), settle, trace.W(row.FinalPower), fmt.Sprintf("%d", row.Iterations))
	}
	return []trace.Table{t}
}
