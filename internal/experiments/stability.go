package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// StabilityCell quantifies one policy's control stability over a long
// steady-state run: how much the per-application frequency and normalised
// performance wobble once the loop has settled, and how often the policy
// actually moves a frequency target.
type StabilityCell struct {
	Policy PolicyKind

	// FreqStdDev is the per-app standard deviation of measured frequency
	// across control intervals, averaged over apps (MHz of churn).
	FreqStdDev units.Hertz

	// PerfStdDev is the same for normalised performance.
	PerfStdDev float64

	// MoveRate is the fraction of control intervals in which at least one
	// application's measured frequency moved by more than one P-state
	// quantum — the "control operations to rebalance power" the paper
	// attributes to phase-driven IPS noise.
	MoveRate float64

	Package units.Watts
}

// StabilityResult reproduces the paper's Section 6.2 stability claim:
// "frequency is stable while running, while performance is measured as IPS
// relative to the long-term average... small phase changes can affect
// performance, leading to control operations to rebalance power", and
// power shares inherit the same phase noise through measured activity.
type StabilityResult struct {
	Chip  string
	Cells []StabilityCell
}

// StabilityStudy runs leela/cactusBSSN (both carry phase trains) 50/50 on
// Ryzen at 40 W for 150 control intervals under each share policy and
// measures steady-state churn after discarding the first 30 intervals.
func StabilityStudy() (StabilityResult, error) {
	chip := platform.Ryzen()
	out := StabilityResult{Chip: chip.Name}
	names := []string{"leela", "leela", "leela", "leela",
		"cactusBSSN", "cactusBSSN", "cactusBSSN", "cactusBSSN"}
	for _, kind := range []PolicyKind{FreqShares, PerfShares, PowerShares} {
		cell, err := stabilityRun(chip, names, kind)
		if err != nil {
			return StabilityResult{}, fmt.Errorf("stability %s: %w", kind, err)
		}
		out.Cells = append(out.Cells, cell)
	}
	return out, nil
}

func stabilityRun(chip platform.Chip, names []string, kind PolicyKind) (StabilityCell, error) {
	const (
		totalIters = 150
		warmIters  = 30
	)
	specs := make([]core.AppSpec, len(names))
	for i, n := range names {
		specs[i] = core.AppSpec{
			Name: n, Core: i, Shares: 50, AVX: workload.MustByName(n).AVX,
			BaselineIPS: StandaloneIPS(chip, n),
		}
	}
	pol, err := policyFor(string(kind), chip, specs, 40)
	if err != nil {
		return StabilityCell{}, err
	}

	// Record each control interval's per-app frequency and normalised
	// performance.
	freqSeries := make([][]float64, len(specs))
	perfSeries := make([][]float64, len(specs))
	var pkg stats.Accumulator
	iter := 0
	moves := 0
	prevFreqs := make([]units.Hertz, len(specs))
	err = withNode(node.Spec{
		Chip: chip, Apps: specs, Policy: pol, Limit: 40,
		OnSnapshot: func(s core.Snapshot) {
			iter++
			if iter <= warmIters {
				for i, a := range s.Apps {
					prevFreqs[i] = a.Freq
				}
				return
			}
			moved := false
			for i, a := range s.Apps {
				freqSeries[i] = append(freqSeries[i], float64(a.Freq))
				perfSeries[i] = append(perfSeries[i], a.NormPerf())
				if diff := a.Freq - prevFreqs[i]; diff > chip.Freq.Step || diff < -chip.Freq.Step {
					moved = true
				}
				prevFreqs[i] = a.Freq
			}
			if moved {
				moves++
			}
			pkg.Add(float64(s.PackagePower))
		},
	}, func(n *node.Node) error { return n.Run(time.Duration(totalIters+1) * time.Second) })
	if err != nil {
		return StabilityCell{}, err
	}

	cell := StabilityCell{Policy: kind, Package: units.Watts(pkg.Mean())}
	var fsum, psum float64
	for i := range specs {
		fsum += stats.StdDev(freqSeries[i])
		psum += stats.StdDev(perfSeries[i])
	}
	cell.FreqStdDev = units.Hertz(fsum / float64(len(specs)))
	cell.PerfStdDev = psum / float64(len(specs))
	measured := iter - warmIters
	if measured > 0 {
		cell.MoveRate = float64(moves) / float64(measured)
	}
	return cell, nil
}

// Tables renders the result.
func (r StabilityResult) Tables() []trace.Table {
	t := trace.Table{
		Title:  "Stability study (Section 6.2): steady-state control churn on " + r.Chip + " @ 40 W, 50/50 shares",
		Header: []string{"policy", "freq stddev (MHz)", "norm perf stddev", "move rate", "pkg W"},
	}
	for _, c := range r.Cells {
		t.AddRow(string(c.Policy), trace.F(c.FreqStdDev.MHzF(), 1),
			trace.F(c.PerfStdDev, 4), trace.Pct(c.MoveRate), trace.W(c.Package))
	}
	return []trace.Table{t}
}
