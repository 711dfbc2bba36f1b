package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/units"
)

// ConsolidationCell is one priority variant's outcome.
type ConsolidationCell struct {
	Variant  string // "starve-all" (the paper's choice) or "partial"
	HPFreq   units.Hertz
	HPNorm   float64
	LPActive int     // LP applications left running
	LPNorm   float64 // mean normalised perf over ALL LP apps (parked = 0)
	Package  units.Watts
}

// ConsolidationResult quantifies the paper's Section 4.4 starvation
// alternative at 40 W with 3 HP and 7 LP applications: the paper's
// implementation starves the whole LP class and spends the freed power on
// HP turbo ("we starve the LP applications"); the partial variant parks
// only as many LP cores as necessary, trading HP turbo headroom for LP
// progress.
type ConsolidationResult struct {
	Cells []ConsolidationCell
}

// ConsolidationStudy runs both variants on the paper's central scenario —
// two low-demand high-priority applications (leela) with eight LP
// applications behind them at 40 W. The residual power affords *some* LP
// applications but not the whole class at once, which is exactly where the
// two variants diverge: starve-all leaves the residual to HP turbo,
// partial spends it on LP progress.
func ConsolidationStudy() (ConsolidationResult, error) {
	chip := platform.Skylake()
	names := []string{"leela", "leela",
		"cactusBSSN", "cactusBSSN", "cactusBSSN", "cactusBSSN",
		"leela", "leela", "leela", "leela"}
	hp := []bool{true, true, false, false, false, false, false, false, false, false}

	run := func(partial bool) (ConsolidationCell, error) {
		variant := "starve-all"
		if partial {
			variant = "partial"
		}
		// Build through the generic runner but with a custom policy: the
		// by-name builder doesn't know about PartialLP.
		cfg := RunConfig{
			Chip: chip, Names: names, HP: hp,
			Policy: PriorityPol, Limit: 40,
			Warmup: 60 * time.Second, Window: 20 * time.Second,
		}
		specs, err := buildSpecs(cfg)
		if err != nil {
			return ConsolidationCell{}, err
		}
		pol, err := core.NewPriority(chip, specs, core.PriorityConfig{Limit: 40, PartialLP: partial})
		if err != nil {
			return ConsolidationCell{}, err
		}
		res, err := runWithPolicy(cfg, specs, pol)
		if err != nil {
			return ConsolidationCell{}, err
		}
		cell := ConsolidationCell{Variant: variant, Package: res.PackagePower}
		hpF, _, _, _ := classMeans(res, func(i int) bool { return i < 2 })
		cell.HPFreq = hpF
		cell.HPNorm = normMean(chip, names[:2], res, 0)
		cell.LPNorm = normMean(chip, names[2:], res, 2)
		for i := 2; i < len(names); i++ {
			if !res.Parked[i] {
				cell.LPActive++
			}
		}
		return cell, nil
	}

	var out ConsolidationResult
	for _, partial := range []bool{false, true} {
		cell, err := run(partial)
		if err != nil {
			return ConsolidationResult{}, err
		}
		out.Cells = append(out.Cells, cell)
	}
	return out, nil
}

// Tables renders the study.
func (r ConsolidationResult) Tables() []trace.Table {
	t := trace.Table{
		Title:  "Consolidation study (Section 4.4): starve-all vs partial LP starvation, 2 LDHP + 8 LP @ 40 W",
		Header: []string{"variant", "HP MHz", "HP norm", "LP running", "LP norm", "pkg W"},
	}
	for _, c := range r.Cells {
		t.AddRow(c.Variant, trace.Hz(c.HPFreq), trace.F(c.HPNorm, 3),
			trace.F(float64(c.LPActive), 0), trace.F(c.LPNorm, 3), trace.W(c.Package))
	}
	return []trace.Table{t}
}
