package core

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/units"
)

// PerformanceShares distributes *performance loss* proportionally to shares
// (Section 5.2, "Performance Shares"): applications with more shares suffer
// less slowdown relative to running alone at maximum frequency. It requires
// per-application performance feedback — IPS normalised to an offline
// standalone baseline — which makes it the most demanding policy and, as
// the paper observes, the least stable: IPS moves with program phase, so
// the loop keeps rebalancing.
//
// Targets are normalised performance limits derived from a water level:
// target_i = clamp(level · sᵢ/s_max, minNormPerf, 1).
type PerformanceShares struct {
	shareBase
	explain
	level   float64
	targets []float64
}

// minNormPerf is the floor for performance targets: the paper's share
// policies never starve, they hold applications at least at the minimum
// frequency, which corresponds to a small but positive normalised
// performance.
const minNormPerf = 0.02

// NewPerformanceShares builds the policy. Every spec must carry a
// standalone baseline.
func NewPerformanceShares(chip platform.Chip, specs []AppSpec, _ ShareConfig) (*PerformanceShares, error) {
	b, err := newShareBase(chip, specs)
	if err != nil {
		return nil, err
	}
	for _, s := range specs {
		if s.BaselineIPS <= 0 {
			return nil, fmt.Errorf("core: performance shares need BaselineIPS for %s", s.Name)
		}
	}
	return &PerformanceShares{shareBase: b}, nil
}

// Name implements Policy.
func (p *PerformanceShares) Name() string { return "performance-shares" }

// Targets exposes the current normalised performance limits.
func (p *PerformanceShares) Targets() []float64 {
	return append([]float64(nil), p.targets...)
}

func (p *PerformanceShares) bounds() (bases, lo, hi []float64) {
	maxShare := p.maxShare()
	bases, lo, hi = p.scrBases, p.scrLo, p.scrHi
	for i, s := range p.specs {
		bases[i] = s.Shares.Fraction(maxShare)
		lo[i] = minNormPerf
		hi[i] = 1
	}
	return bases, lo, hi
}

// materialize fills the normalised performance targets for the current
// level without allocating.
func (p *PerformanceShares) materialize(bases, lo, hi []float64) {
	if p.targets == nil {
		p.targets = make([]float64, len(p.specs))
	}
	applyLevelInto(p.targets, p.level, bases, lo, hi)
}

// Initial implements Policy: the highest-share application targets full
// standalone performance, the rest their share proportion of it. Without
// measurements yet, the first translation assumes performance tracks
// frequency.
func (p *PerformanceShares) Initial() []Action {
	p.setReasons(ReasonInitial)
	p.level = 1
	bases, lo, hi := p.bounds()
	p.materialize(bases, lo, hi)
	freqs := p.scrFreqs
	for i := range p.specs {
		f := units.Hertz(p.targets[i] * float64(p.chip.Freq.Max()))
		freqs[i] = f.Clamp(p.chip.Freq.Min, p.ceiling(i))
	}
	return p.translate(freqs)
}

// Update implements Policy: the power gap becomes a performance budget
// (α · MaxPerformance · NumAvailableCores with MaxPerformance = 1 in
// normalised units) absorbed by moving the water level; the translation
// scales each core's frequency by the ratio of its target to its measured
// normalised performance.
func (p *PerformanceShares) Update(s Snapshot) []Action {
	if p.targets == nil {
		p.Initial()
	}
	bases, lo, hi := p.bounds()
	if !p.withinDeadband(s) {
		p.setReasons(gapReason(s), ReasonShareRebalance)
		perfDelta := p.alpha(s) * 1.0 * float64(len(p.specs))
		var cur float64
		for _, t := range p.targets {
			cur += t
		}
		p.level = solveLevel(bases, lo, hi, cur+perfDelta)
		p.materialize(bases, lo, hi)
	} else {
		p.setReasons(ReasonWithinDeadband, ReasonTranslateOnly)
	}
	// Translation always runs: even inside the deadband, measured
	// performance drifts with program phase and the frequencies must track
	// the existing targets.
	freqs := p.scrFreqs
	for i, spec := range p.specs {
		st := stateForHint(s, spec.Core, i)
		var f units.Hertz
		switch {
		case st == nil || st.Freq <= 0 || st.NormPerf() <= 1e-3:
			// No useful measurement yet: assume performance tracks
			// frequency.
			f = units.Hertz(p.targets[i] * float64(p.chip.Freq.Max()))
		default:
			f = st.Freq * units.Hertz(p.targets[i]/st.NormPerf())
		}
		freqs[i] = f.Clamp(p.chip.Freq.Min, p.ceiling(i))
	}
	return p.translate(freqs)
}
