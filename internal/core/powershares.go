package core

import (
	"fmt"
	"math"

	"repro/internal/platform"
	"repro/internal/units"
)

// PowerShares distributes *power* proportionally to shares (Section 5.2,
// "Power Shares"): each application's core should draw its share of the
// package budget. It requires per-core power measurement, which only the
// Ryzen platform provides, and as the paper finds it gives the weakest
// performance isolation — equal power means very different performance
// across demand classes.
//
// Targets are per-core power limits derived from a water level:
// target_i = clamp(level · budget · sᵢ/Σs, Pmin, Pmaxᵢ) where budget is the
// package limit minus the estimated non-core overhead.
type PowerShares struct {
	shareBase
	explain
	level   float64
	limit   units.Watts // the limit the bases were computed for
	targets []units.Watts
}

// powerFreqExponent is the assumed local exponent of core power in
// frequency (P ∝ f^e with V rising linearly in f). The translation damps
// its multiplicative correction with 1/e so a 2x power error moves
// frequency by 2^(1/e), not 2x — an undamped correction overshoots and the
// loop limit-cycles.
const powerFreqExponent = 2.5

// NewPowerShares builds the policy; it fails on chips without per-core
// power measurement (the paper runs power shares only on Ryzen).
func NewPowerShares(chip platform.Chip, specs []AppSpec, _ ShareConfig) (*PowerShares, error) {
	b, err := newShareBase(chip, specs)
	if err != nil {
		return nil, err
	}
	if !chip.PerCorePower {
		return nil, fmt.Errorf("core: power shares need per-core power measurement, which %s lacks", chip.Name)
	}
	return &PowerShares{shareBase: b}, nil
}

// Name implements Policy.
func (p *PowerShares) Name() string { return "power-shares" }

// Targets exposes the current per-app power limits.
func (p *PowerShares) Targets() []units.Watts {
	return append([]units.Watts(nil), p.targets...)
}

// budget is the package limit minus the estimated non-core overhead
// (uncore plus idle cores' residual draw).
func (p *PowerShares) budget(limit units.Watts) units.Watts {
	idle := p.chip.NumCores - len(p.specs)
	if idle < 0 {
		idle = 0
	}
	b := limit - p.chip.Power.UncorePower - units.Watts(idle)*p.chip.Power.IdleCorePower
	if b < 0 {
		b = 0
	}
	return b
}

func (p *PowerShares) bounds(limit units.Watts) (bases, lo, hi []float64) {
	var total units.Shares
	for _, s := range p.specs {
		total += s.Shares
	}
	budget := float64(p.budget(limit))
	bases, lo, hi = p.scrBases, p.scrLo, p.scrHi
	pmin := float64(p.chip.Power.CorePower(p.chip.Freq.Min, 1))
	for i, s := range p.specs {
		bases[i] = budget * s.Shares.Fraction(total)
		lo[i] = pmin
		hi[i] = float64(p.chip.Power.CorePower(p.ceiling(i), 1.6))
	}
	return bases, lo, hi
}

func (p *PowerShares) materialize(bases, lo, hi []float64) {
	if p.targets == nil {
		p.targets = make([]units.Watts, len(p.specs))
	}
	applyLevelInto(p.scrLvl, p.level, bases, lo, hi)
	for i, t := range p.scrLvl {
		p.targets[i] = units.Watts(t)
	}
}

// linearFreq is the paper's "simple linear equation" mapping a power target
// onto the frequency range, used before feedback exists.
func (p *PowerShares) linearFreq(i int, w units.Watts) units.Hertz {
	lo := p.chip.Power.CorePower(p.chip.Freq.Min, 1)
	hi := p.chip.Power.CorePower(p.ceiling(i), 1.6)
	frac := float64((w - lo) / (hi - lo))
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	f := p.chip.Freq.Min + units.Hertz(frac*float64(p.ceiling(i)-p.chip.Freq.Min))
	return f.Clamp(p.chip.Freq.Min, p.ceiling(i))
}

// InitialForLimit computes the initial distribution for a given package
// limit: per-application power limits in share proportion of the core
// budget, translated to frequencies through the linear power model
// (modelling error is corrected by the feedback loop).
func (p *PowerShares) InitialForLimit(limit units.Watts) []Action {
	p.setReasons(ReasonInitial)
	p.level = 1
	p.limit = limit
	bases, lo, hi := p.bounds(limit)
	p.materialize(bases, lo, hi)
	freqs := p.scrFreqs
	for i := range p.specs {
		freqs[i] = p.linearFreq(i, p.targets[i])
	}
	return p.translate(freqs)
}

// Initial implements Policy using the chip's maximum RAPL limit; daemons
// that know the actual limit should call InitialForLimit.
func (p *PowerShares) Initial() []Action {
	return p.InitialForLimit(p.chip.RAPLMax)
}

// Update implements Policy: the power gap moves the water level directly
// (power is the shared resource, so no α conversion is needed), and the
// translation scales each core's frequency by the damped ratio of its power
// limit to its measured power.
func (p *PowerShares) Update(s Snapshot) []Action {
	limitChanged := p.targets != nil && p.limit != s.Limit
	if p.targets == nil || limitChanged {
		p.InitialForLimit(s.Limit)
	}
	bases, lo, hi := p.bounds(s.Limit)
	if !p.withinDeadband(s) {
		p.setReasons(gapReason(s), ReasonShareRebalance)
		delta := float64(s.Limit - s.PackagePower)
		var cur float64
		for _, t := range p.targets {
			cur += float64(t)
		}
		p.level = solveLevel(bases, lo, hi, cur+delta)
		p.materialize(bases, lo, hi)
	} else {
		p.setReasons(ReasonWithinDeadband, ReasonTranslateOnly)
	}
	if limitChanged {
		p.prependReason(ReasonLimitChange)
	}
	freqs := p.scrFreqs
	for i, spec := range p.specs {
		st := stateForHint(s, spec.Core, i)
		var f units.Hertz
		switch {
		case st == nil || st.Freq <= 0 || st.Power <= 0.01:
			f = p.linearFreq(i, p.targets[i])
		default:
			ratio := math.Pow(float64(p.targets[i]/st.Power), 1/powerFreqExponent)
			f = st.Freq * units.Hertz(ratio)
		}
		freqs[i] = f.Clamp(p.chip.Freq.Min, p.ceiling(i))
	}
	return p.translate(freqs)
}
