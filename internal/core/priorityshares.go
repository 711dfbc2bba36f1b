package core

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/units"
)

// PriorityShares composes the paper's two policy classes the way
// Section 5.1 describes: "If the total power is above the target, the
// daemon lowers the P-state of all HP applications... This uses one of the
// proportional share policies described below." Applications are split
// into the HP and LP priority classes; *within* each class, frequency is
// distributed by shares through the same water-level mechanism as the
// standalone frequency-share policy. The plain Priority policy is the
// degenerate case where every application in a class holds equal shares
// ("in the absence of a separate proportional share policy, all HP and all
// LP applications run at the same P-states").
type PriorityShares struct {
	explain
	chip    platform.Chip
	specs   []AppSpec
	partial bool
	hp, lp  []int // indices into specs

	hpLevel  float64
	lpLevel  float64
	lpActive int

	// Per-interval scratch, sized for the full spec set and sliced down to
	// the class being worked on. Class use is strictly sequential (the HP
	// targets are consumed into actions before the LP targets are computed)
	// so one shared set suffices. The Action slice actions() returns is
	// owned by this scratch: valid until the next Initial/Update call.
	scrBases []float64
	scrLo    []float64
	scrHi    []float64
	scrLvl   []float64
	scrT     []units.Hertz
	scrFreqs []units.Hertz
	scrActs  []Action
	cluster  *pstateClusterer
}

// NewPriorityShares builds the composed policy. Every spec needs positive
// shares; the HighPriority flag selects the class.
func NewPriorityShares(chip platform.Chip, specs []AppSpec, cfg PriorityConfig) (*PriorityShares, error) {
	if err := chip.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := validateSpecs(specs, true); err != nil {
		return nil, err
	}
	if cfg.Limit <= 0 {
		return nil, fmt.Errorf("core: priority policy needs a positive power limit")
	}
	p := &PriorityShares{
		chip:    chip,
		specs:   append([]AppSpec(nil), specs...),
		partial: cfg.PartialLP,
	}
	for i, s := range p.specs {
		if s.HighPriority {
			p.hp = append(p.hp, i)
		} else {
			p.lp = append(p.lp, i)
		}
	}
	if len(p.hp) == 0 {
		return nil, fmt.Errorf("core: priority policy needs at least one high-priority app")
	}
	n := len(p.specs)
	p.scrBases = make([]float64, n)
	p.scrLo = make([]float64, n)
	p.scrHi = make([]float64, n)
	p.scrLvl = make([]float64, n)
	p.scrT = make([]units.Hertz, n)
	p.scrFreqs = make([]units.Hertz, n)
	p.scrActs = make([]Action, 0, n)
	p.cluster = newPStateClusterer(n, chip.MaxSimultaneousPStates)
	return p, nil
}

// Name implements Policy.
func (p *PriorityShares) Name() string { return "priority+shares" }

// occupancy is the number of cores currently executing.
func (p *PriorityShares) occupancy() int { return len(p.hp) + p.lpActive }

// classBounds builds the water-level inputs for one class at the current
// occupancy.
func (p *PriorityShares) classBounds(idxs []int) (bases, lo, hi []float64) {
	var maxShare units.Shares
	for _, i := range idxs {
		if p.specs[i].Shares > maxShare {
			maxShare = p.specs[i].Shares
		}
	}
	n := len(idxs)
	bases, lo, hi = p.scrBases[:n], p.scrLo[:n], p.scrHi[:n]
	for k, i := range idxs {
		ceil := p.chip.Freq.Ceiling(p.occupancy(), p.specs[i].AVX)
		if mf := p.specs[i].MaxFreq; mf > 0 && mf < ceil {
			ceil = p.chip.Freq.Quantize(mf)
			if ceil < p.chip.Freq.Min {
				ceil = p.chip.Freq.Min
			}
		}
		bases[k] = float64(p.chip.Freq.Max()) * p.specs[i].Shares.Fraction(maxShare)
		lo[k] = float64(p.chip.Freq.Min)
		hi[k] = float64(ceil)
	}
	return bases, lo, hi
}

// classTargets materialises one class's per-app frequencies into the shared
// scratch; the result is valid until the next classTargets/moveLevel/
// classSaturated call.
func (p *PriorityShares) classTargets(idxs []int, level float64) []units.Hertz {
	bases, lo, hi := p.classBounds(idxs)
	lvl := p.scrLvl[:len(idxs)]
	applyLevelInto(lvl, level, bases, lo, hi)
	out := p.scrT[:len(idxs)]
	for i, t := range lvl {
		out[i] = units.Hertz(t)
	}
	return out
}

// moveLevel shifts a class's water level to absorb a total frequency delta.
func (p *PriorityShares) moveLevel(idxs []int, level, freqDelta float64) float64 {
	bases, lo, hi := p.classBounds(idxs)
	lvl := p.scrLvl[:len(idxs)]
	applyLevelInto(lvl, level, bases, lo, hi)
	var cur float64
	for _, t := range lvl {
		cur += t
	}
	return solveLevel(bases, lo, hi, cur+freqDelta)
}

// classSaturated reports whether a class can still move in the given
// direction (+1 up, -1 down).
func (p *PriorityShares) classSaturated(idxs []int, level float64, dir int) bool {
	bases, lo, hi := p.classBounds(idxs)
	ts := p.scrLvl[:len(idxs)]
	applyLevelInto(ts, level, bases, lo, hi)
	for i, t := range ts {
		if dir > 0 && t < hi[i]-1e-6 {
			return false
		}
		if dir < 0 && t > lo[i]+1e-6 {
			return false
		}
	}
	return true
}

// Initial implements Policy: HP starts at level 1 (highest-share HP app at
// its ceiling), LP parked.
func (p *PriorityShares) Initial() []Action {
	p.setReasons(ReasonInitial)
	p.hpLevel = 1
	p.lpLevel = 0
	p.lpActive = 0
	return p.actions()
}

func (p *PriorityShares) actions() []Action {
	out := p.scrActs[:0]
	hpT := p.classTargets(p.hp, p.hpLevel)
	for k, i := range p.hp {
		out = append(out, Action{Core: p.specs[i].Core, Freq: p.chip.Freq.Quantize(hpT[k])})
	}
	if p.lpActive > 0 {
		running := p.lp[:p.lpActive]
		lpT := p.classTargets(running, p.lpLevel)
		for k, i := range running {
			out = append(out, Action{Core: p.specs[i].Core, Freq: p.chip.Freq.Quantize(lpT[k])})
		}
	}
	for _, i := range p.lp[p.lpActive:] {
		out = append(out, Action{Core: p.specs[i].Core, Park: true})
	}
	// The platform's simultaneous-P-state limit applies across classes.
	if p.chip.MaxSimultaneousPStates > 0 {
		freqs := p.scrFreqs[:0]
		for _, a := range out {
			if !a.Park {
				freqs = append(freqs, a.Freq)
			}
		}
		p.cluster.clusterInto(freqs, freqs, p.chip.Freq)
		j := 0
		for i := range out {
			if !out[i].Park {
				out[i].Freq = freqs[j]
				j++
			}
		}
	}
	return out
}

// freqDelta converts the power gap into a class frequency budget (the α
// model, scaled by the class size).
func (p *PriorityShares) freqDelta(s Snapshot, classSize int) float64 {
	alpha := float64(s.Limit-s.PackagePower) / float64(p.chip.RAPLMax)
	d := alpha * float64(p.chip.Freq.Max()) * float64(classSize)
	step := float64(p.chip.Freq.Step)
	if d > 0 && d < step {
		d = step
	}
	if d < 0 && d > -step {
		d = -step
	}
	return d
}

// lpStartCost mirrors Priority.lpStartCost for n additional LP apps.
func (p *PriorityShares) lpStartCost(n int) units.Watts {
	cost := units.Watts(n) * p.chip.Power.CorePower(p.chip.Freq.Min, 1)
	ceilNow := p.chip.Freq.Ceiling(p.occupancy(), false)
	ceilAfter := p.chip.Freq.Ceiling(p.occupancy()+n, false)
	if ceilAfter < ceilNow {
		hpT := p.classTargets(p.hp, p.hpLevel)
		for k, i := range p.hp {
			if p.specs[i].AVX {
				continue
			}
			fNow := hpT[k].Clamp(p.chip.Freq.Min, ceilNow)
			fAfter := hpT[k].Clamp(p.chip.Freq.Min, ceilAfter)
			if fNow > fAfter {
				cost += p.chip.Power.CorePower(fNow, 1) - p.chip.Power.CorePower(fAfter, 1)
			}
		}
	}
	return cost
}

// Update implements Policy with the same ordering as Priority: LP pays
// first on the way down; HP is restored first on the way up.
func (p *PriorityShares) Update(s Snapshot) []Action {
	switch {
	case s.PackagePower > s.Limit:
		d := p.freqDelta(s, max(p.lpActive, 1)) // negative
		switch {
		case p.lpActive > 0 && !p.classSaturated(p.lp[:p.lpActive], p.lpLevel, -1):
			p.setReasons(ReasonPowerOverLimit, ReasonThrottleLP, ReasonShareRebalance)
			p.lpLevel = p.moveLevel(p.lp[:p.lpActive], p.lpLevel, d)
		case p.lpActive > 0:
			p.setReasons(ReasonPowerOverLimit, ReasonParkStarvedLP)
			if p.partial {
				p.lpActive--
			} else {
				p.lpActive = 0
			}
			p.lpLevel = 0
		default:
			p.setReasons(ReasonPowerOverLimit, ReasonThrottleHP, ReasonShareRebalance)
			p.hpLevel = p.moveLevel(p.hp, p.hpLevel, p.freqDelta(s, len(p.hp)))
		}
	case s.PackagePower < s.Limit*0.97:
		residual := s.Limit - s.PackagePower
		grow := 0
		if p.lpActive < len(p.lp) {
			if p.partial {
				grow = 1
			} else if p.lpActive == 0 {
				grow = len(p.lp)
			}
		}
		switch {
		case !p.classSaturated(p.hp, p.hpLevel, +1):
			p.setReasons(ReasonPowerUnderLimit, ReasonRestoreHP, ReasonShareRebalance)
			p.hpLevel = p.moveLevel(p.hp, p.hpLevel, p.freqDelta(s, len(p.hp)))
		case grow > 0 && residual > p.lpStartCost(grow)*1.2:
			p.setReasons(ReasonPowerUnderLimit, ReasonWakeLP)
			p.lpActive += grow
			p.lpLevel = 0
		case p.lpActive > 0 && !p.classSaturated(p.lp[:p.lpActive], p.lpLevel, +1):
			p.setReasons(ReasonPowerUnderLimit, ReasonRaiseLP, ReasonShareRebalance)
			p.lpLevel = p.moveLevel(p.lp[:p.lpActive], p.lpLevel, p.freqDelta(s, p.lpActive))
		default:
			p.setReasons(ReasonPowerUnderLimit, ReasonSaturated)
		}
	default:
		p.setReasons(ReasonWithinDeadband)
	}
	return p.actions()
}
