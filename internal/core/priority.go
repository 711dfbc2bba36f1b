package core

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/units"
)

// Priority implements the paper's two-level priority policy (Sections 4.1
// and 5.1): high-priority (HP) applications run at the maximum possible
// frequency under the power limit; low-priority (LP) applications are
// started at the slowest P-state only when residual power allows, raised
// with the residual, and starved (cores parked in a deep C-state) when it
// does not. Starving LP applications deliberately frees turbo headroom for
// the HP class — the paper's chosen trade-off ("in our implementation we
// starve the LP applications"), which is why Figure 7 shows HP applications
// running *faster* at 40 W than at 85 W when most of the machine is LP.
type Priority struct {
	explain
	chip     platform.Chip
	specs    []AppSpec
	limit    units.Watts
	partial  bool
	hp, lp   []int // indices into specs
	hpFreq   units.Hertz
	lpFreq   units.Hertz
	lpActive int // number of LP apps currently running (0 = class starved)

	// scrActs is the reusable action buffer; the slice actions() returns is
	// valid until the next Initial/Update call, per the Policy contract.
	scrActs []Action
}

// PriorityConfig parameterises the priority policy.
type PriorityConfig struct {
	// Limit is the package power limit the policy enforces.
	Limit units.Watts

	// PartialLP enables the paper's Section 4.4 alternative: instead of
	// starving the low-priority class all-or-nothing, park only as many
	// LP cores as the residual power requires ("the policy should disable
	// cores and let the OS scheduler time-slice applications on the
	// remaining cores"). LP cores are parked from the highest index down.
	// The trade-off is real: running LP cores raises occupancy, which can
	// shrink the HP class's turbo bin.
	PartialLP bool
}

// NewPriority builds the policy. Shares are ignored; only the
// HighPriority flag of each spec matters.
func NewPriority(chip platform.Chip, specs []AppSpec, cfg PriorityConfig) (*Priority, error) {
	if err := chip.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := validateSpecs(specs, false); err != nil {
		return nil, err
	}
	if cfg.Limit <= 0 {
		return nil, fmt.Errorf("core: priority policy needs a positive power limit")
	}
	p := &Priority{
		chip:    chip,
		specs:   append([]AppSpec(nil), specs...),
		limit:   cfg.Limit,
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
	p.scrActs = make([]Action, 0, len(p.specs))
	return p, nil
}

// Name implements Policy.
func (p *Priority) Name() string { return "priority" }

// hpCeiling is the HP class's frequency ceiling at the current occupancy.
func (p *Priority) hpCeiling() units.Hertz {
	active := len(p.hp) + p.lpActive
	ceil := p.chip.Freq.Max()
	for _, i := range p.hp {
		if c := p.chip.Freq.Ceiling(active, p.specs[i].AVX); c < ceil {
			ceil = c
		}
	}
	return ceil
}

// Initial implements Policy: HP applications start at the maximum P-state;
// LP applications start parked, awaiting residual power.
func (p *Priority) Initial() []Action {
	p.setReasons(ReasonInitial)
	p.lpActive = 0
	p.lpFreq = p.chip.Freq.Min
	p.hpFreq = p.hpCeiling()
	return p.actions()
}

func (p *Priority) actions() []Action {
	// Internal class frequencies stay continuous (the α-model control
	// state); emitted actions are quantised to valid P-states.
	hpF := p.chip.Freq.Quantize(p.hpFreq)
	lpF := p.chip.Freq.Quantize(p.lpFreq)
	out := p.scrActs[:0]
	for _, i := range p.hp {
		out = append(out, Action{Core: p.specs[i].Core, Freq: hpF})
	}
	for k, i := range p.lp {
		if k < p.lpActive {
			out = append(out, Action{Core: p.specs[i].Core, Freq: lpF})
		} else {
			out = append(out, Action{Core: p.specs[i].Core, Park: true})
		}
	}
	return out
}

// lpStartCost estimates the package power cost of waking n more LP
// applications at the minimum frequency: the LP cores' own draw plus the
// HP class's extra draw from losing turbo headroom (higher occupancy
// lowers the turbo bin). Activity is unknown before the apps run, so
// nominal activity 1.0 is assumed; the margin in Update absorbs the
// estimate's error.
func (p *Priority) lpStartCost(n int) units.Watts {
	cost := units.Watts(n) * p.chip.Power.CorePower(p.chip.Freq.Min, 1)
	ceilNow := p.chip.Freq.Ceiling(len(p.hp)+p.lpActive, false)
	ceilAfter := p.chip.Freq.Ceiling(len(p.hp)+p.lpActive+n, false)
	for _, i := range p.hp {
		if p.specs[i].AVX {
			continue // AVX licence already binds; occupancy change is secondary
		}
		fNow := p.hpFreq
		if ceilNow < fNow {
			fNow = ceilNow
		}
		fAfter := p.hpFreq
		if ceilAfter < fAfter {
			fAfter = ceilAfter
		}
		if fNow > fAfter {
			cost += p.chip.Power.CorePower(fNow, 1) - p.chip.Power.CorePower(fAfter, 1)
		}
	}
	return cost
}

// freqDelta converts the power gap into a per-core frequency step with the
// paper's α model (α = PowerDelta/MaxPower scaled by the frequency range),
// so the loop settles in a few control intervals regardless of the chip's
// P-state granularity (Ryzen's 25 MHz quanta would otherwise take minutes
// of one-step moves). The magnitude is floored at one quantum so the loop
// never stalls.
func (p *Priority) freqDelta(s Snapshot) units.Hertz {
	gap := float64(s.Limit - s.PackagePower)
	d := units.Hertz(gap / float64(p.chip.RAPLMax) * float64(p.chip.Freq.Max()))
	if d > 0 && d < p.chip.Freq.Step {
		d = p.chip.Freq.Step
	}
	if d < 0 && d > -p.chip.Freq.Step {
		d = -p.chip.Freq.Step
	}
	return d
}

// Update implements Policy. Over the limit it takes power from the LP
// class first (throttle, then starve — one app at a time in partial mode,
// the whole class otherwise); only with LP fully starved does it throttle
// HP. Under the limit it restores HP to maximum first, then wakes LP
// applications the residual affords, then raises the LP frequency.
func (p *Priority) Update(s Snapshot) []Action {
	switch {
	case s.PackagePower > s.Limit:
		d := p.freqDelta(s) // negative
		switch {
		case p.lpActive > 0 && p.lpFreq > p.chip.Freq.Min:
			p.setReasons(ReasonPowerOverLimit, ReasonThrottleLP)
			p.lpFreq = (p.lpFreq + d).Clamp(p.chip.Freq.Min, p.lpCeiling())
		case p.lpActive > 0:
			// LP already at the floor: starve one app (partial mode) or
			// the whole class (the paper's implementation).
			p.setReasons(ReasonPowerOverLimit, ReasonParkStarvedLP)
			if p.partial {
				p.lpActive--
			} else {
				p.lpActive = 0
			}
			p.lpFreq = p.chip.Freq.Min
		case p.hpFreq > p.chip.Freq.Min:
			p.setReasons(ReasonPowerOverLimit, ReasonThrottleHP)
			p.hpFreq = (p.hpFreq + d).Clamp(p.chip.Freq.Min, p.hpCeiling())
		default:
			p.setReasons(ReasonPowerOverLimit, ReasonSaturated)
		}
	case s.PackagePower < s.Limit*0.97:
		d := p.freqDelta(s) // positive
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
		case p.hpFreq < p.hpCeiling():
			p.setReasons(ReasonPowerUnderLimit, ReasonRestoreHP)
			p.hpFreq = (p.hpFreq + d).Clamp(p.chip.Freq.Min, p.hpCeiling())
		case grow > 0 && residual > p.lpStartCost(grow)*1.2:
			p.setReasons(ReasonPowerUnderLimit, ReasonWakeLP)
			p.lpActive += grow
			p.lpFreq = p.chip.Freq.Min
			// Waking LP raises occupancy and may shrink the HP turbo bin.
			if c := p.hpCeiling(); p.hpFreq > c {
				p.hpFreq = c
			}
		case p.lpActive > 0 && p.lpFreq < p.lpCeiling():
			p.setReasons(ReasonPowerUnderLimit, ReasonRaiseLP)
			p.lpFreq = (p.lpFreq + d).Clamp(p.chip.Freq.Min, p.lpCeiling())
		default:
			p.setReasons(ReasonPowerUnderLimit, ReasonSaturated)
		}
	default:
		p.setReasons(ReasonWithinDeadband)
	}
	return p.actions()
}

// lpCeiling is the LP class's frequency ceiling at current occupancy.
func (p *Priority) lpCeiling() units.Hertz {
	active := len(p.hp) + p.lpActive
	ceil := p.chip.Freq.Max()
	for _, i := range p.lp {
		if c := p.chip.Freq.Ceiling(active, p.specs[i].AVX); c < ceil {
			ceil = c
		}
	}
	return ceil
}
