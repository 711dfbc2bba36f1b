package core

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/units"
)

// ShareConfig has no fields: the share loops have nothing to tune.
//
// Deprecated: kept, with the parameter of the three share constructors and
// the SLOConfig wrapper around Targets, only until benchmark/, which may not
// change in the same PR as the code it measures, stops naming
// core.ShareConfig{} and core.SLOConfig{Targets: …}.
type ShareConfig struct{}

// shareDeadband is the fraction of the power limit within which the share
// loops hold still rather than redistributing. Without it the α-model's
// residual error causes ceaseless one-step churn.
const shareDeadband = 0.02

// shareBase carries the state common to the three share policies,
// including the preallocated per-interval scratch (water-level inputs,
// materialised targets, the action buffer, and the P-state clusterer)
// that makes a steady-state Update allocation-free. The Action slice a
// policy returns is owned by this scratch: it is valid until the next
// Initial/Update call, per the Policy contract.
type shareBase struct {
	chip  platform.Chip
	specs []AppSpec

	scrBases []float64
	scrLo    []float64
	scrHi    []float64
	scrLvl   []float64
	scrFreqs []units.Hertz
	scrActs  []Action
	cluster  *pstateClusterer
}

func newShareBase(chip platform.Chip, specs []AppSpec) (shareBase, error) {
	if err := chip.Validate(); err != nil {
		return shareBase{}, fmt.Errorf("core: %w", err)
	}
	if err := validateSpecs(specs, true); err != nil {
		return shareBase{}, err
	}
	for _, s := range specs {
		if s.Core >= chip.NumCores {
			return shareBase{}, fmt.Errorf("core: app %s pinned to core %d beyond chip's %d cores",
				s.Name, s.Core, chip.NumCores)
		}
	}
	n := len(specs)
	return shareBase{
		chip:     chip,
		specs:    append([]AppSpec(nil), specs...),
		scrBases: make([]float64, n),
		scrLo:    make([]float64, n),
		scrHi:    make([]float64, n),
		scrLvl:   make([]float64, n),
		scrFreqs: make([]units.Hertz, n),
		scrActs:  make([]Action, n),
		cluster:  newPStateClusterer(n, chip.MaxSimultaneousPStates),
	}, nil
}

// ceiling returns the highest frequency app i can reach given that all
// managed applications keep their cores busy, honouring a per-app useful-
// frequency cap (Section 4.4) when the spec carries one.
func (b *shareBase) ceiling(i int) units.Hertz {
	c := b.chip.Freq.Ceiling(len(b.specs), b.specs[i].AVX)
	if mf := b.specs[i].MaxFreq; mf > 0 && mf < c {
		if mf < b.chip.Freq.Min {
			return b.chip.Freq.Min
		}
		return b.chip.Freq.Quantize(mf)
	}
	return c
}

// maxShare returns the largest share weight among the managed apps.
func (b *shareBase) maxShare() units.Shares {
	var m units.Shares
	for _, s := range b.specs {
		if s.Shares > m {
			m = s.Shares
		}
	}
	return m
}

// withinDeadband reports whether the measured power is close enough to the
// limit that no redistribution should happen.
func (b *shareBase) withinDeadband(s Snapshot) bool {
	gap := float64(s.Limit - s.PackagePower)
	if gap < 0 {
		gap = -gap
	}
	return gap <= shareDeadband*float64(s.Limit)
}

// alpha computes the paper's conversion factor α = PowerDelta/MaxPower.
func (b *shareBase) alpha(s Snapshot) float64 {
	return float64(s.Limit-s.PackagePower) / float64(b.chip.RAPLMax)
}

// translate converts per-app frequency targets into actions, quantising and
// applying the platform's simultaneous-P-state constraint (Ryzen's 3).
// freqs is clustered in place; the returned slice is the shared action
// scratch, valid until the next policy call.
func (b *shareBase) translate(freqs []units.Hertz) []Action {
	b.cluster.clusterInto(freqs, freqs, b.chip.Freq)
	actions := b.scrActs
	for i, s := range b.specs {
		actions[i] = Action{Core: s.Core, Freq: freqs[i], Park: false}
	}
	return actions
}

// stateFor finds the snapshot entry for the app pinned to core, or nil.
func stateFor(s Snapshot, core int) *AppState {
	for i := range s.Apps {
		if s.Apps[i].Spec.Core == core {
			return &s.Apps[i]
		}
	}
	return nil
}

// stateForHint is stateFor with a position hint: the daemon materialises
// Snapshot.Apps in spec order, so the app for specs[i] is almost always
// Apps[i] — O(1) instead of an O(n) scan per app (which would make the
// translate pass quadratic on a 512-core machine). The scan remains as
// the fallback for callers holding differently-ordered snapshots.
func stateForHint(s Snapshot, core, hint int) *AppState {
	if hint >= 0 && hint < len(s.Apps) && s.Apps[hint].Spec.Core == core {
		return &s.Apps[hint]
	}
	return stateFor(s, core)
}

// FrequencyShares distributes *frequency* proportionally to shares
// (Section 5.2, "Frequency Shares"): the policy the paper finds simplest
// and most stable. It needs only package power measurements and per-core
// DVFS.
//
// Per-application frequency limits derive from a single water level:
// target_i = clamp(level · MaxFreq · sᵢ/s_max, MinFreq, ceilingᵢ). The
// redistribution function converts the power gap into a frequency budget
// with the paper's α model and moves the level so the total target
// frequency absorbs the budget — min-funding revocation falls out of the
// clamping (see solveLevel).
type FrequencyShares struct {
	shareBase
	explain
	level   float64
	targets []units.Hertz
}

// NewFrequencyShares builds the policy for the chip and application set.
func NewFrequencyShares(chip platform.Chip, specs []AppSpec, _ ShareConfig) (*FrequencyShares, error) {
	b, err := newShareBase(chip, specs)
	if err != nil {
		return nil, err
	}
	return &FrequencyShares{shareBase: b}, nil
}

// Name implements Policy.
func (p *FrequencyShares) Name() string { return "frequency-shares" }

// Targets exposes the current per-app frequency limits (for tests and
// reports).
func (p *FrequencyShares) Targets() []units.Hertz {
	return append([]units.Hertz(nil), p.targets...)
}

func (p *FrequencyShares) bounds() (bases, lo, hi []float64) {
	maxShare := p.maxShare()
	bases, lo, hi = p.scrBases, p.scrLo, p.scrHi
	for i, s := range p.specs {
		bases[i] = float64(p.chip.Freq.Max()) * s.Shares.Fraction(maxShare)
		lo[i] = float64(p.chip.Freq.Min)
		hi[i] = float64(p.ceiling(i))
	}
	return bases, lo, hi
}

func (p *FrequencyShares) materialize(bases, lo, hi []float64) {
	if p.targets == nil {
		p.targets = make([]units.Hertz, len(p.specs))
	}
	applyLevelInto(p.scrLvl, p.level, bases, lo, hi)
	for i, t := range p.scrLvl {
		p.targets[i] = units.Hertz(t)
	}
}

// Initial implements Policy: the highest-share application starts at the
// maximum frequency and the others at their share proportions of it
// (level 1).
func (p *FrequencyShares) Initial() []Action {
	p.setReasons(ReasonInitial)
	p.level = 1
	bases, lo, hi := p.bounds()
	p.materialize(bases, lo, hi)
	return p.translateTargets()
}

// translateTargets stages the continuous targets into the frequency
// scratch before translation, so clustering's in-place quantisation never
// corrupts the control state the next interval integrates from.
func (p *FrequencyShares) translateTargets() []Action {
	copy(p.scrFreqs, p.targets)
	return p.translate(p.scrFreqs)
}

// Update implements Policy: it converts the power gap into a frequency
// budget with the α model and moves the water level to absorb it.
func (p *FrequencyShares) Update(s Snapshot) []Action {
	if p.targets == nil {
		p.Initial()
	}
	if p.withinDeadband(s) {
		p.setReasons(ReasonWithinDeadband)
		return nil
	}
	p.setReasons(gapReason(s), ReasonShareRebalance)
	bases, lo, hi := p.bounds()
	freqDelta := p.alpha(s) * float64(p.chip.Freq.Max()) * float64(len(p.specs))
	var cur float64
	for _, t := range p.targets {
		cur += float64(t)
	}
	p.level = solveLevel(bases, lo, hi, cur+freqDelta)
	p.materialize(bases, lo, hi)
	return p.translateTargets()
}
