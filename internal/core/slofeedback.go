package core

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/units"
)

// SLOConfig declares what the SLO-feedback policy manages; see ShareConfig
// for why Targets still travels inside a struct.
type SLOConfig struct {
	// Targets declares the managed latency services and their p99
	// objectives. Specs whose Name matches a target are that service's
	// serving cores; every other spec is batch. At least one target is
	// required. A live target in the snapshot telemetry (stamped by the
	// daemon) overrides the constructor-time objective, so Reconfigure
	// can move goals mid-run.
	Targets []SLOTarget
}

// The PI loop's gains.
const (
	// sloKP and sloKI are the proportional and integral gains applied to
	// the relative p99 error (P99-Target)/Target per control interval.
	sloKP, sloKI = 0.6, 0.08
	// sloIntegralClamp bounds the magnitude of each service's integral
	// term — the anti-windup backstop.
	sloIntegralClamp = 2.0
	// sloDeadband is the relative error band within which a service is
	// on-objective and contributes no control action (±10% of the target).
	sloDeadband = 0.1
)

const (
	sloModeFeedback = iota
	sloModeFallback
)

// SLOFeedback reallocates power between interactive latency services
// and batch applications to meet per-service p99 objectives under the
// package power limit. Per interval it runs an anti-windup
// proportional-integral loop on each service's relative p99 error
// (measured over the service's sliding window, delivered through
// Snapshot.Services): services over their objective pull frequency from
// the batch pool, services comfortably under it cede frequency back.
// Batch applications absorb the residual power gap through the same
// water-level used by FrequencyShares, so the cap always wins — when
// batch cores bottom out at their floor, the interactive pool is shed
// too and the decision is flagged ReasonSLOSaturated.
//
// When a snapshot carries no service telemetry (no latency model wired
// into the daemon, or it has not produced a window yet) the policy
// degrades to plain frequency shares over the configured share weights,
// flagged ReasonSLOFallback.
type SLOFeedback struct {
	shareBase
	explain

	fb      *FrequencyShares // fallback controller (own scratch/state)
	mode    int
	started bool
	maxStep units.Hertz // one serving core's move at full-scale controller output: Freq.Max()/10

	targets []float64 // continuous per-spec frequency targets (Hz)

	// Static per-service configuration (construction order of Targets).
	svcNames []string
	svcGoal  []float64 // constructor-time p99 objective, seconds
	svcCores []int     // serving cores per service
	svcOf    []int     // spec index -> service index, -1 = batch
	batch    []int     // spec indices of the batch apps

	// Controller state and per-interval scratch, all preallocated.
	integ   []float64 // PI integral per service
	svcU    []float64 // last controller output per service
	svcE    []float64 // last relative error per service
	svcTgt  []float64 // effective target per service, seconds
	svcP99  []float64
	svcSeen []bool
	satHi   []int // serving cores clamped at ceiling this interval
	satLo   []int // serving cores clamped at floor this interval
	rbuf    [4]Reason
}

// NewSLOFeedback builds the policy. Specs need positive shares (the
// fallback path and the batch water-level distribute by them); every
// target must name at least one spec.
func NewSLOFeedback(chip platform.Chip, specs []AppSpec, cfg SLOConfig) (*SLOFeedback, error) {
	b, err := newShareBase(chip, specs)
	if err != nil {
		return nil, err
	}
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("core: slo-feedback needs at least one SLO target")
	}
	fb, err := NewFrequencyShares(chip, specs, ShareConfig{})
	if err != nil {
		return nil, err
	}
	p := &SLOFeedback{
		shareBase: b,
		fb:        fb,
		maxStep:   chip.Freq.Max() / 10,
		targets:   make([]float64, len(b.specs)),
		svcOf:     make([]int, len(b.specs)),
	}
	seen := make(map[string]bool, len(cfg.Targets))
	for _, t := range cfg.Targets {
		if t.Service == "" {
			return nil, fmt.Errorf("core: slo-feedback target with empty service name")
		}
		if t.P99 <= 0 {
			return nil, fmt.Errorf("core: slo-feedback target %s needs a positive p99", t.Service)
		}
		if seen[t.Service] {
			return nil, fmt.Errorf("core: duplicate slo-feedback target %s", t.Service)
		}
		seen[t.Service] = true
		p.svcNames = append(p.svcNames, t.Service)
		p.svcGoal = append(p.svcGoal, t.P99.Seconds())
	}
	ns := len(p.svcNames)
	p.svcCores = make([]int, ns)
	p.integ = make([]float64, ns)
	p.svcU = make([]float64, ns)
	p.svcE = make([]float64, ns)
	p.svcTgt = make([]float64, ns)
	p.svcP99 = make([]float64, ns)
	p.svcSeen = make([]bool, ns)
	p.satHi = make([]int, ns)
	p.satLo = make([]int, ns)
	for i, s := range p.specs {
		p.svcOf[i] = -1
		for j, name := range p.svcNames {
			if s.Name == name {
				p.svcOf[i] = j
				p.svcCores[j]++
				break
			}
		}
		if p.svcOf[i] < 0 {
			p.batch = append(p.batch, i)
		}
	}
	for j, name := range p.svcNames {
		if p.svcCores[j] == 0 {
			return nil, fmt.Errorf("core: slo-feedback target %s matches no application spec", name)
		}
	}
	return p, nil
}

// Name implements Policy.
func (p *SLOFeedback) Name() string { return "slo-feedback" }

// Targets exposes the current per-app frequency targets (for tests and
// reports).
func (p *SLOFeedback) Targets() []units.Hertz {
	out := make([]units.Hertz, len(p.targets))
	for i, t := range p.targets {
		out[i] = units.Hertz(t)
	}
	return out
}

func (p *SLOFeedback) bounds() (bases, lo, hi []float64) {
	maxShare := p.maxShare()
	bases, lo, hi = p.scrBases, p.scrLo, p.scrHi
	for i, s := range p.specs {
		bases[i] = float64(p.chip.Freq.Max()) * s.Shares.Fraction(maxShare)
		lo[i] = float64(p.chip.Freq.Min)
		hi[i] = float64(p.ceiling(i))
	}
	return bases, lo, hi
}

// Initial implements Policy: the share-proportional level-1
// distribution, identical to FrequencyShares' starting point; the PI
// state starts from rest.
func (p *SLOFeedback) Initial() []Action {
	p.setReasons(ReasonInitial)
	p.started = true
	p.mode = sloModeFeedback
	p.fb.Initial() // keep the fallback controller's state initialised
	bases, lo, hi := p.bounds()
	applyLevelInto(p.scrLvl, 1, bases, lo, hi)
	copy(p.targets, p.scrLvl)
	for j := range p.integ {
		p.integ[j] = 0
	}
	return p.translateTargets()
}

func (p *SLOFeedback) translateTargets() []Action {
	for i, t := range p.targets {
		p.scrFreqs[i] = units.Hertz(t)
	}
	return p.translate(p.scrFreqs)
}

// matchServices binds snapshot telemetry to the configured services.
// The daemon materialises Services in model order, so the hinted probe
// is O(1); the scan remains for differently-ordered snapshots.
func (p *SLOFeedback) matchServices(s Snapshot) int {
	n := 0
	for j, name := range p.svcNames {
		p.svcSeen[j] = false
		p.svcP99[j] = 0
		p.svcTgt[j] = 0
		var e *ServiceSLO
		if j < len(s.Services) && s.Services[j].Name == name {
			e = &s.Services[j]
		} else {
			for k := range s.Services {
				if s.Services[k].Name == name {
					e = &s.Services[k]
					break
				}
			}
		}
		if e == nil {
			continue
		}
		p.svcSeen[j] = true
		n++
		p.svcP99[j] = e.P99
		if e.Target > 0 {
			p.svcTgt[j] = e.Target
		} else {
			p.svcTgt[j] = p.svcGoal[j]
		}
	}
	return n
}

// adoptFallbackReasons copies the inner share policy's explanation,
// prefixed with the fallback marker, without allocating.
func (p *SLOFeedback) adoptFallbackReasons() {
	rs := p.fb.LastReasons()
	p.explain.buf[0] = ReasonSLOFallback
	n := copy(p.explain.buf[1:], rs)
	p.explain.n = n + 1
}

// Update implements Policy.
func (p *SLOFeedback) Update(s Snapshot) []Action {
	if !p.started {
		p.Initial()
	}
	if p.matchServices(s) == 0 {
		// No latency telemetry: degrade to frequency shares. Hand the
		// inner controller our targets so the transition is seamless.
		if p.mode != sloModeFallback {
			for i, t := range p.targets {
				p.fb.targets[i] = units.Hertz(t)
			}
			p.mode = sloModeFallback
		}
		acts := p.fb.Update(s)
		p.adoptFallbackReasons()
		return acts
	}
	if p.mode != sloModeFeedback {
		// Returning from fallback: resume from where shares left off.
		for i, t := range p.fb.targets {
			p.targets[i] = float64(t)
		}
		p.mode = sloModeFeedback
	}

	maxF := float64(p.chip.Freq.Max())
	minF := float64(p.chip.Freq.Min)
	step := float64(p.maxStep)

	// Per-service PI on the relative p99 error.
	allMet, anyActive := true, false
	for j := range p.svcNames {
		p.svcU[j] = 0
		p.svcE[j] = 0
		if !p.svcSeen[j] || p.svcP99[j] <= 0 || p.svcTgt[j] <= 0 {
			continue
		}
		e := (p.svcP99[j] - p.svcTgt[j]) / p.svcTgt[j]
		if e > 0 {
			allMet = false
		}
		if e >= -sloDeadband && e <= sloDeadband {
			e = 0
		}
		p.svcE[j] = e
		u := sloKP*e + sloKI*p.integ[j]
		if u > 1 {
			u = 1
		} else if u < -1 {
			u = -1
		}
		if u > -0.02 && u < 0.02 {
			u = 0
		}
		p.svcU[j] = u
		if u != 0 {
			anyActive = true
		}
	}
	if !anyActive && p.withinDeadband(s) {
		if allMet {
			p.setReasons(ReasonWithinDeadband, ReasonSLOMet)
		} else {
			// Violating but the controller is pinned (integral held by
			// anti-windup): saturated under this cap.
			p.setReasons(ReasonWithinDeadband, ReasonSLOSaturated)
		}
		return nil
	}

	// Move interactive targets by the controller output.
	anyBoost, anyRelax := false, false
	var deltaInteractive float64
	for j := range p.satHi {
		p.satHi[j] = 0
		p.satLo[j] = 0
	}
	for i := range p.specs {
		j := p.svcOf[i]
		if j < 0 {
			continue
		}
		t := p.targets[i] + p.svcU[j]*step
		hi := float64(p.ceiling(i))
		if t >= hi {
			t = hi
			p.satHi[j]++
		}
		if t <= minF {
			t = minF
			p.satLo[j]++
		}
		if d := t - p.targets[i]; d != 0 {
			deltaInteractive += d
			if d > 0 {
				anyBoost = true
			} else {
				anyRelax = true
			}
		}
		p.targets[i] = t
	}

	// Anti-windup by conditional integration: the integral only
	// accumulates while the actuator can still move in the error's
	// direction; in the deadband it leaks back to zero.
	anySat := false
	for j := range p.svcNames {
		if !p.svcSeen[j] {
			continue
		}
		e := p.svcE[j]
		switch {
		case e == 0:
			p.integ[j] *= 0.8
		case e > 0 && p.satHi[j] == p.svcCores[j]:
			anySat = true
		case e < 0 && p.satLo[j] == p.svcCores[j]:
			// pinned at the floor; hold
		default:
			p.integ[j] += e
			if p.integ[j] > sloIntegralClamp {
				p.integ[j] = sloIntegralClamp
			} else if p.integ[j] < -sloIntegralClamp {
				p.integ[j] = -sloIntegralClamp
			}
		}
	}

	// Batch absorbs the package power gap (α model) net of what the
	// interactive pool just took, through the shares water-level.
	freqBudget := p.alpha(s) * maxF * float64(len(p.specs))
	residual := freqBudget - deltaInteractive
	// Only the batch apps can move, so the level is solved over them alone.
	if nb := len(p.batch); nb > 0 {
		maxShare := p.maxShare()
		bases, lo, hi, lvl := p.scrBases[:nb], p.scrLo[:nb], p.scrHi[:nb], p.scrLvl[:nb]
		var batchCur float64
		for k, i := range p.batch {
			bases[k] = maxF * p.specs[i].Shares.Fraction(maxShare)
			lo[k], hi[k] = minF, float64(p.ceiling(i))
			batchCur += p.targets[i]
		}
		want := batchCur + residual
		applyLevelInto(lvl, solveLevel(bases, lo, hi, want), bases, lo, hi)
		var batchGot float64
		for k, i := range p.batch {
			p.targets[i] = lvl[k]
			batchGot += lvl[k]
		}
		residual = want - batchGot
	}
	// Shortfall the batch pool could not shed lands on the interactive
	// pool: the cap beats the SLO.
	nInteractive := len(p.specs) - len(p.batch)
	if residual < 0 && s.PackagePower > s.Limit && nInteractive > 0 {
		per := residual / float64(nInteractive)
		for i := range p.specs {
			if p.svcOf[i] < 0 {
				continue
			}
			t := p.targets[i] + per
			if t < minF {
				t = minF
			}
			if hi := float64(p.ceiling(i)); t > hi {
				t = hi
			}
			p.targets[i] = t
		}
		anySat = true
	}

	// Explain the decision (at most 4 reasons).
	rs := p.rbuf[:0]
	rs = append(rs, gapReason(s))
	switch {
	case anyBoost:
		rs = append(rs, ReasonSLOBoost)
	case anyRelax:
		rs = append(rs, ReasonSLORelax)
	default:
		rs = append(rs, ReasonShareRebalance)
	}
	if anySat {
		rs = append(rs, ReasonSLOSaturated)
	}
	if allMet {
		rs = append(rs, ReasonSLOMet)
	}
	p.setReasons(rs...)
	return p.translateTargets()
}
