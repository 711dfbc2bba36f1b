package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/units"
)

// Test-only references for the two bit-identical rewrites of the water
// level: solveLevelRef is solveLevel as it stood before the fixed-point
// exit (all 64 sweeps), updateRef is SLOFeedback.Update as it stood before
// the batch-only solve (every spec handed to the solver, the serving cores
// zeroed). A change to Update that moves its results on purpose moves
// updateRef with it.

func solveLevelRef(bases, lo, hi []float64, want float64) float64 {
	total := func(level float64) float64 {
		var t float64
		for i, b := range bases {
			v := level * b
			if v < lo[i] {
				v = lo[i]
			}
			if v > hi[i] {
				v = hi[i]
			}
			t += v
		}
		return t
	}
	var loSum, hiSum float64
	for i := range bases {
		loSum += lo[i]
		hiSum += hi[i]
	}
	if want <= loSum {
		return 0
	}
	// Upper bound on λ: every target capped.
	var lmax float64
	for i, b := range bases {
		if b <= 0 {
			continue
		}
		if l := hi[i] / b; l > lmax {
			lmax = l
		}
	}
	if want >= hiSum {
		return lmax
	}
	a, b := 0.0, lmax
	for i := 0; i < 64; i++ {
		mid := (a + b) / 2
		if total(mid) < want {
			a = mid
		} else {
			b = mid
		}
	}
	return (a + b) / 2
}

func (p *SLOFeedback) updateRef(s Snapshot) []Action {
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
	if len(p.batch) > 0 {
		bases, lo, hi := p.bounds()
		var batchCur float64
		for i := range p.specs {
			if p.svcOf[i] >= 0 {
				bases[i], lo[i], hi[i] = 0, 0, 0
				continue
			}
			batchCur += p.targets[i]
		}
		want := batchCur + residual
		lvl := solveLevelRef(bases, lo, hi, want)
		applyLevelInto(p.scrLvl, lvl, bases, lo, hi)
		var batchGot float64
		for i := range p.specs {
			if p.svcOf[i] < 0 {
				p.targets[i] = p.scrLvl[i]
				batchGot += p.scrLvl[i]
			}
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

// TestSolveLevelMatchesReference holds the short-cut bisection bit-equal to
// the full 64 sweeps over seeded random inputs and the edges: zero bases,
// want at and beyond Σlo / Σhi, one app, every app clamped.
func TestSolveLevelMatchesReference(t *testing.T) {
	check := func(name string, bases, lo, hi []float64, want float64) {
		t.Helper()
		got, ref := solveLevel(bases, lo, hi, want), solveLevelRef(bases, lo, hi, want)
		if math.Float64bits(got) != math.Float64bits(ref) {
			t.Errorf("%s: level %v (%#x), reference %v (%#x)\nbases %v\nlo %v\nhi %v\nwant %v",
				name, got, math.Float64bits(got), ref, math.Float64bits(ref), bases, lo, hi, want)
		}
	}
	rng := rand.New(rand.NewSource(20))
	for c := 0; c < 20000; c++ {
		n := 1 + rng.Intn(32)
		if c%7 == 0 {
			n = 1
		}
		scale := math.Pow(10, float64(rng.Intn(12)-2)) // 0.01 … 1e9 (Hz-sized)
		bases, lo, hi := make([]float64, n), make([]float64, n), make([]float64, n)
		var loSum, hiSum float64
		for i := range bases {
			if rng.Intn(5) > 0 { // a fifth of the bases are zero
				bases[i] = scale * (0.05 + rng.Float64())
			}
			lo[i] = scale * rng.Float64() * 0.4
			hi[i] = lo[i] + scale*rng.Float64()
			if rng.Intn(8) == 0 {
				hi[i] = lo[i] // pinned
			}
			loSum += lo[i]
			hiSum += hi[i]
		}
		check("inside", bases, lo, hi, loSum+rng.Float64()*(hiSum-loSum))
		check("at lo", bases, lo, hi, loSum)
		check("below lo", bases, lo, hi, loSum-scale)
		check("at hi", bases, lo, hi, hiSum)
		check("beyond hi", bases, lo, hi, hiSum+scale)
		check("just inside hi", bases, lo, hi, math.Nextafter(hiSum, 0))
		check("just inside lo", bases, lo, hi, math.Nextafter(loSum, math.Inf(1)))
	}
}

// TestSLOFeedbackMatchesReference runs the node-slo shape (16 + 8 serving
// cores, 8 batch) through a seeded snapshot stream twice, once per Update,
// and holds targets, integrals and actions bit-equal interval by interval.
// The stream swings power across the limit and p99 across the objectives,
// and drops the service telemetry now and then to cross the fallback path.
func TestSLOFeedbackMatchesReference(t *testing.T) {
	chip := platform.ScaleSocket(platform.Skylake(), 32)
	targets := []SLOTarget{
		{Service: "websearch", P99: 50 * time.Millisecond},
		{Service: "ads", P99: 30 * time.Millisecond},
	}
	rng := rand.New(rand.NewSource(7))
	specs := make([]AppSpec, 32)
	for i := range specs {
		switch {
		case i < 16:
			specs[i] = AppSpec{Name: "websearch", Core: i, Shares: 50}
		case i < 24:
			specs[i] = AppSpec{Name: "ads", Core: i, Shares: 50}
		default:
			specs[i] = AppSpec{Name: "gcc", Core: i, Shares: units.Shares(10 + rng.Intn(40))}
		}
	}
	specs[30].MaxFreq = 1700 * units.MHz // one batch app under a useful-frequency cap
	build := func() *SLOFeedback {
		p, err := NewSLOFeedback(chip, specs, SLOConfig{Targets: targets})
		if err != nil {
			t.Fatal(err)
		}
		p.Initial()
		return p
	}
	got, ref := build(), build()
	limit := chip.RAPLMax * 6 / 10
	snap := Snapshot{Limit: limit, Apps: make([]AppState, len(specs))}
	for i, s := range specs {
		snap.Apps[i] = AppState{Spec: s, Freq: chip.Freq.Nom, IPS: 1e9}
	}
	svcs := make([]ServiceSLO, len(targets))
	seen := map[Reason]int{}
	for iv := 0; iv < 4000; iv++ {
		snap.Time = time.Duration(iv) * time.Second
		snap.PackagePower = limit * units.Watts(0.8+0.4*rng.Float64())
		if iv%500 < 20 {
			snap.PackagePower = limit * 2 // sustained overshoot: batch bottoms out, the cap sheds serving cores
		}
		snap.Services = svcs
		if iv%97 > 93 {
			snap.Services = nil // fallback and back
		}
		for j, tg := range targets {
			svcs[j] = ServiceSLO{Name: tg.Service, Target: tg.P99.Seconds(), P99: tg.P99.Seconds() * (0.4 + 1.4*rng.Float64())}
		}
		ga, ra := got.Update(snap), ref.updateRef(snap)
		for _, r := range got.LastReasons() {
			seen[r]++
		}
		if len(ga) != len(ra) {
			t.Fatalf("interval %d: %d actions, reference %d", iv, len(ga), len(ra))
		}
		for i := range ga {
			if ga[i] != ra[i] {
				t.Fatalf("interval %d action %d: %+v, reference %+v", iv, i, ga[i], ra[i])
			}
		}
		gt, rt := got.Targets(), ref.Targets()
		for i := range gt {
			if math.Float64bits(float64(gt[i])) != math.Float64bits(float64(rt[i])) {
				t.Fatalf("interval %d target %d: %v, reference %v", iv, i, gt[i], rt[i])
			}
		}
		gi, ri := got.integ, ref.integ
		for j := range gi {
			if math.Float64bits(gi[j]) != math.Float64bits(ri[j]) {
				t.Fatalf("interval %d integral %d: %v, reference %v", iv, j, gi[j], ri[j])
			}
		}
	}
	for _, r := range []Reason{ReasonSLOBoost, ReasonSLORelax, ReasonSLOSaturated, ReasonSLOFallback, ReasonWithinDeadband} {
		if seen[r] == 0 {
			t.Errorf("the stream never produced %s", r)
		}
	}
	t.Logf("reasons over the stream: %v", seen)
}
