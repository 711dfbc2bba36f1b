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

// checkSolveLevel fails t unless solveLevel returns the reference's float.
func checkSolveLevel(t *testing.T, name string, bases, lo, hi []float64, want float64) {
	t.Helper()
	got, ref := solveLevel(bases, lo, hi, want), solveLevelRef(bases, lo, hi, want)
	if math.Float64bits(got) != math.Float64bits(ref) {
		t.Errorf("%s: level %v (%#x), reference %v (%#x)\nbases %v\nlo %v\nhi %v\nwant %v",
			name, got, math.Float64bits(got), ref, math.Float64bits(ref), bases, lo, hi, want)
	}
}

// TestSolveLevelMatchesReference holds the solve bit-equal to the full 64
// sweeps over seeded random inputs and the edges: zero bases, want at and
// beyond Σlo / Σhi, one app, every app clamped; then up to 256 apps, the
// node-slo shape (every breakpoint equal), wants the total never reaches
// below Σhi, and levels far below λmax, where the 64 sweeps end before the
// flip and the solve hands over to the bisection.
func TestSolveLevelMatchesReference(t *testing.T) {
	check := func(name string, bases, lo, hi []float64, want float64) {
		t.Helper()
		checkSolveLevel(t, name, bases, lo, hi, want)
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

	// Wide app sets: the generator above, with up to 256 apps.
	for c := 0; c < 2000; c++ {
		n := 1 + rng.Intn(256)
		scale := math.Pow(10, float64(rng.Intn(12)-2))
		bases, lo, hi := make([]float64, n), make([]float64, n), make([]float64, n)
		var loSum, hiSum float64
		for i := range bases {
			if rng.Intn(5) > 0 {
				bases[i] = scale * (0.05 + rng.Float64())
			}
			lo[i] = scale * rng.Float64() * 0.4
			hi[i] = lo[i] + scale*rng.Float64()
			if rng.Intn(8) == 0 {
				hi[i] = lo[i]
			}
			loSum += lo[i]
			hiSum += hi[i]
		}
		check("wide inside", bases, lo, hi, loSum+rng.Float64()*(hiSum-loSum))
		check("wide just inside hi", bases, lo, hi, math.Nextafter(hiSum, 0))
		check("wide just inside lo", bases, lo, hi, math.Nextafter(loSum, math.Inf(1)))
	}

	// The node-slo batch pool: one share, one floor, one ceiling, so all
	// the apps clamp at the same levels; now and then one app under a
	// useful-frequency cap. Wants land anywhere, and on the total at the
	// breakpoints themselves.
	chip := platform.ScaleSocket(platform.Skylake(), 32)
	maxF, minF := float64(chip.Freq.Max()), float64(chip.Freq.Min)
	for c := 0; c < 4000; c++ {
		n := 1 + rng.Intn(256)
		bases, lo, hi := make([]float64, n), make([]float64, n), make([]float64, n)
		base := maxF * float64(10+rng.Intn(90)) / 100
		for i := range bases {
			bases[i], lo[i], hi[i] = base, minF, float64(chip.Freq.Ceiling(32, false))
		}
		if c%3 == 0 {
			hi[rng.Intn(n)] = 1700e6
		}
		var loSum, hiSum float64
		for i := range bases {
			loSum += lo[i]
			hiSum += hi[i]
		}
		check("equal inside", bases, lo, hi, loSum+rng.Float64()*(hiSum-loSum))
		check("equal at floor break", bases, lo, hi, totalAt(minF/base, bases, lo, hi))
		check("equal at ceiling break", bases, lo, hi, totalAt(hi[0]/base, bases, lo, hi))
		check("equal just inside hi", bases, lo, hi, math.Nextafter(hiSum, 0))
	}

	// Wants between total(λmax) and Σhi. The product λmax·base of the app
	// that sets λmax may round below its cap, and a zero-base app sits at
	// its floor whatever the level; either way the total never reaches
	// want and the bisection runs up against λmax.
	short := [2]int{}
	for c := 0; c < 4000; c++ {
		n := 1 + rng.Intn(16)
		bases, lo, hi := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range bases {
			bases[i] = 0.05 + rng.Float64()
			lo[i] = rng.Float64() * 0.4
			hi[i] = lo[i] + rng.Float64()
		}
		if c%2 == 0 {
			bases[rng.Intn(n)] = 0
		} else {
			// Find a base whose λmax product rounds below its cap, and
			// make it the app that sets λmax.
			k := rng.Intn(n)
			for hi[k]/bases[k]*bases[k] >= hi[k] {
				bases[k] = 0.05 + rng.Float64()
			}
			for i := range bases {
				if i != k && hi[i]/bases[i] >= hi[k]/bases[k] {
					bases[i] = 2 * hi[i] / (hi[k] / bases[k])
				}
			}
		}
		var lmax, hiSum float64
		for i, b := range bases {
			hiSum += hi[i]
			if b > 0 && hi[i]/b > lmax {
				lmax = hi[i] / b
			}
		}
		top := totalAt(lmax, bases, lo, hi)
		if top < hiSum {
			short[c%2]++
		}
		check("short of hi at lmax", bases, lo, hi, math.Nextafter(hiSum, 0))
		check("short of hi inside", bases, lo, hi, top+rng.Float64()*(hiSum-top))
		check("at total(lmax)", bases, lo, hi, top)
	}
	if short[0] < 1000 || short[1] < 100 {
		t.Errorf("total(λmax) fell short of Σhi in %d zero-base and %d rounding cases; want >= 1000 and >= 100", short[0], short[1])
	}

	// Levels from λmax down to λmax·2⁻⁴⁰: one app's cap sets λmax far
	// above the others', and want sits at the total of a level drawn
	// log-uniformly below it. Flips under λmax·2⁻⁸ take the bisection;
	// the count keeps both paths exercised.
	var fast, fallback int
	for c := 0; c < 6000; c++ {
		n := 1 + rng.Intn(32)
		scale := math.Pow(10, float64(rng.Intn(12)-2))
		bases, lo, hi := make([]float64, n), make([]float64, n), make([]float64, n)
		var baseSum float64
		for i := range bases {
			bases[i] = scale * (0.05 + rng.Float64())
			if rng.Intn(4) == 0 {
				lo[i] = scale * rng.Float64() * 1e-6
			}
			hi[i] = lo[i] + scale*rng.Float64()
			baseSum += bases[i]
		}
		hi[0] = bases[0] * math.Ldexp(1+rng.Float64(), 8+rng.Intn(32))
		lmax := hi[0] / bases[0]
		level := lmax * math.Exp2(-40*rng.Float64())
		want := totalAt(level, bases, lo, hi)
		check("far below lmax", bases, lo, hi, want)
		check("far below lmax, next float", bases, lo, hi, math.Nextafter(want, math.Inf(1)))
		if flip := levelFlip(bases, lo, hi, want, baseSum, lmax); flip >= lmax*0x1p-8 {
			fast++
		} else {
			fallback++
		}
	}
	t.Logf("total(λmax) short of Σhi: %d zero-base, %d rounding; levels below λmax: %d from the flip, %d bisected",
		short[0], short[1], fast, fallback)
	if fast < 1000 || fallback < 1000 {
		t.Errorf("levels below λmax: %d solved from the flip, %d by the bisection; want both >= 1000", fast, fallback)
	}
}

// FuzzSolveLevelMatchesReference holds the solve bit-equal to the full 64
// sweeps on inputs built from bytes: three a app (base, floor, span; a
// zero byte makes a zero base or a pinned app), a scale for the bases and
// where want falls in [Σlo, Σhi]. Small integers make equal and coinciding
// breakpoints common.
func FuzzSolveLevelMatchesReference(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1.0, 0.5)
	f.Add([]byte{30, 8, 26, 30, 8, 26, 30, 8, 26, 30, 8, 26}, 0.37, 0.25)
	f.Add([]byte{1, 0, 255, 200, 0, 3, 200, 0, 3, 200, 1, 3}, 3.1, 0.001)
	f.Add([]byte{0, 4, 9, 5, 0, 0, 9, 2, 7}, 1e-3, 0.999999)
	f.Fuzz(func(t *testing.T, data []byte, scale, frac float64) {
		n := len(data) / 3
		if n == 0 || n > 256 || !(scale > 0x1p-40 && scale < 0x1p40) || math.IsNaN(frac) || math.IsInf(frac, 0) {
			t.Skip()
		}
		bases, lo, hi := make([]float64, n), make([]float64, n), make([]float64, n)
		var loSum, hiSum float64
		for i := range bases {
			bases[i] = scale * float64(data[3*i])
			lo[i] = float64(data[3*i+1]) / 8
			hi[i] = lo[i] + float64(data[3*i+2])*0.37
			loSum += lo[i]
			hiSum += hi[i]
		}
		checkSolveLevel(t, "fuzz", bases, lo, hi, loSum+frac*(hiSum-loSum))
	})
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
