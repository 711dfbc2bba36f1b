package rapl

import (
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/units"
)

func skySpec() cpu.FreqSpec { return platform.Skylake().Freq }

// effective is the frequency a core runs at: its request, held under the
// limiter's cap (zero: none) and the turbo grant for n active cores.
func effective(chip platform.Chip, request, cap units.Hertz, n int) units.Hertz {
	f := min(request, chip.Freq.Ceiling(n, false))
	if cap > 0 {
		f = min(f, cap)
	}
	return chip.Freq.Quantize(f)
}

// toyPlant computes package power for n identical cores whose requests are
// given, all capped by the limiter's cap.
func toyPlant(chip platform.Chip, requests []units.Hertz, activity float64, cap units.Hertz) units.Watts {
	draws := make([]power.CoreDraw, len(requests))
	for i, r := range requests {
		eff := effective(chip, r, cap, len(requests))
		draws[i] = power.CoreDraw{Active: true, Freq: eff, Activity: activity}
	}
	return chip.Power.Package(draws)
}

func TestNewRejectsBadSpec(t *testing.T) {
	if _, err := New(cpu.FreqSpec{}); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestDisabledLimiterNeverCaps(t *testing.T) {
	l, err := New(skySpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		l.Observe(500, time.Millisecond)
	}
	if l.Cap() != skySpec().Max() {
		t.Errorf("disabled limiter moved cap to %v", l.Cap())
	}
}

func TestSetLimitZeroReopens(t *testing.T) {
	l, _ := New(skySpec())
	l.SetLimit(30)
	for i := 0; i < 500; i++ {
		l.Observe(100, time.Millisecond)
	}
	if l.Cap() >= skySpec().Max() {
		t.Fatal("cap did not descend under overload")
	}
	l.SetLimit(0)
	if l.Cap() != skySpec().Max() {
		t.Errorf("cap not reopened: %v", l.Cap())
	}
	if l.Limit() != 0 {
		t.Errorf("limit = %v", l.Limit())
	}
}

func TestNegativeLimitTreatedAsDisabled(t *testing.T) {
	l, _ := New(skySpec())
	l.SetLimit(-5)
	if l.Limit() != 0 {
		t.Errorf("negative limit stored: %v", l.Limit())
	}
}

// Closed-loop: 10 gcc-like cores at full request under a 50 W limit must
// settle with average power at or below the limit, and the cap must sit
// strictly below max. The average is time-weighted over the last 50 ms of
// the samples fed, a window of the kind real RAPL averages over.
func TestConvergesUnderLimit(t *testing.T) {
	chip := platform.Skylake()
	l, _ := New(chip.Freq)
	l.SetLimit(50)
	requests := make([]units.Hertz, chip.NumCores)
	for i := range requests {
		requests[i] = chip.Freq.Max()
	}
	dt := time.Millisecond
	const window = 50 // samples of dt
	var recent [window]units.Watts
	for i := 0; i < 3000; i++ {
		p := toyPlant(chip, requests, 0.85, l.Cap())
		l.Observe(p, dt)
		recent[i%window] = p
	}
	var sum units.Watts
	for _, p := range recent {
		sum += p
	}
	finalPower := toyPlant(chip, requests, 0.85, l.Cap())
	if finalPower > 50*1.02 {
		t.Errorf("settled power %v exceeds 50 W limit", finalPower)
	}
	if l.Cap() >= chip.Freq.Max() {
		t.Error("cap never descended")
	}
	if avg := sum / window; avg > 51 {
		t.Errorf("windowed average %v above limit", avg)
	}
}

// Fastest-first: with half the cores user-throttled to the minimum
// frequency, the cap settles above the throttled cores' frequency — RAPL
// only reduces the unconstrained cores (Figure 4).
func TestThrottlesFastestCoresFirst(t *testing.T) {
	chip := platform.Skylake()
	l, _ := New(chip.Freq)
	l.SetLimit(50)
	requests := make([]units.Hertz, chip.NumCores)
	for i := range requests {
		if i < 5 {
			requests[i] = chip.Freq.Max() // unconstrained
		} else {
			requests[i] = chip.Freq.Min // user-throttled
		}
	}
	dt := time.Millisecond
	for i := 0; i < 3000; i++ {
		p := toyPlant(chip, requests, 0.85, l.Cap())
		l.Observe(p, dt)
	}
	if l.Cap() <= chip.Freq.Min {
		t.Errorf("cap %v descended to the floor; should stop above throttled cores", l.Cap())
	}
	// The throttled cores' effective frequency must be their own request,
	// not the cap.
	eff := effective(chip, chip.Freq.Min, l.Cap(), chip.NumCores)
	if eff != chip.Freq.Min {
		t.Errorf("throttled core runs at %v, want its requested %v", eff, chip.Freq.Min)
	}
}

// Power freed by throttled cores must raise the cap (and so the speed of
// unconstrained cores) compared to an all-fast configuration at the same
// limit (Figure 4a).
func TestFreedPowerRaisesCap(t *testing.T) {
	chip := platform.Skylake()
	settle := func(requests []units.Hertz) units.Hertz {
		l, _ := New(chip.Freq)
		l.SetLimit(50)
		for i := 0; i < 4000; i++ {
			p := toyPlant(chip, requests, 0.85, l.Cap())
			l.Observe(p, time.Millisecond)
		}
		return l.Cap()
	}
	allFast := make([]units.Hertz, chip.NumCores)
	halfSlow := make([]units.Hertz, chip.NumCores)
	for i := range allFast {
		allFast[i] = chip.Freq.Max()
		if i < 5 {
			halfSlow[i] = chip.Freq.Max()
		} else {
			halfSlow[i] = chip.Freq.Min
		}
	}
	capAll := settle(allFast)
	capHalf := settle(halfSlow)
	if capHalf <= capAll {
		t.Errorf("cap with half throttled (%v) should exceed all-fast cap (%v)", capHalf, capAll)
	}
}

// Raising the limit must release the cap upward (hysteresis permitting).
func TestReleasesWhenLimitRaised(t *testing.T) {
	chip := platform.Skylake()
	l, _ := New(chip.Freq)
	l.SetLimit(40)
	requests := make([]units.Hertz, chip.NumCores)
	for i := range requests {
		requests[i] = chip.Freq.Max()
	}
	for i := 0; i < 3000; i++ {
		l.Observe(toyPlant(chip, requests, 0.85, l.Cap()), time.Millisecond)
	}
	lowCap := l.Cap()
	l.SetLimit(80)
	for i := 0; i < 3000; i++ {
		l.Observe(toyPlant(chip, requests, 0.85, l.Cap()), time.Millisecond)
	}
	if l.Cap() <= lowCap {
		t.Errorf("cap did not release: %v -> %v", lowCap, l.Cap())
	}
}

func TestObserveIgnoresNonPositiveDt(t *testing.T) {
	l, _ := New(skySpec())
	l.SetLimit(30)
	before := l.Cap()
	l.Observe(500, 0)
	l.Observe(500, -time.Second)
	if l.Cap() != before || l.last != 0 {
		t.Error("non-positive dt affected state")
	}
}

// The cap must always remain a valid frequency within [Min, Max].
func TestCapStaysInRange(t *testing.T) {
	chip := platform.Skylake()
	l, _ := New(chip.Freq)
	l.SetLimit(1) // impossible limit: cap slams to the floor
	for i := 0; i < 5000; i++ {
		l.Observe(100, time.Millisecond)
		if c := l.Cap(); c < chip.Freq.Min || c > chip.Freq.Max() {
			t.Fatalf("cap out of range: %v", c)
		}
	}
	if l.Cap() != chip.Freq.Min {
		t.Errorf("cap should bottom out at %v, got %v", chip.Freq.Min, l.Cap())
	}
	l.SetLimit(10000) // unreachable: cap opens fully
	for i := 0; i < 5000; i++ {
		l.Observe(1, time.Millisecond)
	}
	if l.Cap() != chip.Freq.Max() {
		t.Errorf("cap should top out at %v, got %v", chip.Freq.Max(), l.Cap())
	}
}
