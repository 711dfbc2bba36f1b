package rapl

import (
	"math"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/units"
)

// capMoves drives the limiter with a series of readings and counts cap
// step-downs (throttles) and step-ups (releases).
func capMoves(l *Limiter, readings []units.Watts, dt time.Duration) (throttles, releases int) {
	prev := l.Cap()
	for _, w := range readings {
		c := l.Observe(w, dt)
		if c < prev {
			throttles++
		} else if c > prev {
			releases++
		}
		prev = c
	}
	return
}

// repeat builds n copies of w.
func repeat(w units.Watts, n int) []units.Watts {
	out := make([]units.Watts, n)
	for i := range out {
		out[i] = w
	}
	return out
}

// settleUnder runs the closed loop until the cap stabilises under the limit.
func settleUnder(t *testing.T, chip platform.Chip, limit units.Watts) *Limiter {
	t.Helper()
	l, err := New(chip.Freq)
	if err != nil {
		t.Fatal(err)
	}
	l.SetLimit(limit)
	requests := make([]units.Hertz, chip.NumCores)
	for i := range requests {
		requests[i] = chip.Freq.Max()
	}
	for i := 0; i < 3000; i++ {
		l.Observe(toyPlant(chip, requests, 0.85, l.Cap()), time.Millisecond)
	}
	if l.Cap() >= chip.Freq.Max() || l.Cap() <= chip.Freq.Min {
		t.Fatalf("loop did not settle mid-range: cap %v", l.Cap())
	}
	return l
}

// Release hysteresis: readings sitting just barely under the limit must not
// raise the cap — one step up would put power straight back over the limit
// and the cap would bounce between two levels forever.
func TestNoReleaseWithoutHeadroom(t *testing.T) {
	chip := platform.Skylake()
	l := settleUnder(t, chip, 50)
	_, releases := capMoves(l, repeat(49.5, 2000), time.Millisecond)
	if releases != 0 {
		t.Errorf("cap released %d times on 0.5 W of headroom; hysteresis should hold it", releases)
	}
	// With real headroom the same limiter must release promptly.
	_, releases = capMoves(l, repeat(30, 2000), time.Millisecond)
	if releases == 0 {
		t.Error("cap never released despite 20 W of headroom")
	}
}

// Oscillating readings around the limit: alternating ±1% measurement noise
// on the closed loop must leave the cap inside the hysteresis dead band —
// zero movements once settled — rather than chattering throttle/release.
func TestOscillatingReadingsSettleWithoutChatter(t *testing.T) {
	chip := platform.Skylake()
	l, err := New(chip.Freq)
	if err != nil {
		t.Fatal(err)
	}
	l.SetLimit(50)
	requests := make([]units.Hertz, chip.NumCores)
	for i := range requests {
		requests[i] = chip.Freq.Max()
	}
	noisy := func(i int, p units.Watts) units.Watts {
		if i%2 == 0 {
			return p * 1.01
		}
		return p * 0.99
	}
	for i := 0; i < 4000; i++ {
		l.Observe(noisy(i, toyPlant(chip, requests, 0.85, l.Cap())), time.Millisecond)
	}
	start := l.Cap()
	moves := 0
	for i := 0; i < 4000; i++ {
		c := l.Observe(noisy(i, toyPlant(chip, requests, 0.85, l.Cap())), time.Millisecond)
		if c != start {
			moves++
			start = c
		}
	}
	if moves != 0 {
		t.Errorf("cap chattered %d times under ±1%% oscillating readings", moves)
	}
	if p := toyPlant(chip, requests, 0.85, l.Cap()); p > 50*1.02 {
		t.Errorf("settled power %v exceeds the 50 W limit", p)
	}
}

// A square-wave load (watts flipping far above / far below the limit every
// 20 ms) must produce bounded cap movement per cycle — the cap tracks the
// wave instead of winding up: it may not travel more than one step per
// stepInterval, and each half-cycle moves it in one direction only.
func TestSquareWaveLoadBoundsCapTravel(t *testing.T) {
	chip := platform.Skylake()
	l, err := New(chip.Freq)
	if err != nil {
		t.Fatal(err)
	}
	l.SetLimit(50)
	dt := time.Millisecond
	for cycle := 0; cycle < 20; cycle++ {
		th, rel := capMoves(l, repeat(80, 20), dt) // 20 ms over the limit
		if rel != 0 {
			t.Fatalf("cycle %d: cap released %d times while 30 W over the limit", cycle, rel)
		}
		if th > 10 {
			t.Fatalf("cycle %d: %d throttles in 20 ms at a 2 ms interval; rate limit broken", cycle, th)
		}
		th, _ = capMoves(l, repeat(20, 20), dt) // 20 ms well under the limit
		if th != 0 {
			t.Fatalf("cycle %d: cap throttled %d times while 30 W under the limit", cycle, th)
		}
	}
	if c := l.Cap(); c < chip.Freq.Min || c > chip.Freq.Max() {
		t.Fatalf("cap out of range after square wave: %v", c)
	}
}

// Garbage readings — NaN, ±Inf, negative watts — must not poison the
// held sample, move the cap, or wedge the controller.
func TestObserveSanitizesGarbageReadings(t *testing.T) {
	chip := platform.Skylake()
	l := settleUnder(t, chip, 50)
	capBefore := l.Cap()
	garbage := []units.Watts{
		units.Watts(math.NaN()),
		units.Watts(math.Inf(1)),
		units.Watts(math.Inf(-1)),
		-1e6,
	}
	for i := 0; i < 50; i++ {
		for _, g := range garbage {
			l.Observe(g, time.Millisecond)
		}
	}
	if last := float64(l.last); math.IsNaN(last) || math.IsInf(last, 0) || last < 0 {
		t.Errorf("garbage poisoned the held sample: %v", last)
	}
	if c := l.Cap(); c < chip.Freq.Min || c > chip.Freq.Max() {
		t.Errorf("garbage drove the cap out of range: %v", c)
	}
	// Garbage holds the last sane sample, which settled near the limit —
	// the cap must not have climbed on lies.
	if l.Cap() > capBefore {
		t.Errorf("garbage readings opened the cap: %v -> %v", capBefore, l.Cap())
	}
	// The controller keeps working afterwards: sustained overload still
	// throttles, and the cap stays valid.
	th, _ := capMoves(l, repeat(80, 200), time.Millisecond)
	if th == 0 {
		t.Error("controller wedged after garbage: overload no longer throttles")
	}
}
