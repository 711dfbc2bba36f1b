package workload

import (
	"math"
	"testing"

	"repro/internal/units"
)

// budgetProfiles is every profile, with one whose phases and run are short
// enough that a phase end and a run end come within a few ticks of each
// other.
func budgetProfiles() []Profile {
	short := MustByName("gcc")
	short.Name = "short"
	short.TotalInstructions = 3e8
	short.Phases = []Phase{
		{Instructions: 7e6, CPIMult: 1.00, ActivityMult: 1.00},
		{Instructions: 3e6, CPIMult: 1.20, ActivityMult: 1.10},
	}
	return append(SPEC2017(), CPUBurn, short)
}

// placeBefore returns an instance of p whose IPS memo is for f, placed so
// that the first end the run reaches — the phase end when phase is set and
// p has phases, else the run end — lies ahead by ticks of sec's step plus
// frac of one step, nudged by ulps floats.
func placeBefore(p Profile, phase bool, f units.Hertz, sec float64, ticks int, frac float64, ulps int) *Instance {
	in := NewInstance(p)
	in.memoIPS(f)
	ahead := (float64(ticks) + frac) * in.ips * sec
	for ; ulps > 0; ulps-- {
		ahead = math.Nextafter(ahead, math.Inf(1))
	}
	for ; ulps < 0; ulps++ {
		ahead = math.Nextafter(ahead, 0)
	}
	if phase && len(p.Phases) > 0 {
		in.phaseDone = max(p.Phases[0].Instructions-ahead, 0)
	} else {
		in.done = max(p.TotalInstructions-ahead, 0)
	}
	return in
}

// checkBudget takes SteadyTicks' ticks through RetireSteady on one copy of
// in and through AdvanceSec on another, then both copies on through
// AdvanceSec until both have turned a phase or a run over, and fails unless
// every tick retired the same instructions and left the same state. It
// returns the budget and the tick at which the reference turned over.
func checkBudget(t *testing.T, in *Instance, f units.Hertz, sec float64) (budget, crossed int) {
	t.Helper()
	got, want := *in, *in
	step, n := got.SteadyTicks(f, sec)
	same := func(tick int, g, w float64) {
		t.Helper()
		if g != w || got.done != want.done || got.totalInst != want.totalInst ||
			got.phaseIdx != want.phaseIdx || got.phaseDone != want.phaseDone || got.restarts != want.restarts {
			t.Fatalf("%s at %v, %vs, tick %d of a budget of %d: retired %v, state %+v; per tick %v, state %+v",
				in.Profile.Name, f, sec, tick, n, g, got, w, want)
		}
	}
	turned := func() bool { return want.phaseIdx != in.phaseIdx || want.restarts != in.restarts }
	for k := 1; k <= n; k++ {
		got.RetireSteady(step)
		same(k, step, want.AdvanceSec(f, sec))
		if turned() {
			t.Fatalf("%s at %v, %vs: tick %d of a budget of %d turned a phase or a run over",
				in.Profile.Name, f, sec, k, n)
		}
	}
	for k := n + 1; crossed == 0; k++ {
		same(k, got.AdvanceSec(f, sec), want.AdvanceSec(f, sec))
		if turned() {
			crossed = k
		}
	}
	return n, crossed
}

// The budget never crosses an end: at every profile, a few frequencies and
// two ticks, placed a whole number of steps before each phase end and run
// end, and a float's width either side of that, RetireSteady over the
// budget and then AdvanceSec match AdvanceSec tick by tick, bit for bit.
// The budget also errs short by no more than three ticks.
func TestSteadyBudgetNeverCrossesAnEnd(t *testing.T) {
	for _, p := range budgetProfiles() {
		for _, f := range []units.Hertz{800 * units.MHz, 2200 * units.MHz, 3700 * units.MHz} {
			for _, sec := range []float64{1e-3, 1e-4} {
				for _, phase := range []bool{true, false} {
					for _, ticks := range []int{0, 1, 2, 3, 7, 250} {
						for _, frac := range []float64{0, 0.5} {
							for _, ulps := range []int{-2, -1, 0, 1, 2} {
								in := placeBefore(p, phase, f, sec, ticks, frac, ulps)
								n, crossed := checkBudget(t, in, f, sec)
								if crossed > n+3 {
									t.Errorf("%s at %v, %vs, %d+%v steps ahead: a budget of %d ticks, the end reached at tick %d",
										p.Name, f, sec, ticks, frac, n, crossed)
								}
							}
						}
					}
				}
			}
		}
	}
	// No budget without the memo: a frequency, or a phase's CPI, the memo
	// was not taken at.
	in := placeBefore(MustByName("gcc"), false, 2*units.GHz, 1e-3, 100, 0, 0)
	if _, n := in.SteadyTicks(3*units.GHz, 1e-3); n != 0 {
		t.Errorf("a budget of %d ticks at a frequency the memo is not for", n)
	}
	in.ipsCPI *= 2
	if _, n := in.SteadyTicks(2*units.GHz, 1e-3); n != 0 {
		t.Errorf("a budget of %d ticks at a CPI the memo is not for", n)
	}
	if _, n := NewInstance(CPUBurn).SteadyTicks(0, 1e-3); n != 0 {
		t.Errorf("a budget of %d ticks at 0 Hz", n)
	}
}

// FuzzSteadyBudget places an instance of a profile some steps and a
// fraction before a phase end or a run end, at a frequency and a tick, and
// holds RetireSteady over SteadyTicks' budget, then AdvanceSec, to
// AdvanceSec tick by tick.
func FuzzSteadyBudget(f *testing.F) {
	f.Add(uint8(0), true, uint16(5), 0.0, int8(0), uint16(2200), uint16(1000))
	f.Add(uint8(14), false, uint16(3), 0.999999, int8(-1), uint16(3700), uint16(100))
	f.Add(uint8(15), true, uint16(0), 1e-9, int8(1), uint16(800), uint16(1))
	profiles := budgetProfiles()
	f.Fuzz(func(t *testing.T, prof uint8, phase bool, ticks uint16, frac float64, ulps int8, mhz, tickUs uint16) {
		if !(frac >= 0 && frac < 1) || mhz == 0 || tickUs == 0 {
			t.Skip()
		}
		p := profiles[int(prof)%len(profiles)]
		freq, sec := units.Hertz(mhz)*units.MHz, float64(tickUs)*1e-6
		in := placeBefore(p, phase, freq, sec, int(ticks%2000), frac, int(ulps))
		checkBudget(t, in, freq, sec)
	})
}
