package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/units"
)

// Test-only reference for the memoised execute: advanceRef and executeRef
// are Advance and execute as they stood before the IPS memo, dividing out
// IPS(f) on every pass of the loop. A change that moves Advance's results on
// purpose moves them with it; a new input to ipsAt that does not join
// memoIPS's key fails TestAdvanceMatchesReference.

func advanceRef(in *Instance, f units.Hertz, dt time.Duration) float64 {
	if dt <= 0 {
		return 0
	}
	return executeRef(in, f, dt.Seconds())
}

func executeRef(in *Instance, f units.Hertz, sec float64) float64 {
	remaining := sec
	var retired float64
	for remaining > 1e-15 {
		ips := ipsAt(f, in.CurrentCPI(), in.Profile.MemStall)
		if ips <= 0 {
			break
		}
		untilRun := in.Profile.TotalInstructions - in.done
		bound := untilRun
		if n := len(in.Profile.Phases); n > 0 {
			untilPhase := in.Profile.Phases[in.phaseIdx].Instructions - in.phaseDone
			if untilPhase < bound {
				bound = untilPhase
			}
		}
		step := ips * remaining
		if step >= bound {
			step = bound
			remaining -= bound / ips
		} else {
			remaining = 0
		}
		retired += step
		in.done += step
		in.totalInst += step
		in.phaseDone += step
		if n := len(in.Profile.Phases); n > 0 {
			phaseLen := in.Profile.Phases[in.phaseIdx].Instructions
			if in.phaseDone >= phaseLen*(1-1e-12) {
				in.phaseIdx = (in.phaseIdx + 1) % n
				in.phaseDone = 0
			}
		}
		if in.done >= in.Profile.TotalInstructions*(1-1e-12) {
			in.done = 0
			in.restarts++
		}
	}
	return retired
}

func TestAdvanceMatchesReference(t *testing.T) {
	short := MustByName("gcc")
	short.Name = "short"
	short.TotalInstructions = 3e8
	short.Phases = []Phase{
		{Instructions: 7e6, CPIMult: 1.00, ActivityMult: 1.00},
		{Instructions: 3e6, CPIMult: 1.20, ActivityMult: 1.10},
	}
	profiles := append(SPEC2017(), CPUBurn, short)
	for pi, p := range profiles {
		got, want := NewInstance(p), NewInstance(p)
		rng := rand.New(rand.NewSource(int64(pi)))
		f := 2 * units.GHz
		for step := 0; step < 20000; step++ {
			// The frequency holds for a stretch, then moves — to zero and
			// below now and then, as a parked core's does.
			switch rng.Intn(16) {
			case 0:
				f = units.Hertz(rng.Float64()) * 4 * units.GHz
			case 1:
				f = units.Hertz(rng.Intn(2)-1) * units.GHz
			}
			dt := time.Millisecond
			if rng.Intn(50) == 0 {
				dt = time.Duration(rng.Intn(3000)) * time.Millisecond
			}
			if step == 10000 {
				// The stall is part of the key although nothing in the
				// repository moves it under a running instance.
				got.Profile.MemStall *= 2
				want.Profile.MemStall *= 2
				got.Reset()
				want.Reset()
			}
			g, w := got.AdvanceSec(f, dt.Seconds()), advanceRef(want, f, dt)
			if g != w || got.TotalInstructions() != want.TotalInstructions() ||
				got.Progress() != want.Progress() || got.RunsCompleted() != want.RunsCompleted() ||
				got.CurrentActivity() != want.CurrentActivity() {
				t.Fatalf("%s step %d at %v for %v: retired %v (total %v, %d runs), reference %v (total %v, %d runs)",
					p.Name, step, f, dt, g, got.TotalInstructions(), got.RunsCompleted(),
					w, want.TotalInstructions(), want.RunsCompleted())
			}
		}
	}
	// The one-segment advance at its edges: a tick that ends exactly at a
	// phase end or a run end goes through execute's loop, and one a float's
	// width short of either takes the segment and crosses on the threshold.
	for _, c := range []struct {
		name  string
		run   bool // put the run end, not the phase end, first
		exact bool
	}{
		{"exactly at a phase end", false, true},
		{"a float's width short of a phase end", false, false},
		{"exactly at a run end", true, true},
		{"a float's width short of a run end", true, false},
	} {
		got := NewInstance(short)
		if c.run {
			got.done = short.TotalInstructions - 1e6 // 7e6 left in the phase
		} else {
			got.phaseDone = 1e6
		}
		bound := min(short.TotalInstructions-got.done, short.Phases[0].Instructions-got.phaseDone)
		f := 2 * units.GHz
		ips := ipsAt(f, got.CurrentCPI(), got.Profile.MemStall)
		sec := bound / ips
		for ips*sec < bound {
			sec = math.Nextafter(sec, 1)
		}
		for ips*sec > bound {
			sec = math.Nextafter(sec, 0)
		}
		if ips*sec != bound {
			t.Fatalf("%s: no tick lands exactly on %v instructions", c.name, bound)
		}
		for !c.exact && ips*sec >= bound {
			sec = math.Nextafter(sec, 0)
		}
		want := *got
		g, w := got.AdvanceSec(f, sec), executeRef(&want, f, sec)
		if g != w || got.done != want.done || got.totalInst != want.totalInst ||
			got.phaseIdx != want.phaseIdx || got.phaseDone != want.phaseDone ||
			got.restarts != want.restarts {
			t.Fatalf("%s: retired %v, state %+v; reference %v, state %+v", c.name, g, *got, w, want)
		}
		if c.run && got.restarts != 1 || !c.run && got.phaseIdx != 1 {
			t.Fatalf("%s: the tick did not cross (phase %d, %d runs)", c.name, got.phaseIdx, got.restarts)
		}
	}
}
