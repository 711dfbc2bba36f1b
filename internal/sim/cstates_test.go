package sim

import (
	"testing"
	"time"

	"repro/internal/units"
	"repro/internal/workload"
)

// idleRig is a Skylake at the given tick with a phaseless gcc on core 0.
func idleRig(t *testing.T, tick time.Duration) *Machine {
	t.Helper()
	m := newSkylake(t, WithTick(tick))
	p := workload.MustByName("gcc")
	p.Phases = nil
	if err := m.Pin(workload.NewInstance(p), 0); err != nil {
		t.Fatal(err)
	}
	return m
}

// dutyCycle runs m for total with core 0 awake for on of every period and
// parked for the rest: the idle windows come from SetIdle, the path a
// daemon's park takes.
func dutyCycle(t *testing.T, m *Machine, on, period, total time.Duration) {
	t.Helper()
	for end := m.Now() + total; m.Now() < end; {
		for _, w := range []struct {
			idle bool
			d    time.Duration
		}{{false, on}, {true, period - on}} {
			if err := m.SetIdle(0, w.idle); err != nil {
				t.Fatal(err)
			}
			m.Run(w.d)
		}
	}
}

func TestBootIdleCoresInDeepestState(t *testing.T) {
	m := newSkylake(t)
	deepest := len(m.Chip().CStates) - 1
	for i := 0; i < m.Chip().NumCores; i++ {
		if got := m.CurrentCState(i); got != deepest {
			t.Errorf("core %d boots in state %d, want %d", i, got, deepest)
		}
	}
	// Deepest state power equals the legacy flat idle power, so the idle
	// package power is unchanged.
	chip := m.Chip()
	if chip.CStates[deepest].Power != chip.Power.IdleCorePower {
		t.Errorf("deepest state power %v != flat idle power %v",
			chip.CStates[deepest].Power, chip.Power.IdleCorePower)
	}
}

func TestActiveCoreReportsNoCState(t *testing.T) {
	m := newSkylake(t)
	pin(t, m, "gcc", 0)
	m.Step()
	if got := m.CurrentCState(0); got != -1 {
		t.Errorf("active core C-state = %d, want -1", got)
	}
}

func TestResidencyPromotion(t *testing.T) {
	// A duty-cycled core with long idle windows must promote through the
	// table and spend most of its idle time in C6.
	m := idleRig(t, 50*time.Microsecond)
	dutyCycle(t, m, 3*time.Millisecond, 10*time.Millisecond, 200*time.Millisecond) // 7 ms idle windows
	res := m.CStateResidency(0)
	if len(res) != 3 {
		t.Fatalf("residency entries = %d", len(res))
	}
	total := res[0] + res[1] + res[2]
	if total <= 0 {
		t.Fatal("no idle residency recorded")
	}
	if float64(res[2])/float64(total) < 0.8 {
		t.Errorf("C6 residency fraction = %.2f, want dominant (res=%v)",
			float64(res[2])/float64(total), res)
	}
	// The shallow states still see entry time before promotion.
	if res[0] == 0 {
		t.Error("C1 never visited on idle entry")
	}
}

func TestShortIdleStaysShallow(t *testing.T) {
	// Idle windows shorter than C6's 400 us target residency must not
	// reach C6.
	m := idleRig(t, 10*time.Microsecond)
	// Let the boot-idle history wash out, then measure.
	dutyCycle(t, m, 200*time.Microsecond, 400*time.Microsecond, 10*time.Millisecond) // 200 us idle windows
	before := m.CStateResidency(0)
	dutyCycle(t, m, 200*time.Microsecond, 400*time.Microsecond, 10*time.Millisecond)
	after := m.CStateResidency(0)
	if d := after[2] - before[2]; d != 0 {
		t.Errorf("C6 gained %v residency with 200 us idle windows", d)
	}
	if d := (after[0] + after[1]) - (before[0] + before[1]); d <= 0 {
		t.Error("shallow states gained no residency")
	}
}

// Wake latency must cost real work: with very short duty periods, a chip
// whose C6 exit costs 133 us loses a measurable instruction fraction.
func TestWakeLatencyCostsInstructions(t *testing.T) {
	run := func(period time.Duration) float64 {
		m := idleRig(t, 100*time.Microsecond)
		if err := m.SetRequest(0, 2*units.GHz); err != nil {
			t.Fatal(err)
		}
		dutyCycle(t, m, period/2, period, time.Second)
		return m.Counters(0).Instr
	}
	// Same total on-time (50%), but 4 ms periods wake 10x more often than
	// 40 ms periods, paying 10x the exit latency.
	frequentWakes := run(4 * time.Millisecond)
	rareWakes := run(40 * time.Millisecond)
	if frequentWakes >= rareWakes {
		t.Errorf("frequent wakes retired %.4g, rare wakes %.4g; wake latency has no cost",
			frequentWakes, rareWakes)
	}
	// The loss should be on the order of exitLatency/period, not huge.
	ratio := frequentWakes / rareWakes
	if ratio < 0.85 {
		t.Errorf("wake cost implausibly large: ratio %.3f", ratio)
	}
}

// Deep idle saves power versus shallow idle for the same duty cycle.
func TestDeepIdleSavesEnergy(t *testing.T) {
	// Long idle windows reach C6 (0.10 W); short ones sit in C1/C1E
	// (0.8/0.4 W). Same 30% on-time.
	run := func(period time.Duration) units.Joules {
		m := idleRig(t, 50*time.Microsecond)
		if err := m.SetRequest(0, 2*units.GHz); err != nil {
			t.Fatal(err)
		}
		dutyCycle(t, m, period*3/10, period, 500*time.Millisecond)
		return m.CoreEnergy(0)
	}
	deep := run(20 * time.Millisecond)     // 14 ms idles: C6
	shallow := run(500 * time.Microsecond) // 350 us idles: C1E at best
	if deep >= shallow {
		t.Errorf("deep idle energy %v not below shallow idle %v", deep, shallow)
	}
}
