package sched

import (
	"math"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/units"
	"repro/internal/workload"
)

func newCore(t *testing.T, f units.Hertz) *Core {
	t.Helper()
	c, err := New(platform.Ryzen(), f)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	bad := platform.Ryzen()
	bad.NumCores = 0
	if _, err := New(bad, 3400*units.MHz); err == nil {
		t.Error("invalid chip accepted")
	}
	if _, err := New(platform.Ryzen(), 3412*units.MHz); err == nil {
		t.Error("unquantised frequency accepted")
	}
}

func TestAddValidation(t *testing.T) {
	c := newCore(t, 3400*units.MHz)
	gcc := workload.NewInstance(workload.MustByName("gcc"))
	if err := c.Add(gcc, 0); err == nil {
		t.Error("zero fraction accepted")
	}
	if err := c.Add(gcc, 1.5); err == nil {
		t.Error("fraction > 1 accepted")
	}
	if err := c.Add(workload.NewInstance(workload.Profile{}), 0.5); err == nil {
		t.Error("invalid profile accepted")
	}
	if err := c.Add(gcc, 0.6); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(workload.NewInstance(workload.MustByName("leela")), 0.6); err == nil {
		t.Error("oversubscription accepted")
	}
}

func TestCPUTimeMatchesFractions(t *testing.T) {
	c := newCore(t, 3400*units.MHz)
	a := workload.NewInstance(workload.MustByName("cactusBSSN"))
	b := workload.NewInstance(workload.MustByName("gcc"))
	if err := c.Add(a, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(b, 0.3); err != nil {
		t.Fatal(err)
	}
	c.Run(10 * time.Second)
	if got := c.clock; got != 10*time.Second {
		t.Fatalf("clock = %v", got)
	}
	fa := c.tasks[0].cpuTime.Seconds() / 10
	fb := c.tasks[1].cpuTime.Seconds() / 10
	if math.Abs(fa-0.5) > 0.01 || math.Abs(fb-0.3) > 0.01 {
		t.Errorf("cpu time fractions = %.3f, %.3f; want 0.5, 0.3", fa, fb)
	}
	idle := c.idleTime.Seconds() / 10
	if math.Abs(idle-0.2) > 0.01 {
		t.Errorf("idle fraction = %.3f, want 0.2", idle)
	}
}

// The paper's Figure 6 observation: average core power equals the
// time-weighted sum of the individual solo powers (plus the idle residual).
func TestPowerIsTimeWeightedSum(t *testing.T) {
	chip := platform.Ryzen()
	f := 3400 * units.MHz
	hd := workload.MustByName("cactusBSSN")
	ld := workload.MustByName("gcc")
	// Strip phases so solo power is exact.
	hd.Phases, ld.Phases = nil, nil

	c := newCore(t, f)
	if err := c.Add(workload.NewInstance(hd), 0.5); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(workload.NewInstance(ld), 0.3); err != nil {
		t.Fatal(err)
	}
	c.Run(10 * time.Second)
	want := 0.5*float64(chip.Power.CorePower(f, hd.Activity)) +
		0.3*float64(chip.Power.CorePower(f, ld.Activity)) +
		0.2*float64(chip.Power.IdleCorePower)
	got := float64(c.AveragePower())
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("average power = %.3f W, want time-weighted %.3f W", got, want)
	}
}

// Power must rise monotonically as the varying app's share grows
// (Figure 6's x axis).
func TestPowerMonotoneInShares(t *testing.T) {
	chip := platform.Ryzen()
	_ = chip
	prev := -1.0
	for _, frac := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		c := newCore(t, 3400*units.MHz)
		if err := c.Add(workload.NewInstance(workload.MustByName("cactusBSSN")), 0.5); err != nil {
			t.Fatal(err)
		}
		if err := c.Add(workload.NewInstance(workload.MustByName("gcc")), frac); err != nil {
			t.Fatal(err)
		}
		c.Run(5 * time.Second)
		p := float64(c.AveragePower())
		if p <= prev {
			t.Errorf("power not increasing at fraction %.1f: %.3f <= %.3f", frac, p, prev)
		}
		prev = p
	}
}

// Progress must be proportional to the granted fraction: the HD app at 50%
// retires half the instructions it would alone.
func TestProgressProportionalToFraction(t *testing.T) {
	solo := workload.NewInstance(workload.MustByName("exchange2"))
	c1 := newCore(t, 3400*units.MHz)
	if err := c1.Add(solo, 1.0); err != nil {
		t.Fatal(err)
	}
	c1.Run(5 * time.Second)

	half := workload.NewInstance(workload.MustByName("exchange2"))
	c2 := newCore(t, 3400*units.MHz)
	if err := c2.Add(half, 0.5); err != nil {
		t.Fatal(err)
	}
	c2.Run(5 * time.Second)

	ratio := half.TotalInstructions() / solo.TotalInstructions()
	if math.Abs(ratio-0.5) > 0.01 {
		t.Errorf("instruction ratio = %.3f, want 0.5", ratio)
	}
}

func TestEmptyCoreIdles(t *testing.T) {
	chip := platform.Ryzen()
	c := newCore(t, 3400*units.MHz)
	c.Run(2 * time.Second)
	if c.idleTime != 2*time.Second {
		t.Errorf("idle = %v", c.idleTime)
	}
	want := chip.Power.IdleCorePower
	if got := c.AveragePower(); math.Abs(float64(got-want)) > 1e-9 {
		t.Errorf("idle power = %v, want %v", got, want)
	}
}

func TestHigherFrequencyMoreInstructionsAndPower(t *testing.T) {
	run := func(f units.Hertz) (float64, float64) {
		c := newCore(t, f)
		in := workload.NewInstance(workload.MustByName("gcc"))
		if err := c.Add(in, 1.0); err != nil {
			t.Fatal(err)
		}
		c.Run(2 * time.Second)
		return in.TotalInstructions(), float64(c.AveragePower())
	}
	iLo, pLo := run(1700 * units.MHz)
	iHi, pHi := run(3400 * units.MHz)
	if iHi <= iLo || pHi <= pLo {
		t.Errorf("scaling broken: instr %g->%g power %g->%g", iLo, iHi, pLo, pHi)
	}
}
