package sched

import (
	"math"
	"testing"
	"time"

	"repro/internal/units"
	"repro/internal/workload"
)

func coreBound() workload.Profile {
	p := workload.MustByName("exchange2")
	p.Phases = nil
	return p
}

func TestAddSharesProportionalAndWorkConserving(t *testing.T) {
	c := newCore(t, 3400*units.MHz)
	a := workload.NewInstance(coreBound())
	b := workload.NewInstance(coreBound())
	if err := c.AddShares(a, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.AddShares(b, 1); err != nil {
		t.Fatal(err)
	}
	c.Run(10 * time.Second)
	// Work-conserving: no idle time.
	if c.idleTime != 0 {
		t.Errorf("share mode idled %v", c.idleTime)
	}
	fa := c.tasks[0].cpuTime.Seconds() / 10
	fb := c.tasks[1].cpuTime.Seconds() / 10
	if math.Abs(fa-0.75) > 0.01 || math.Abs(fb-0.25) > 0.01 {
		t.Errorf("cpu fractions = %.3f/%.3f, want 0.75/0.25", fa, fb)
	}
}

func TestAddSharesValidation(t *testing.T) {
	c := newCore(t, 3400*units.MHz)
	if err := c.AddShares(workload.NewInstance(coreBound()), 0); err == nil {
		t.Error("zero shares accepted")
	}
	if err := c.AddShares(workload.NewInstance(workload.Profile{}), 1); err == nil {
		t.Error("invalid profile accepted")
	}
	// Mixing modes fails both ways.
	if err := c.AddShares(workload.NewInstance(coreBound()), 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(workload.NewInstance(coreBound()), 0.5); err == nil {
		t.Error("quota task accepted on share core")
	}
	c2 := newCore(t, 3400*units.MHz)
	if err := c2.Add(workload.NewInstance(coreBound()), 0.5); err != nil {
		t.Fatal(err)
	}
	if err := c2.AddShares(workload.NewInstance(coreBound()), 1); err == nil {
		t.Error("share task accepted on quota core")
	}
}

func TestSetFrequency(t *testing.T) {
	c := newCore(t, 3400*units.MHz)
	if err := c.SetFrequency(3412 * units.MHz); err == nil {
		t.Error("unquantised frequency accepted")
	}
	if err := c.SetFrequency(2550 * units.MHz); err != nil {
		t.Fatal(err)
	}
	if got := c.freq; got != 2550*units.MHz {
		t.Errorf("Frequency = %v", got)
	}
}

func TestCompensateValidation(t *testing.T) {
	c := newCore(t, 3400*units.MHz)
	if err := c.Add(workload.NewInstance(coreBound()), 0.5); err != nil {
		t.Fatal(err)
	}
	if err := c.Compensate(0); err == nil {
		t.Error("compensation accepted in quota mode")
	}
	c2 := newCore(t, 3400*units.MHz)
	if err := c2.AddShares(workload.NewInstance(coreBound()), 1); err != nil {
		t.Fatal(err)
	}
	if err := c2.Compensate(5); err == nil {
		t.Error("out-of-range task accepted")
	}
	if err := c2.Compensate(0); err != nil {
		t.Error(err)
	}
}

// The paper's Section 4.3 case 2: under throttling, a compensated
// low-demand task's retired work tracks its unthrottled rate while the
// uncompensated co-runner absorbs the loss.
func TestThrottleCompensation(t *testing.T) {
	// Reference: both tasks at equal shares, full 3.4 GHz, 10 s.
	ref := newCore(t, 3400*units.MHz)
	refLD := workload.NewInstance(coreBound())
	refHD := workload.NewInstance(workload.MustByName("cactusBSSN"))
	if err := ref.AddShares(refLD, 1); err != nil {
		t.Fatal(err)
	}
	if err := ref.AddShares(refHD, 1); err != nil {
		t.Fatal(err)
	}
	ref.Run(10 * time.Second)
	refWork := refLD.TotalInstructions()

	// Throttled without compensation: LD loses proportionally.
	plain := newCore(t, 3400*units.MHz)
	plainLD := workload.NewInstance(coreBound())
	if err := plain.AddShares(plainLD, 1); err != nil {
		t.Fatal(err)
	}
	if err := plain.AddShares(workload.NewInstance(workload.MustByName("cactusBSSN")), 1); err != nil {
		t.Fatal(err)
	}
	if err := plain.SetFrequency(2550 * units.MHz); err != nil {
		t.Fatal(err)
	}
	plain.Run(10 * time.Second)

	// Throttled with compensation: LD's weight scales by 3400/2550.
	comp := newCore(t, 3400*units.MHz)
	compLD := workload.NewInstance(coreBound())
	compHD := workload.NewInstance(workload.MustByName("cactusBSSN"))
	if err := comp.AddShares(compLD, 1); err != nil {
		t.Fatal(err)
	}
	if err := comp.AddShares(compHD, 1); err != nil {
		t.Fatal(err)
	}
	if err := comp.Compensate(0); err != nil {
		t.Fatal(err)
	}
	if err := comp.SetFrequency(2550 * units.MHz); err != nil {
		t.Fatal(err)
	}
	comp.Run(10 * time.Second)

	// Compensated LD work is close to the unthrottled reference (the task
	// is core-bound, so time scaling cancels frequency scaling)...
	if ratio := compLD.TotalInstructions() / refWork; math.Abs(ratio-1) > 0.05 {
		t.Errorf("compensated work ratio = %.3f, want ~1", ratio)
	}
	// ...and clearly above the uncompensated run.
	if compLD.TotalInstructions() <= plainLD.TotalInstructions()*1.1 {
		t.Errorf("compensation ineffective: %.3g vs %.3g",
			compLD.TotalInstructions(), plainLD.TotalInstructions())
	}
	// The HD co-runner pays: less CPU time than the compensated task.
	if comp.tasks[1].cpuTime >= comp.tasks[0].cpuTime {
		t.Errorf("HD task did not pay: %v vs %v", comp.tasks[1].cpuTime, comp.tasks[0].cpuTime)
	}
}

// Compensation never fires above the reference frequency.
func TestCompensationInactiveAtFullSpeed(t *testing.T) {
	c := newCore(t, 3400*units.MHz)
	a := workload.NewInstance(coreBound())
	b := workload.NewInstance(coreBound())
	if err := c.AddShares(a, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddShares(b, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Compensate(0); err != nil {
		t.Fatal(err)
	}
	c.Run(5 * time.Second)
	fa := c.tasks[0].cpuTime.Seconds()
	fb := c.tasks[1].cpuTime.Seconds()
	if math.Abs(fa-fb) > 0.05 {
		t.Errorf("compensation active at full speed: %.2f vs %.2f", fa, fb)
	}
}
