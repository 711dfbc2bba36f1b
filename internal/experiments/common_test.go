package experiments

import (
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestMeterAverages(t *testing.T) {
	chip := platform.Skylake()
	m, err := sim.New(chip)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Pin(workload.NewInstance(workload.MustByName("exchange2")), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.SetRequest(0, 2000*units.MHz); err != nil {
		t.Fatal(err)
	}
	m.Run(time.Second)
	meter := NewMeter(m)
	m.Run(2 * time.Second)
	ms := meter.Measure()
	if ms.Duration != 2*time.Second {
		t.Errorf("Duration = %v", ms.Duration)
	}
	if got := ms.Cores[0].MeanFreq; got != 2000*units.MHz {
		t.Errorf("MeanFreq = %v", got)
	}
	wantIPS := workload.MustByName("exchange2").IPS(2000 * units.MHz)
	if rel := (ms.Cores[0].IPS - wantIPS) / wantIPS; rel > 0.01 || rel < -0.01 {
		t.Errorf("IPS = %g, want %g", ms.Cores[0].IPS, wantIPS)
	}
	if ms.PackagePower <= chip.Power.UncorePower {
		t.Errorf("PackagePower = %v", ms.PackagePower)
	}
}

func TestStandaloneIPSCachesAndIsPositive(t *testing.T) {
	chip := platform.Skylake()
	a := StandaloneIPS(chip, "gcc")
	b := StandaloneIPS(chip, "gcc")
	if a <= 0 || a != b {
		t.Errorf("baseline = %g, %g", a, b)
	}
	// gcc standalone gets single-core turbo: baseline should be near its
	// analytic IPS at 3 GHz.
	want := workload.MustByName("gcc").IPS(3000 * units.MHz)
	if rel := (a - want) / want; rel > 0.05 || rel < -0.05 {
		t.Errorf("baseline %g far from analytic %g", a, want)
	}
	// AVX app baseline is capped by the licence.
	lbm := StandaloneIPS(chip, "lbm")
	capped := workload.MustByName("lbm").IPS(1900 * units.MHz)
	if rel := (lbm - capped) / capped; rel > 0.05 || rel < -0.05 {
		t.Errorf("lbm baseline %g far from AVX-capped %g", lbm, capped)
	}
}

func TestRunValidation(t *testing.T) {
	chip := platform.Skylake()
	if _, err := Run(RunConfig{Chip: chip, Policy: RAPL, Limit: 50}); err == nil {
		t.Error("empty names accepted")
	}
	names := make([]string, 11)
	for i := range names {
		names[i] = "gcc"
	}
	if _, err := Run(RunConfig{Chip: chip, Names: names, Policy: RAPL, Limit: 50}); err == nil {
		t.Error("too many apps accepted")
	}
	if _, err := Run(RunConfig{Chip: chip, Names: []string{"nope"}, Policy: RAPL, Limit: 50}); err == nil {
		t.Error("unknown profile accepted")
	}
	if _, err := Run(RunConfig{Chip: chip, Names: []string{"gcc"}, Policy: "bogus", Limit: 50}); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestRunRAPLRespectsLimit(t *testing.T) {
	res, err := Run(RunConfig{
		Chip:   platform.Skylake(),
		Names:  []string{"cactusBSSN", "cactusBSSN", "cactusBSSN", "cactusBSSN", "cactusBSSN"},
		Policy: RAPL,
		Limit:  40,
		Warmup: 5 * time.Second,
		Window: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PackagePower > 40*1.03 {
		t.Errorf("package power %v exceeds limit", res.PackagePower)
	}
}

func TestTablesRenderNonEmpty(t *testing.T) {
	for _, tb := range []struct {
		name string
		rows int
	}{
		{"Table1", len(Table1().Rows)},
		{"Table2", len(Table2().Rows)},
		{"Table3", len(Table3().Rows)},
	} {
		if tb.rows == 0 {
			t.Errorf("%s empty", tb.name)
		}
	}
}

func TestSummarize(t *testing.T) {
	if got := summarize(nil); got != "-" {
		t.Errorf("empty = %q", got)
	}
	got := summarize([]string{"a", "a", "b"})
	if got != "2x a, 1x b" {
		t.Errorf("summarize = %q", got)
	}
}
