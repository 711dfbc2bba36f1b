package daemon

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/metrics/decisions"
	"repro/internal/msr"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// buildMachine pins the named profiles on consecutive cores at max request.
func buildMachine(t testing.TB, chip platform.Chip, names []string, opts ...sim.Option) *sim.Machine {
	t.Helper()
	m, err := sim.New(chip, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		if err := m.Pin(workload.NewInstance(workload.MustByName(n)), i); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func specsFor(names []string, shares []units.Shares, hp []bool) []core.AppSpec {
	specs := make([]core.AppSpec, len(names))
	for i, n := range names {
		p := workload.MustByName(n)
		specs[i] = core.AppSpec{
			Name:        n,
			Core:        i,
			AVX:         p.AVX,
			BaselineIPS: p.IPS(3000 * units.MHz),
		}
		if shares != nil {
			specs[i].Shares = shares[i]
		}
		if hp != nil {
			specs[i].HighPriority = hp[i]
		}
	}
	return specs
}

func TestNewValidation(t *testing.T) {
	chip := platform.Skylake()
	m := buildMachine(t, chip, []string{"gcc"})
	specs := specsFor([]string{"gcc"}, []units.Shares{50}, nil)
	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	good := Config{Chip: chip, Policy: pol, Apps: specs, Limit: 50}
	if _, err := New(good, m.Device(), MachineActuator{M: m}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, mut := range []func(*Config){
		func(c *Config) { c.Policy = nil },
		func(c *Config) { c.Apps = nil },
		func(c *Config) { c.Limit = 0 },
		func(c *Config) { c.Chip.NumCores = 0 },
	} {
		bad := good
		mut(&bad)
		if _, err := New(bad, m.Device(), MachineActuator{M: m}); err == nil {
			t.Error("invalid config accepted")
		}
	}
}

func TestLifecycleErrors(t *testing.T) {
	chip := platform.Skylake()
	m := buildMachine(t, chip, []string{"gcc"})
	specs := specsFor([]string{"gcc"}, []units.Shares{50}, nil)
	pol, _ := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	d, err := New(Config{Chip: chip, Policy: pol, Apps: specs, Limit: 50}, m.Device(), MachineActuator{M: m})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunIteration(time.Second); err == nil {
		t.Error("RunIteration before Start accepted")
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err == nil {
		t.Error("double Start accepted")
	}
}

// The headline closed-loop test: frequency shares 90/10 between a LD and an
// HD application under a 50 W limit on Skylake. The daemon must (a) hold
// package power at or below the limit, and (b) keep the high-share
// application's frequency well above the low-share one's.
func TestFrequencySharesClosedLoop(t *testing.T) {
	chip := platform.Skylake()
	names := []string{"leela", "leela", "leela", "leela", "leela",
		"cactusBSSN", "cactusBSSN", "cactusBSSN", "cactusBSSN", "cactusBSSN"}
	shares := []units.Shares{90, 90, 90, 90, 90, 10, 10, 10, 10, 10}
	m := buildMachine(t, chip, names)
	specs := specsFor(names, shares, nil)
	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{Chip: chip, Policy: pol, Apps: specs, Limit: 50}, m.Device(), MachineActuator{M: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AttachVirtual(m); err != nil {
		t.Fatal(err)
	}
	m.Run(60 * time.Second)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if d.Iterations() < 50 {
		t.Fatalf("only %d iterations ran", d.Iterations())
	}
	snap := d.LastSnapshot()
	if snap.PackagePower > 50*1.05 {
		t.Errorf("settled power %v exceeds limit", snap.PackagePower)
	}
	// High-share apps (cores 0-4) must run much faster than low-share.
	fHigh := snap.Apps[0].Freq
	fLow := snap.Apps[5].Freq
	if fHigh <= fLow {
		t.Errorf("share ordering violated: high %v <= low %v", fHigh, fLow)
	}
	if float64(fHigh)/float64(fLow) < 1.5 {
		t.Errorf("frequency ratio %.2f too small for 90/10 shares", float64(fHigh)/float64(fLow))
	}
}

// Under RAPL at the same limit there is no share differentiation — the
// policy's value is exactly this contrast (Figure 9 vs native RAPL).
func TestRAPLBaselineHasNoDifferentiation(t *testing.T) {
	chip := platform.Skylake()
	names := []string{"leela", "leela", "leela", "leela", "leela",
		"cactusBSSN", "cactusBSSN", "cactusBSSN", "cactusBSSN", "cactusBSSN"}
	m := buildMachine(t, chip, names)
	for i := range names {
		if err := m.SetRequest(i, chip.Freq.Max()); err != nil {
			t.Fatal(err)
		}
	}
	m.SetPowerLimit(50)
	m.Run(5 * time.Second)
	fLD := m.EffectiveFreq(0)
	fHD := m.EffectiveFreq(5)
	// Both classes end at the same RAPL cap (no AVX apps here).
	if fLD != fHD {
		t.Errorf("RAPL differentiated: LD %v vs HD %v", fLD, fHD)
	}
}

func TestPerformanceSharesClosedLoop(t *testing.T) {
	chip := platform.Skylake()
	names := []string{"leela", "leela", "cactusBSSN", "cactusBSSN"}
	shares := []units.Shares{70, 70, 30, 30}
	m := buildMachine(t, chip, names)
	specs := specsFor(names, shares, nil)
	pol, err := core.NewPerformanceShares(chip, specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{Chip: chip, Policy: pol, Apps: specs, Limit: 45}, m.Device(), MachineActuator{M: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AttachVirtual(m); err != nil {
		t.Fatal(err)
	}
	m.Run(60 * time.Second)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	snap := d.LastSnapshot()
	if snap.PackagePower > 45*1.05 {
		t.Errorf("settled power %v exceeds limit", snap.PackagePower)
	}
	// Normalised performance must be ordered by shares.
	npHigh := snap.Apps[0].NormPerf()
	npLow := snap.Apps[2].NormPerf()
	if npHigh <= npLow {
		t.Errorf("performance ordering violated: %0.3f <= %0.3f", npHigh, npLow)
	}
}

func TestPowerSharesClosedLoopOnRyzen(t *testing.T) {
	chip := platform.Ryzen()
	names := []string{"cactusBSSN", "cactusBSSN", "cactusBSSN", "cactusBSSN",
		"leela", "leela", "leela", "leela"}
	shares := []units.Shares{70, 70, 70, 70, 30, 30, 30, 30}
	m := buildMachine(t, chip, names)
	specs := specsFor(names, shares, nil)
	pol, err := core.NewPowerShares(chip, specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{Chip: chip, Policy: pol, Apps: specs, Limit: 50}, m.Device(), MachineActuator{M: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AttachVirtual(m); err != nil {
		t.Fatal(err)
	}
	m.Run(90 * time.Second)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	snap := d.LastSnapshot()
	if snap.PackagePower > 50*1.08 {
		t.Errorf("settled power %v exceeds limit", snap.PackagePower)
	}
	// Per-core power must be ordered by shares.
	pHigh := snap.Apps[0].Power
	pLow := snap.Apps[4].Power
	if pHigh <= pLow {
		t.Errorf("power ordering violated: %v <= %v", pHigh, pLow)
	}
	// And roughly in 70/30 proportion (the paper's Figure 10 tolerance).
	ratio := float64(pHigh / pLow)
	if ratio < 1.4 || ratio > 3.5 {
		t.Errorf("power ratio %.2f far from 7/3", ratio)
	}
}

// Priority closed loop: at 40 W with 3 HP and 7 LP apps the LP class stays
// parked and the HP class runs at or above its all-HP turbo bin — the
// paper's opportunistic-scaling result (Figure 7 at 40 W, 3H7L).
func TestPriorityClosedLoopStarvation(t *testing.T) {
	chip := platform.Skylake()
	names := []string{"cactusBSSN", "cactusBSSN", "leela",
		"cactusBSSN", "leela", "leela", "cactusBSSN", "leela", "cactusBSSN", "leela"}
	hp := []bool{true, true, true, false, false, false, false, false, false, false}
	m := buildMachine(t, chip, names)
	specs := specsFor(names, nil, hp)
	pol, err := core.NewPriority(chip, specs, core.PriorityConfig{Limit: 40})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{Chip: chip, Policy: pol, Apps: specs, Limit: 40}, m.Device(), MachineActuator{M: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AttachVirtual(m); err != nil {
		t.Fatal(err)
	}
	m.Run(60 * time.Second)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	snap := d.LastSnapshot()
	if snap.PackagePower > 40*1.05 {
		t.Errorf("power %v exceeds 40 W", snap.PackagePower)
	}
	for i := 3; i < 10; i++ {
		if !d.Parked(i) {
			t.Errorf("LP core %d not starved at 40 W", i)
		}
	}
	// HP apps run fast thanks to the freed turbo headroom: above the
	// all-core bin.
	if f := snap.Apps[2].Freq; f < 2500*units.MHz {
		t.Errorf("HP app at %v, expected turbo above 2.5 GHz", f)
	}
}

// With ample power (85 W) the priority policy must run everything.
func TestPriorityClosedLoopFullPower(t *testing.T) {
	chip := platform.Skylake()
	names := []string{"cactusBSSN", "leela", "cactusBSSN", "leela"}
	hp := []bool{true, true, false, false}
	m := buildMachine(t, chip, names)
	specs := specsFor(names, nil, hp)
	pol, err := core.NewPriority(chip, specs, core.PriorityConfig{Limit: 85})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{Chip: chip, Policy: pol, Apps: specs, Limit: 85}, m.Device(), MachineActuator{M: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AttachVirtual(m); err != nil {
		t.Fatal(err)
	}
	m.Run(60 * time.Second)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range names {
		if d.Parked(i) {
			t.Errorf("core %d parked despite 85 W budget", i)
		}
	}
	snap := d.LastSnapshot()
	if f := snap.Apps[3].Freq; f < chip.Freq.Min {
		t.Errorf("LP app frequency %v below floor", f)
	}
}

func TestMSRActuatorCannotPark(t *testing.T) {
	chip := platform.Skylake()
	m := buildMachine(t, chip, []string{"gcc"})
	act := MSRActuator{Dev: m.Device(), Step: chip.Freq.Step}
	if err := act.Park(0, true); err == nil {
		t.Error("MSR actuator parked a core")
	}
	if err := act.Park(0, false); err != nil {
		t.Errorf("unpark no-op failed: %v", err)
	}
	if err := act.SetFreq(0, 1500*units.MHz); err != nil {
		t.Fatal(err)
	}
	if got := m.Request(0); got != 1500*units.MHz {
		t.Errorf("request = %v", got)
	}
}

// Real-time mode over the file-backed MSR device: the loop must complete
// its iterations and record a jitter distribution.
func TestRealtimeLoopRecordsJitter(t *testing.T) {
	chip := platform.Skylake()
	dir := t.TempDir()
	dev, err := msr.NewFileDevice(dir)
	if err != nil {
		t.Fatal(err)
	}
	specs := specsFor([]string{"gcc", "leela"}, []units.Shares{60, 40}, nil)
	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{
		Chip: chip, Policy: pol, Apps: specs, Limit: 50,
		Interval: 2 * time.Millisecond,
	}, dev, MSRActuator{Dev: dev, Step: chip.Freq.Step})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.RunRealtime(ctx, 20); err != nil {
		t.Fatal(err)
	}
	js := d.Jitter()
	if js.Samples != 20 {
		t.Errorf("jitter samples = %d, want 20", js.Samples)
	}
	if js.Max < js.Mean {
		t.Errorf("jitter stats inconsistent: %+v", js)
	}
	// The daemon's P-state writes must have landed in the file tree.
	v, err := dev.Read(0, msr.IA32PerfCtl)
	if err != nil {
		t.Fatal(err)
	}
	if v == 0 {
		t.Error("no PERF_CTL write reached the file device")
	}
}

// Real-time mode against the simulated machine's MSR device at millisecond
// intervals: virtual time advances one interval per wall iteration (through
// the snapshot hook, which runs on the loop goroutine), so the daemon sees
// real telemetry deltas. Verifies iteration count, bounded jitter stats,
// metrics, and the decision journal.
func TestRealtimeAgainstSimDevice(t *testing.T) {
	chip := platform.Skylake()
	m := buildMachine(t, chip, []string{"leela", "cactusBSSN"})
	specs := specsFor([]string{"leela", "cactusBSSN"}, []units.Shares{80, 20}, nil)
	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	journal := decisions.NewJournal(16)
	const iters = 30
	interval := time.Millisecond
	d, err := New(Config{
		Chip: chip, Policy: pol, Apps: specs, Limit: 50,
		Interval: interval,
		Metrics:  reg,
		Journal:  journal,
		OnSnapshot: func(core.Snapshot) {
			m.Run(interval) // advance virtual time in lockstep with wall time
		},
	}, m.Device(), MachineActuator{M: m})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.RunRealtime(ctx, iters); err != nil {
		t.Fatal(err)
	}
	if got := d.Iterations(); got != iters {
		t.Errorf("iterations = %d, want %d", got, iters)
	}
	js := d.Jitter()
	if js.Samples != iters {
		t.Errorf("jitter samples = %d, want %d", js.Samples, iters)
	}
	if js.Max < js.Mean || js.Mean < 0 || js.P99 < 0 {
		t.Errorf("jitter stats inconsistent: %+v", js)
	}
	if got := reg.Counter("powerd_iterations_total", "").Value(); got != iters {
		t.Errorf("powerd_iterations_total = %v, want %d", got, iters)
	}
	if got := reg.Histogram("powerd_iteration_seconds", "", nil).Count(); got != iters {
		t.Errorf("iteration histogram count = %d, want %d", got, iters)
	}
	if journal.Total() != iters {
		t.Errorf("journal total = %d, want %d", journal.Total(), iters)
	}
	last, ok := journal.Last()
	if !ok || last.Policy != "frequency-shares" || len(last.Reasons) == 0 {
		t.Errorf("journal last = %+v, %v", last, ok)
	}
	// The daemon must have seen real power once virtual time advanced.
	if snap := d.LastSnapshot(); snap.PackagePower <= 0 {
		t.Errorf("no package power observed: %+v", snap)
	}
}

// Cancelling mid-run must surface the context error and leave a partial
// iteration count.
func TestRealtimeSimDeviceCancelMidRun(t *testing.T) {
	chip := platform.Skylake()
	m := buildMachine(t, chip, []string{"gcc"})
	specs := specsFor([]string{"gcc"}, []units.Shares{50}, nil)
	pol, _ := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	stopAfter := 5
	d, err := New(Config{
		Chip: chip, Policy: pol, Apps: specs, Limit: 50,
		Interval: time.Millisecond,
	}, m.Device(), MachineActuator{M: m})
	if err != nil {
		t.Fatal(err)
	}
	d.cfg.OnSnapshot = func(core.Snapshot) {
		m.Run(time.Millisecond)
		if d.Iterations() >= stopAfter {
			cancel()
		}
	}
	if err := d.RunRealtime(ctx, 1_000_000); err == nil {
		t.Fatal("cancellation not surfaced")
	}
	if got := d.Iterations(); got < stopAfter || got > stopAfter+1 {
		t.Errorf("iterations = %d, want ~%d", got, stopAfter)
	}
}

func TestRealtimeContextCancel(t *testing.T) {
	chip := platform.Skylake()
	dev, err := msr.NewFileDevice(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs := specsFor([]string{"gcc"}, []units.Shares{50}, nil)
	pol, _ := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	d, err := New(Config{
		Chip: chip, Policy: pol, Apps: specs, Limit: 50,
		Interval: time.Hour, // never fires
	}, dev, MSRActuator{Dev: dev, Step: chip.Freq.Step})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := d.RunRealtime(ctx, 1); err == nil {
		t.Error("cancelled context not surfaced")
	}
}
