package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/msr"
	"repro/internal/platform"
	"repro/internal/units"
	"repro/internal/workload"
)

func newSkylake(t *testing.T, opts ...Option) *Machine {
	t.Helper()
	m, err := New(platform.Skylake(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newRyzen(t *testing.T, opts ...Option) *Machine {
	t.Helper()
	m, err := New(platform.Ryzen(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func pin(t *testing.T, m *Machine, name string, core int) *workload.Instance {
	t.Helper()
	in := workload.NewInstance(workload.MustByName(name))
	if err := m.Pin(in, core); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestNewRejectsBadConfig(t *testing.T) {
	bad := platform.Skylake()
	bad.NumCores = 0
	if _, err := New(bad); err == nil {
		t.Error("invalid chip accepted")
	}
	if _, err := New(platform.Skylake(), WithTick(-time.Second)); err == nil {
		t.Error("negative tick accepted")
	}
}

func TestPinErrors(t *testing.T) {
	m := newSkylake(t)
	in := workload.NewInstance(workload.MustByName("gcc"))
	if err := m.Pin(in, -1); err == nil {
		t.Error("negative core accepted")
	}
	if err := m.Pin(in, 10); err == nil {
		t.Error("out-of-range core accepted")
	}
	if err := m.Pin(in, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Pin(workload.NewInstance(workload.MustByName("leela")), 0); err == nil {
		t.Error("double pin accepted")
	}
	if err := m.Pin(workload.NewInstance(workload.Profile{}), 1); err == nil {
		t.Error("invalid profile accepted")
	}
	if got := m.App(0); got != in {
		t.Error("App(0) mismatch")
	}
	if got := m.App(99); got != nil {
		t.Error("App out of range should be nil")
	}
}

func TestUnpinIdlesCore(t *testing.T) {
	m := newSkylake(t)
	pin(t, m, "gcc", 3)
	if m.Idle(3) {
		t.Fatal("pinned core should be awake")
	}
	m.Unpin(3)
	if !m.Idle(3) || m.App(3) != nil {
		t.Error("unpin did not idle core")
	}
	m.Unpin(-1) // must not panic
}

func TestSetIdleSemantics(t *testing.T) {
	m := newSkylake(t)
	pin(t, m, "gcc", 0)
	if err := m.SetIdle(0, true); err != nil {
		t.Fatal(err)
	}
	if m.ActiveCores() != 0 {
		t.Error("idled core still active")
	}
	if err := m.SetIdle(0, false); err != nil {
		t.Fatal(err)
	}
	if err := m.SetIdle(5, false); err == nil {
		t.Error("waking an empty core should fail")
	}
	if err := m.SetIdle(99, true); err == nil {
		t.Error("out of range accepted")
	}
}

func TestClockAdvances(t *testing.T) {
	m := newSkylake(t, WithTick(2*time.Millisecond))
	m.Run(100 * time.Millisecond)
	if m.Now() != 100*time.Millisecond {
		t.Errorf("Now = %v", m.Now())
	}
	if m.dt != 2*time.Millisecond {
		t.Errorf("tick = %v", m.dt)
	}
}

func TestIdleMachineDrawsOnlyStaticPower(t *testing.T) {
	m := newSkylake(t)
	chip := m.Chip()
	want := chip.Power.UncorePower + units.Watts(chip.NumCores)*chip.Power.IdleCorePower
	if got := m.PackagePower(); math.Abs(float64(got-want)) > 1e-9 {
		t.Errorf("idle power = %v, want %v", got, want)
	}
	m.Run(time.Second)
	if got := m.PackageEnergy(); math.Abs(float64(got)-float64(want)) > 1e-6 {
		t.Errorf("idle energy over 1s = %v, want %v", got, want)
	}
}

func TestTurboGrantDependsOnOccupancy(t *testing.T) {
	m := newSkylake(t)
	chip := m.Chip()
	// One core, non-AVX, requesting max: gets single-core turbo.
	pin(t, m, "gcc", 0)
	if err := m.SetRequest(0, chip.Freq.Max()); err != nil {
		t.Fatal(err)
	}
	m.Step() // first tick pays the C6 wake latency
	m.Step()
	if got := m.EffectiveFreq(0); got != 3000*units.MHz {
		t.Errorf("single-core turbo = %v, want 3 GHz", got)
	}
	// Fill all cores: all-core bin applies.
	for i := 1; i < chip.NumCores; i++ {
		pin(t, m, "gcc", i)
		if err := m.SetRequest(i, chip.Freq.Max()); err != nil {
			t.Fatal(err)
		}
	}
	m.Step()
	m.Step()
	if got := m.EffectiveFreq(0); got != 2500*units.MHz {
		t.Errorf("all-core frequency = %v, want 2.5 GHz", got)
	}
}

func TestAVXLicenceCapsEffectiveFreq(t *testing.T) {
	m := newSkylake(t)
	for i := 0; i < 10; i++ {
		name := "gcc"
		if i >= 5 {
			name = "cam4"
		}
		pin(t, m, name, i)
		if err := m.SetRequest(i, m.Chip().Freq.Max()); err != nil {
			t.Fatal(err)
		}
	}
	m.Step() // first tick pays the C6 wake latency
	m.Step()
	if got := m.EffectiveFreq(0); got != 2500*units.MHz {
		t.Errorf("gcc core = %v, want 2.5 GHz", got)
	}
	if got := m.EffectiveFreq(5); got != 1700*units.MHz {
		t.Errorf("cam4 core = %v, want AVX cap 1.7 GHz", got)
	}
}

func TestRAPLClosedLoopOnMachine(t *testing.T) {
	m := newSkylake(t)
	for i := 0; i < 10; i++ {
		pin(t, m, "gcc", i)
		if err := m.SetRequest(i, m.Chip().Freq.Max()); err != nil {
			t.Fatal(err)
		}
	}
	m.SetPowerLimit(50)
	m.Run(2 * time.Second)
	if got := m.PackagePower(); got > 50*1.02 {
		t.Errorf("settled package power %v exceeds 50 W", got)
	}
	if m.EffectiveFreq(0) >= 2500*units.MHz {
		t.Error("RAPL never throttled")
	}
	// Average over the last second must also respect the limit.
	e0 := m.PackageEnergy()
	m.Run(time.Second)
	avg := (m.PackageEnergy() - e0).Power(time.Second)
	if avg > 50*1.02 {
		t.Errorf("1s average %v exceeds limit", avg)
	}
}

func TestInstructionsMatchWorkloadModel(t *testing.T) {
	m := newSkylake(t)
	in := pin(t, m, "exchange2", 0)
	if err := m.SetRequest(0, 2000*units.MHz); err != nil {
		t.Fatal(err)
	}
	m.Run(time.Second)
	want := in.Profile.IPS(2000 * units.MHz)
	got := m.Counters(0).Instr
	// The first tick pays the C6 wake latency (133 us), so allow that
	// fraction of slack.
	if math.Abs(got-want)/want > 2e-4 {
		t.Errorf("instructions = %g, want %g", got, want)
	}
}

func TestEnergyAccounting(t *testing.T) {
	m := newRyzen(t)
	pin(t, m, "cactusBSSN", 0)
	if err := m.SetRequest(0, 3000*units.MHz); err != nil {
		t.Fatal(err)
	}
	p := m.PackagePower()
	m.Run(time.Second)
	// Power is constant here (no RAPL, fixed phase would vary slightly:
	// cactusBSSN has phases, so allow 10%).
	if math.Abs(float64(m.PackageEnergy())-float64(p)) > 0.1*float64(p) {
		t.Errorf("package energy %v vs initial power %v", m.PackageEnergy(), p)
	}
	var coreSum units.Joules
	for i := 0; i < m.Chip().NumCores; i++ {
		coreSum += m.CoreEnergy(i)
	}
	uncore := m.Chip().Power.UncorePower.Energy(time.Second)
	if math.Abs(float64(m.PackageEnergy()-coreSum-uncore)) > 1e-6 {
		t.Errorf("package %v != cores %v + uncore %v", m.PackageEnergy(), coreSum, uncore)
	}
}

// The calendar's semantics, one case a row: what fires at the end of which
// tick, in which order, and with what elapsed time. Every entry notes
// "name@now+elapsed"; an At notes elapsed as 0.
func TestOnTickHookRuns(t *testing.T) {
	every := func(n int, name string, period time.Duration) []string {
		var out []string
		for i := 1; i <= n; i++ {
			out = append(out, fmt.Sprintf("%s@%v+%v", name, time.Duration(i)*period, period))
		}
		return out
	}
	cases := []struct {
		name string
		run  time.Duration
		reg  func(m *Machine, note func(name string) func(time.Duration))
		want []string
	}{
		{
			name: "OnTick passes the tick every tick",
			run:  50 * time.Millisecond,
			reg:  func(m *Machine, note func(string) func(time.Duration)) { m.OnTick(note("tick")) },
			want: every(50, "tick", time.Millisecond),
		},
		{
			name: "Run steps whole ticks: 1500µs on a 1 ms tick ends at 2 ms",
			run:  1500 * time.Microsecond,
			reg:  func(m *Machine, note func(string) func(time.Duration)) { m.OnTick(note("tick")) },
			want: every(2, "tick", time.Millisecond),
		},
		{
			name: "entries due at one tick fire in registration order",
			run:  2 * time.Millisecond,
			reg: func(m *Machine, note func(string) func(time.Duration)) {
				m.OnTick(note("a"))
				m.At(2*time.Millisecond, func() { note("b")(0) })
				m.Every(2*time.Millisecond, note("c"))
				m.At(1500*time.Microsecond, func() { note("d")(0) })
				m.OnTick(note("e"))
			},
			want: []string{
				"a@1ms+1ms", "e@1ms+1ms",
				"a@2ms+1ms", "b@2ms+0s", "c@2ms+2ms", "d@2ms+0s", "e@2ms+1ms",
			},
		},
		{
			name: "an Every longer than a tick is passed the ticks it waited",
			run:  9 * time.Millisecond,
			reg: func(m *Machine, note func(string) func(time.Duration)) {
				m.Every(2500*time.Microsecond, note("e"))
			},
			want: every(3, "e", 3*time.Millisecond),
		},
		{
			name: "an At between two ticks fires at the later, an At already passed at the next",
			run:  3 * time.Millisecond,
			reg: func(m *Machine, note func(string) func(time.Duration)) {
				m.At(1500*time.Microsecond, func() { note("between")(0) })
				m.At(0, func() { note("passed")(0) })
			},
			want: []string{"passed@1ms+0s", "between@2ms+0s"},
		},
		{
			name: "Every(10ms) fires 100 times in 1s",
			run:  time.Second,
			reg: func(m *Machine, note func(string) func(time.Duration)) {
				m.Every(10*time.Millisecond, note("e"))
			},
			want: every(100, "e", 10*time.Millisecond),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newSkylake(t)
			var got []string
			tc.reg(m, func(name string) func(time.Duration) {
				return func(elapsed time.Duration) {
					got = append(got, fmt.Sprintf("%s@%v+%v", name, m.Now(), elapsed))
				}
			})
			m.Run(tc.run)
			if !slices.Equal(got, tc.want) {
				t.Errorf("fired\n  %v\nwant\n  %v", got, tc.want)
			}
		})
	}
}

func TestMSRPerfCtlRoundTrip(t *testing.T) {
	m := newSkylake(t)
	pin(t, m, "gcc", 2)
	dev := m.Device()
	if err := dev.Write(2, msr.IA32PerfCtl, msr.EncodePerfCtl(1500*units.MHz, 100*units.MHz)); err != nil {
		t.Fatal(err)
	}
	if got := m.Request(2); got != 1500*units.MHz {
		t.Errorf("request after MSR write = %v", got)
	}
	v, err := dev.Read(2, msr.IA32PerfCtl)
	if err != nil {
		t.Fatal(err)
	}
	if got := msr.DecodePerfCtl(v, 100*units.MHz); got != 1500*units.MHz {
		t.Errorf("PERF_CTL read back = %v", got)
	}
	m.Step() // first tick pays the C6 wake latency
	m.Step()
	v, err = dev.Read(2, msr.IA32PerfStatus)
	if err != nil {
		t.Fatal(err)
	}
	if got := msr.DecodePerfCtl(v, 100*units.MHz); got != 1500*units.MHz {
		t.Errorf("PERF_STATUS = %v", got)
	}
}

func TestMSRCounterDerivation(t *testing.T) {
	m := newSkylake(t)
	pin(t, m, "gcc", 0)
	if err := m.SetRequest(0, 1100*units.MHz); err != nil {
		t.Fatal(err)
	}
	dev := m.Device()
	a0, _ := dev.Read(0, msr.IA32Aperf)
	m0, _ := dev.Read(0, msr.IA32Mperf)
	m.Run(time.Second)
	a1, _ := dev.Read(0, msr.IA32Aperf)
	m1, _ := dev.Read(0, msr.IA32Mperf)
	nom := m.Chip().Freq.Nom
	derived := float64(nom) * float64(a1-a0) / float64(m1-m0)
	if math.Abs(derived-1.1e9) > 1e6 {
		t.Errorf("derived frequency = %g, want 1.1 GHz", derived)
	}
}

func TestMSREnergyStatus(t *testing.T) {
	m := newSkylake(t)
	pin(t, m, "gcc", 0)
	dev := m.Device()
	uv, err := dev.Read(0, msr.RAPLPowerUnit)
	if err != nil {
		t.Fatal(err)
	}
	unit := msr.DecodePowerUnit(uv)
	c0, _ := dev.Read(0, msr.PkgEnergyStatus)
	m.Run(time.Second)
	c1, _ := dev.Read(0, msr.PkgEnergyStatus)
	got := unit.FromCounts(msr.DeltaCounts(c0, c1))
	want := m.PackageEnergy()
	if math.Abs(float64(got-want)) > 2*float64(unit.UnitJoules()) {
		t.Errorf("MSR energy = %v, machine energy = %v", got, want)
	}
}

func TestMSRPowerLimitWrite(t *testing.T) {
	m := newSkylake(t)
	dev := m.Device()
	if err := dev.Write(0, msr.PkgPowerLimit, msr.EncodePowerLimit(50, true)); err != nil {
		t.Fatal(err)
	}
	if got := m.Limiter().Limit(); got != 50 {
		t.Errorf("limit = %v", got)
	}
	v, _ := dev.Read(0, msr.PkgPowerLimit)
	if w, en := msr.DecodePowerLimit(v); w != 50 || !en {
		t.Errorf("read back (%v,%v)", w, en)
	}
	// Disable clears the limit.
	if err := dev.Write(0, msr.PkgPowerLimit, msr.EncodePowerLimit(50, false)); err != nil {
		t.Fatal(err)
	}
	if got := m.Limiter().Limit(); got != 0 {
		t.Errorf("limit after disable = %v", got)
	}
}

func TestRyzenRejectsHardwareRAPLWrite(t *testing.T) {
	m := newRyzen(t)
	err := m.Device().Write(0, msr.PkgPowerLimit, msr.EncodePowerLimit(50, true))
	if err == nil {
		t.Error("Ryzen accepted a hardware RAPL limit write")
	}
}

func TestPerCoreEnergyVisibility(t *testing.T) {
	// Ryzen: per-core energy differs per core.
	ry := newRyzen(t)
	pin(t, ry, "cactusBSSN", 0)
	ry.Run(time.Second)
	e0, _ := ry.Device().Read(0, msr.AMDCoreEnergy)
	e1, _ := ry.Device().Read(1, msr.AMDCoreEnergy)
	if e0 <= e1 {
		t.Errorf("busy core energy %d should exceed idle core %d", e0, e1)
	}
	// Skylake: PP0 reads the same (sum) regardless of addressed cpu.
	sk := newSkylake(t)
	pin(t, sk, "gcc", 0)
	sk.Run(time.Second)
	s0, _ := sk.Device().Read(0, msr.PP0EnergyStatus)
	s1, _ := sk.Device().Read(7, msr.PP0EnergyStatus)
	if s0 != s1 {
		t.Errorf("Skylake PP0 should not be per-core: %d vs %d", s0, s1)
	}
}

func TestMSRRejectsBadCPU(t *testing.T) {
	m := newSkylake(t)
	if _, err := m.Device().Read(100, msr.IA32Aperf); err == nil {
		t.Error("out-of-range cpu read accepted")
	}
	if err := m.Device().Write(-1, msr.IA32PerfCtl, 0); err == nil {
		t.Error("out-of-range cpu write accepted")
	}
}

// Opportunistic scaling headroom: idling other cores must let the remaining
// core run faster and finish sooner (the basis of the priority policy's
// starvation choice).
func TestIdlingCoresBoostsRemaining(t *testing.T) {
	run := func(loaded int) units.Hertz {
		m := newSkylake(t)
		for i := 0; i < loaded; i++ {
			pin(t, m, "gcc", i)
			if err := m.SetRequest(i, m.Chip().Freq.Max()); err != nil {
				t.Fatal(err)
			}
		}
		m.Step()
		return m.EffectiveFreq(0)
	}
	if f1, f10 := run(1), run(10); f1 <= f10 {
		t.Errorf("1-core freq %v should exceed 10-core freq %v", f1, f10)
	}
}

func TestWithMetricsInstrumentsMachine(t *testing.T) {
	reg := metrics.NewRegistry()
	m := newSkylake(t, WithMetrics(reg))
	for i := 0; i < 4; i++ {
		pin(t, m, "cactusBSSN", i)
		if err := m.SetRequest(i, m.Chip().Freq.Max()); err != nil {
			t.Fatal(err)
		}
	}
	m.SetPowerLimit(30) // far below 4 cores at max: RAPL must throttle
	m.Run(3 * time.Second)

	if v := reg.Counter("sim_ticks_total", "").Value(); v <= 0 {
		t.Errorf("sim_ticks_total = %v", v)
	}
	// Pinned cores woke out of idle at the start of the run.
	wake := reg.CounterVec("sim_cstate_transitions_total", "", "kind").With("wake")
	if v := wake.Value(); v <= 0 {
		t.Errorf("no wake transitions counted")
	}
	// Parking an active core is a sleep transition.
	if err := m.SetIdle(0, true); err != nil {
		t.Fatal(err)
	}
	m.Run(100 * time.Millisecond)
	sleep := reg.CounterVec("sim_cstate_transitions_total", "", "kind").With("sleep")
	if v := sleep.Value(); v <= 0 {
		t.Errorf("no sleep transitions counted")
	}
	// The run started request-bound and became RAPL-bound once the cap
	// descended below the request.
	fc := reg.CounterVec("sim_freq_constraint_transitions_total", "", "constraint")
	if v := fc.With("rapl-cap").Value(); v <= 0 {
		t.Errorf("no rapl-cap constraint transitions counted")
	}
	// The limiter's own metrics ride along on the same registry.
	if v := reg.Counter("rapl_throttle_events_total", "").Value(); v <= 0 {
		t.Errorf("rapl_throttle_events_total = %v", v)
	}
	if v := reg.Gauge("rapl_cap_mhz", "").Value(); v <= 0 {
		t.Errorf("rapl_cap_mhz = %v", v)
	}
}
