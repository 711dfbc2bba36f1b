package daemon

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/flight"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/metrics/decisions"
	"repro/internal/msr"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/units"
)

// flakyDevice wraps an MSR device and fails reads after a countdown,
// injecting the kind of fault a hot-unplugged or permission-lost
// /dev/cpu/N/msr produces mid-run.
type flakyDevice struct {
	inner     msr.Device
	failAfter int    // reads remaining before failure
	only      uint32 // when set, the one register whose reads fail
}

func (f *flakyDevice) Read(cpu int, reg uint32) (uint64, error) {
	if f.failAfter <= 0 && (f.only == 0 || f.only == reg) {
		return 0, fmt.Errorf("injected: msr read failure")
	}
	f.failAfter--
	return f.inner.Read(cpu, reg)
}

func (f *flakyDevice) Write(cpu int, reg uint32, val uint64) error {
	return f.inner.Write(cpu, reg, val)
}

// failingActuator rejects every actuation.
type failingActuator struct{}

func (failingActuator) SetFreq(int, units.Hertz) error {
	return fmt.Errorf("injected: actuator failure")
}
func (failingActuator) Park(int, bool) error {
	return fmt.Errorf("injected: park failure")
}

func flakySetup(t *testing.T, dev msr.Device, act Actuator, reg *metrics.Registry) *Daemon {
	t.Helper()
	chip := platform.Skylake()
	specs := specsFor([]string{"gcc", "leela"}, []units.Shares{60, 40}, nil)
	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{Chip: chip, Policy: pol, Apps: specs, Limit: 50, Metrics: reg}, dev, act)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// A device whose every read starts failing mid-run surfaces as dark cores
// and degraded intervals in the metrics; no iteration fails or fabricates
// data.
func TestSamplerFaultSurfacesFromRunIteration(t *testing.T) {
	chip := platform.Skylake()
	m := buildMachine(t, chip, []string{"gcc", "leela"})
	flaky := &flakyDevice{inner: m.Device(), failAfter: 1000}
	reg := metrics.NewRegistry()
	d := flakySetup(t, flaky, MachineActuator{M: m}, reg)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	// Burn down the budget: the reads run out around interval 30.
	for i := 0; i < 100; i++ {
		m.Run(time.Second)
		snap, err := d.RunIteration(time.Second)
		if err != nil {
			t.Fatalf("interval %d: %v", i, err)
		}
		if flaky.failAfter <= 0 && snap.Apps[0].IPS <= 0 {
			t.Fatalf("interval %d: dark core shows the policy %v IPS, want its last good state", i, snap.Apps[0].IPS)
		}
	}
	if flaky.failAfter > 0 {
		t.Fatal("injected MSR fault never fired")
	}
	dark := reg.CounterVec("telemetry_core_status_total", "", "status").With("dark").Value()
	if dark == 0 {
		t.Error("injected MSR fault never surfaced as a dark core")
	}
	if v := reg.Counter("powerd_degraded_intervals_total", "").Value(); v == 0 {
		t.Error("injected MSR fault never counted a degraded interval")
	}
	if v := reg.Gauge("powerd_degraded_cores", "").Value(); v != 2 {
		t.Errorf("degraded cores = %v, want both apps'", v)
	}
}

// With the package energy counter gone blind the virtual hook keeps firing:
// no error is recorded, and every managed core is held at the safe floor.
func TestSamplerFaultHoldsVirtualHookAtSafeFloor(t *testing.T) {
	chip := platform.Skylake()
	m := buildMachine(t, chip, []string{"gcc", "leela"})
	flaky := &flakyDevice{inner: m.Device(), failAfter: 200, only: msr.PkgEnergyStatus}
	d := flakySetup(t, flaky, MachineActuator{M: m}, nil)
	if err := d.AttachVirtual(m); err != nil {
		t.Fatal(err)
	}
	m.Run(60 * time.Second)
	if flaky.failAfter > 0 {
		t.Fatal("injected MSR fault never fired")
	}
	if err := d.Err(); err != nil {
		t.Fatalf("hook error recorded: %v", err)
	}
	after := d.Iterations()
	m.Run(10 * time.Second)
	if d.Iterations() != after+10 {
		t.Errorf("iterations %d -> %d over 10 s, want 10 more", after, d.Iterations())
	}
	for _, spec := range d.Apps() {
		v, err := m.Device().Read(spec.Core, msr.IA32PerfCtl)
		if err != nil {
			t.Fatal(err)
		}
		if f := msr.DecodePerfCtl(v, chip.Freq.Step); f != chip.SafeFloor() {
			t.Errorf("core %d requests %v under a blind package counter, want the safe floor %v", spec.Core, f, chip.SafeFloor())
		}
	}
}

func TestActuatorFaultSurfacesFromStart(t *testing.T) {
	chip := platform.Skylake()
	m := buildMachine(t, chip, []string{"gcc", "leela"})
	d := flakySetup(t, m.Device(), failingActuator{}, nil)
	if err := d.Start(); err == nil {
		t.Fatal("failing actuator accepted at Start")
	}
}

func TestConstructionFailsWhenPowerUnitUnreadable(t *testing.T) {
	chip := platform.Skylake()
	m := buildMachine(t, chip, []string{"gcc", "leela"})
	// Fail immediately: even the sampler's constructor read is rejected.
	flaky := &flakyDevice{inner: m.Device(), failAfter: 0}
	specs := specsFor([]string{"gcc", "leela"}, []units.Shares{60, 40}, nil)
	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Chip: chip, Policy: pol, Apps: specs, Limit: 50},
		flaky, MachineActuator{M: m}); err == nil {
		t.Fatal("unreadable power unit accepted")
	}
}

// A daemon built the way cmd/powerd's drive builds it without -faults —
// registry, journal, flight recorder, ledger, and nothing that selects a
// failure mode — rides out an EIO burst on core 0 and a stuck APERF on core
// 1: each core goes dark or stale, is held at the safe floor, and is handed
// back to the policy after two clean intervals, while the loop keeps its
// cadence and the machine keeps its cap.
func TestPlainDaemonDegradesAndReadmits(t *testing.T) {
	const (
		interval = 20 * time.Millisecond
		limit    = units.Watts(35)
	)
	chip := platform.Skylake()
	names := []string{"gcc", "gcc", "gcc"}
	reg := metrics.NewRegistry()
	rec := flight.New(0)
	m, err := sim.New(chip, sim.WithMetrics(reg), sim.WithFlightRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		if err := m.Pin(newInstanceFor(n), i); err != nil {
			t.Fatal(err)
		}
	}
	sched, err := fault.ParseSchedule("at 100ms for 60ms eio cpu=0; at 400ms for 60ms stuck cpu=1 regs=APERF")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(sched, 1)
	inj.Drive(m)
	dev := inj.WrapDevice(m.Device())

	specs := specsFor(names, []units.Shares{60, 30, 10}, nil)
	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	led, err := ledger.New(ledger.Config{Chip: chip, Apps: specs, Metrics: reg, Flight: rec})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{
		Chip: chip, Policy: pol, Apps: specs, Limit: limit, Interval: interval,
		Metrics: reg, Journal: decisions.NewJournal(0), Flight: rec, Ledger: led,
	}, dev, MachineActuator{M: m, Dev: dev})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AttachVirtual(m); err != nil {
		t.Fatal(err)
	}

	status := reg.CounterVec("telemetry_core_status_total", "", "status")
	count := func(st string) float64 { return status.With(st).Value() }
	request := func(c int) units.Hertz {
		v, err := m.Device().Read(c, msr.IA32PerfCtl)
		if err != nil {
			t.Fatal(err)
		}
		return msr.DecodePerfCtl(v, chip.Freq.Step)
	}
	const intervals = 40
	var (
		prevDark, prevUntrusted float64
		wasUntrusted            bool
		degradedIntervals       float64
		sawDark, sawStale       bool
	)
	for i := 1; i <= intervals; i++ {
		m.Run(interval)
		if err := d.Err(); err != nil {
			t.Fatalf("interval %d: control loop died: %v", i, err)
		}
		if got := d.Iterations(); got != i {
			t.Fatalf("interval %d: %d iterations completed", i, got)
		}
		dark, stale := count("dark"), count("stale")
		untrusted := dark + stale + count("recovering")
		isDark, isUntrusted := dark > prevDark, untrusted > prevUntrusted
		sawDark, sawStale = sawDark || isDark, sawStale || stale > 0
		faulted := 0 // the EIO burst is over long before the stuck window opens
		if i > 15 {
			faulted = 1
		}

		// A core is out of the policy's hands while its sample is
		// untrustworthy and for exactly one clean interval after: the
		// second clean interval readmits it.
		degraded := reg.Gauge("powerd_degraded_cores", "").Value()
		if want := isUntrusted || wasUntrusted; (degraded == 1) != want || degraded > 1 {
			t.Errorf("interval %d: %v degraded cores, untrusted now/before = %v/%v", i, degraded, isUntrusted, wasUntrusted)
		}
		if degraded > 0 {
			degradedIntervals++
			// A dark core's actions are dropped; any other degraded core
			// is held at the safe floor.
			if f := request(faulted); !isDark && f != chip.SafeFloor() {
				t.Errorf("interval %d: degraded core %d requests %v, want the safe floor %v", i, faulted, f, chip.SafeFloor())
			}
		}
		if p := m.PackagePower(); i > 10 && p > limit*125/100 {
			t.Errorf("interval %d: package power %v blew the %v cap", i, p, limit)
		}
		prevDark, prevUntrusted, wasUntrusted = dark, untrusted, isUntrusted
	}
	if !sawDark || !sawStale {
		t.Errorf("faults never surfaced: dark %v, stale %v", sawDark, sawStale)
	}
	if got := reg.Counter("powerd_degraded_intervals_total", "").Value(); got != degradedIntervals || got == 0 {
		t.Errorf("powerd_degraded_intervals_total = %v, want the %v intervals seen degraded", got, degradedIntervals)
	}
	if got := reg.Counter("powerd_readmissions_total", "").Value(); got != 2 {
		t.Errorf("powerd_readmissions_total = %v, want one per faulted core", got)
	}
	for c := 0; c < 2; c++ {
		if f := request(c); f <= chip.SafeFloor() {
			t.Errorf("core %d still requests %v after readmission", c, f)
		}
	}
}
