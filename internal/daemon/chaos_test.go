package daemon

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

func newInstanceFor(name string) *workload.Instance {
	return workload.NewInstance(workload.MustByName(name))
}

// The chaos suite: every fault class crossed with every policy, asserting
// the three invariants the hardened daemon guarantees — the package power
// cap is respected (machine truth, not telemetry), nobody the policy wants
// running is starved once the fault clears, and the share/priority
// structure re-emerges after recovery.

type chaosPolicy struct {
	name   string
	chip   platform.Chip
	shares []units.Shares
	hp     []bool
	build  func(chip platform.Chip, specs []core.AppSpec, limit units.Watts) (core.Policy, error)
}

func chaosPolicies() []chaosPolicy {
	shares := []units.Shares{60, 30, 10}
	return []chaosPolicy{
		{
			name: "priority", chip: platform.Skylake(), hp: []bool{true, false, false},
			build: func(chip platform.Chip, specs []core.AppSpec, limit units.Watts) (core.Policy, error) {
				return core.NewPriority(chip, specs, core.PriorityConfig{Limit: limit})
			},
		},
		{
			name: "freq-shares", chip: platform.Skylake(), shares: shares,
			build: func(chip platform.Chip, specs []core.AppSpec, limit units.Watts) (core.Policy, error) {
				return core.NewFrequencyShares(chip, specs, core.ShareConfig{})
			},
		},
		{
			name: "perf-shares", chip: platform.Skylake(), shares: shares,
			build: func(chip platform.Chip, specs []core.AppSpec, limit units.Watts) (core.Policy, error) {
				return core.NewPerformanceShares(chip, specs, core.ShareConfig{})
			},
		},
		{
			name: "power-shares", chip: platform.Ryzen(), shares: shares,
			build: func(chip platform.Chip, specs []core.AppSpec, limit units.Watts) (core.Policy, error) {
				return core.NewPowerShares(chip, specs, core.ShareConfig{})
			},
		},
	}
}

// chaosFaults are the fault windows, one per class: open at 300 ms, clear
// at 500 ms, leaving a full second of recovery. degrades marks classes the
// health state machine must provably catch (degrade + readmit); torn's
// per-register coin flips and the pure platform classes either don't
// degrade telemetry or do so seed-dependently.
var chaosFaults = []struct {
	name     string
	sched    string
	degrades bool
}{
	{"eio", "at 300ms for 200ms eio cpu=* prob=0.7", true},
	{"stuck", "at 300ms for 200ms stuck cpu=* regs=MPERF,PKG_ENERGY_STATUS", true},
	{"torn", "at 300ms for 200ms torn cpu=*", false},
	{"latency", "at 300ms for 200ms latency cpu=* delay=2ms", false},
	{"thermal", "at 300ms for 200ms thermal cap=1000MHz", false},
	{"rapl", "at 300ms for 200ms rapl limit=22W", false},
	{"offline", "at 300ms for 200ms offline cpu=1", true},
}

func TestChaosMatrix(t *testing.T) {
	for _, pc := range chaosPolicies() {
		for _, fc := range chaosFaults {
			t.Run(pc.name+"/"+fc.name, func(t *testing.T) {
				runChaos(t, pc, fc.sched, fc.degrades)
			})
		}
	}
}

func runChaos(t *testing.T, pc chaosPolicy, schedText string, degrades bool) {
	t.Helper()
	names := []string{"gcc", "gcc", "gcc"}
	limit := units.Watts(35)
	if pc.chip.Vendor == "AMD" {
		limit = 40
	}

	rec := flight.New(flight.DefaultCapacity)
	m, err := sim.New(pc.chip, sim.WithFlightRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		if err := m.Pin(newInstanceFor(n), i); err != nil {
			t.Fatal(err)
		}
	}
	if pc.chip.HardwareRAPLLimit {
		m.SetPowerLimit(limit)
	}

	sched, err := fault.ParseSchedule(schedText)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(sched, 1)
	inj.Flight(rec)
	inj.Drive(m) // before AttachVirtual: fault transitions precede control

	specs := specsFor(names, pc.shares, pc.hp)
	pol, err := pc.build(pc.chip, specs, limit)
	if err != nil {
		t.Fatal(err)
	}
	dev := inj.WrapDevice(m.Device())
	const interval = 20 * time.Millisecond
	var powers []units.Watts // machine-truth package power per interval
	d, err := New(Config{
		Chip: pc.chip, Policy: pol, Apps: specs, Limit: limit,
		Interval: interval,
		Flight:   rec,
		OnSnapshot: func(core.Snapshot) {
			powers = append(powers, m.PackagePower())
		},
	}, dev, MachineActuator{M: m, Dev: dev})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AttachVirtual(m); err != nil {
		t.Fatal(err)
	}
	m.Run(1500 * time.Millisecond)
	if err := d.Err(); err != nil {
		t.Fatalf("control loop died: %v", err)
	}
	if got := d.Iterations(); got != 75 {
		t.Fatalf("iterations = %d, want 75 (loop stalled?)", got)
	}

	// Invariant 1: machine-truth package power respects the cap at every
	// interval after initial convergence — fault window included. 25%
	// headroom absorbs the share policies' step-at-a-time settling.
	for i, p := range powers {
		if i < 10 {
			continue
		}
		if p > limit*125/100 {
			t.Errorf("interval %d: package power %v blew the %v cap", i, p, limit)
		}
	}

	// Invariant 2 & 3: the fault cleared at interval 25; after a second of
	// recovery the policy structure must be back and nobody starved.
	snap := d.LastSnapshot()
	if pc.hp != nil {
		hp, lp1, lp2 := snap.Apps[0], snap.Apps[1], snap.Apps[2]
		if hp.Parked {
			t.Error("high-priority app parked after recovery")
		}
		if hp.IPS <= 0 {
			t.Error("high-priority app starved after recovery")
		}
		if hp.Freq < lp1.Freq || hp.Freq < lp2.Freq {
			t.Errorf("priority inverted after recovery: hp=%v lp=%v,%v", hp.Freq, lp1.Freq, lp2.Freq)
		}
	} else {
		for i, a := range snap.Apps {
			if a.Parked {
				t.Errorf("app %d parked after recovery", i)
			}
			if a.IPS <= 0 {
				t.Errorf("app %d starved after recovery", i)
			}
		}
		f0, f1, f2 := snap.Apps[0].Freq, snap.Apps[1].Freq, snap.Apps[2].Freq
		if f0 < f1 || f1 < f2 {
			t.Errorf("share ordering (60:30:10) violated after recovery: %v %v %v", f0, f1, f2)
		}
	}

	// The schedule must have left its marks in the flight ring.
	injects, clears, degradedEv, readmits := 0, 0, 0, 0
	for _, ev := range rec.Snapshot() {
		switch ev.Kind {
		case flight.KindFaultInject:
			injects++
		case flight.KindFaultClear:
			clears++
		case flight.KindHealth:
			if ev.Arg == flight.HealthDegraded {
				degradedEv++
			} else if ev.Arg == flight.HealthReadmitted {
				readmits++
			}
		}
	}
	if injects == 0 || clears == 0 {
		t.Errorf("flight ring missing fault events: %d injects, %d clears", injects, clears)
	}
	if degrades {
		if degradedEv == 0 || readmits == 0 {
			t.Errorf("health events: %d degraded, %d readmitted; want both nonzero", degradedEv, readmits)
		}
	}
}

// TestChaosSoakRace hammers a resilient real-time daemon with a cycling
// fault schedule while other goroutines churn the limit, snapshot flight
// dumps, and scrape metrics — the -race build of this test is the
// concurrency proof for the whole fault path.
func TestChaosSoakRace(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	chip := platform.Skylake()
	rec := flight.New(1 << 12)
	m, err := sim.New(chip, sim.WithFlightRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"gcc", "leela"}
	for i, n := range names {
		if err := m.Pin(newInstanceFor(n), i); err != nil {
			t.Fatal(err)
		}
	}
	m.SetPowerLimit(40)
	sched, err := fault.ParseSchedule(`
at 50ms for 100ms eio cpu=* prob=0.5
at 120ms for 80ms stuck cpu=* regs=MPERF
at 200ms for 80ms torn cpu=*
at 280ms for 80ms latency cpu=* delay=100us
at 360ms for 80ms thermal cap=1100MHz
at 420ms for 60ms rapl limit=25W
at 480ms for 60ms offline cpu=1
`)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(sched, 99)
	inj.Flight(rec)
	inj.Drive(m)
	reg := metrics.NewRegistry()
	inj.Instrument(reg)

	specs := specsFor(names, []units.Shares{70, 30}, nil)
	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dev := inj.WrapDevice(m.Device())
	const interval = 2 * time.Millisecond
	d, err := New(Config{
		Chip: chip, Policy: pol, Apps: specs, Limit: 40,
		Interval: interval,
		Metrics:  reg,
		Flight:   rec,
		Triggers: FlightTriggers{Dir: t.TempDir()},
		// Advance virtual time in lockstep on the loop goroutine so the
		// machine (not thread-safe by design) is only ever touched there.
		OnSnapshot: func(core.Snapshot) { m.Run(interval) },
	}, dev, MachineActuator{M: m, Dev: dev})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	loopDone := make(chan error, 1)
	go func() { loopDone <- d.RunRealtime(ctx, 300) }()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // limit churn
		defer wg.Done()
		w := units.Watts(40)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				if err := d.SetLimit(w); err != nil {
					t.Error(err)
					return
				}
				w = 75 - w // alternate 35/40
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()
	go func() { // flight dump churn
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				if _, err := d.DumpFlight(fmt.Sprintf("soak-%d", i)); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
	}()
	go func() { // injector + metrics scrape churn
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = inj.Effects(fault.ClassEIO)
				_ = reg.WritePrometheus(io.Discard)
				time.Sleep(3 * time.Millisecond)
			}
		}
	}()

	if err := <-loopDone; err != nil {
		t.Errorf("soak loop: %v", err)
	}
	close(stop)
	wg.Wait()
	if got := d.Iterations(); got != 300 {
		t.Errorf("iterations = %d, want 300", got)
	}
}
