package daemon

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/metrics/decisions"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/svc"
	"repro/internal/units"
	"repro/internal/workload"
)

// loopApps is one app per core of chip: four workloads in rotation, shares
// 10..16, every other app high priority.
func loopApps(chip platform.Chip) ([]string, []core.AppSpec) {
	pool := []string{"gcc", "cam4", "leela", "cactusBSSN"}
	names := make([]string, chip.NumCores)
	shares := make([]units.Shares, chip.NumCores)
	hp := make([]bool, chip.NumCores)
	for i := range names {
		names[i], shares[i], hp[i] = pool[i%len(pool)], units.Shares(10+i%7), i%2 == 0
	}
	return names, specsFor(names, shares, hp)
}

// buildLoop daemonises one app per core of chip under the policy mkpol
// builds, metrics on.
func buildLoop(t *testing.T, chip platform.Chip, mkpol func(platform.Chip, []core.AppSpec) (core.Policy, error)) (*sim.Machine, *Daemon) {
	t.Helper()
	names, specs := loopApps(chip)
	m := buildMachine(t, chip, names)
	pol, err := mkpol(chip, specs)
	if err != nil {
		t.Fatal(err)
	}
	return m, startLoop(t, m, Config{Chip: chip, Policy: pol, Apps: specs, Limit: chip.RAPLMax * 6 / 10, Metrics: metrics.NewRegistry()})
}

func startLoop(t *testing.T, m *sim.Machine, cfg Config) *Daemon {
	t.Helper()
	d, err := New(cfg, m.Device(), MachineActuator{M: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	return d
}

// buildSLOLoop assembles the SLO control loop: half the cores serve an
// open-loop websearch service, a quarter serve ads, the rest run gcc
// batch, all daemonised under the SLO-feedback policy with the service
// model feeding telemetry into every snapshot.
func buildSLOLoop(t *testing.T, cores int) (*sim.Machine, *Daemon) {
	t.Helper()
	chip := platform.ScaleSocket(platform.Skylake(), cores)
	m, err := sim.New(chip)
	if err != nil {
		t.Fatal(err)
	}
	web, ads := cores/2, cores/4
	targets := []core.SLOTarget{
		{Service: "websearch", P99: 50 * time.Millisecond},
		{Service: "ads", P99: 30 * time.Millisecond},
	}
	specs := make([]core.AppSpec, cores)
	var webCores, adsCores []int
	for i := range specs {
		switch {
		case i < web:
			webCores = append(webCores, i)
			specs[i] = core.AppSpec{Name: "websearch", Core: i, Shares: 50}
		case i < web+ads:
			adsCores = append(adsCores, i)
			specs[i] = core.AppSpec{Name: "ads", Core: i, Shares: 50}
		default:
			p := workload.MustByName("gcc")
			if err := m.Pin(workload.NewInstance(p), i); err != nil {
				t.Fatal(err)
			}
			specs[i] = core.AppSpec{Name: p.Name, Core: i, Shares: 30, AVX: p.AVX}
		}
	}
	model, err := svc.NewModel(
		svc.Config{
			Name: "websearch", Cores: webCores, Seed: 1,
			Arrivals: svc.OpenPoisson, Rate: svc.ConstantRate(40 * float64(web)),
			SLO: targets[0].P99,
		},
		svc.Config{
			Name: "ads", Cores: adsCores, Seed: 2,
			Arrivals: svc.OpenPoisson, Rate: svc.ConstantRate(40 * float64(ads)),
			SLO: targets[1].P99,
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Attach(m); err != nil {
		t.Fatal(err)
	}
	pol, err := core.NewSLOFeedback(chip, specs, core.SLOConfig{Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	return m, startLoop(t, m, Config{
		Chip: chip, Policy: pol, Apps: specs, Limit: chip.RAPLMax * 6 / 10,
		Metrics: metrics.NewRegistry(), SLO: model, SLOTargets: targets,
	})
}

// allocsPerIteration warms the loop, then counts allocations per
// simulator step plus control iteration.
func allocsPerIteration(t *testing.T, m *sim.Machine, d *Daemon, warm int) float64 {
	t.Helper()
	iterate := func() {
		m.Step()
		if _, err := d.RunIteration(time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ {
		iterate()
	}
	return testing.AllocsPerRun(100, iterate)
}

// The steady-state control loop must not allocate: one simulator step
// plus one RunIteration (sample, decide, actuate, metrics publish) at
// zero allocations for every policy on every chip shape, up to the
// 2×64-core package whose per-socket RAPL domains and cross-socket
// sampling the single-socket chips never touch. The snapshot double
// buffer, the sampler's reused slices and the policies' scratch exist to
// keep this at zero; a count repeats exactly on any machine, so the bound
// is the number itself, with no threshold.
func TestAllocProbe(t *testing.T) {
	chips := map[string]platform.Chip{
		"sky10":  platform.Skylake(),
		"sky128": platform.MultiSocket(platform.ScaleSocket(platform.Skylake(), 64), 2),
		"ryzen8": platform.Ryzen(),
	}
	pols := map[string]func(platform.Chip, []core.AppSpec) (core.Policy, error){
		"freq": func(c platform.Chip, s []core.AppSpec) (core.Policy, error) {
			return core.NewFrequencyShares(c, s, core.ShareConfig{})
		},
		"perf": func(c platform.Chip, s []core.AppSpec) (core.Policy, error) {
			return core.NewPerformanceShares(c, s, core.ShareConfig{})
		},
		"power": func(c platform.Chip, s []core.AppSpec) (core.Policy, error) {
			return core.NewPowerShares(c, s, core.ShareConfig{})
		},
		"prio": func(c platform.Chip, s []core.AppSpec) (core.Policy, error) {
			return core.NewPriority(c, s, core.PriorityConfig{Limit: c.RAPLMax * 6 / 10})
		},
		"prioshares": func(c platform.Chip, s []core.AppSpec) (core.Policy, error) {
			return core.NewPriorityShares(c, s, core.PriorityConfig{Limit: c.RAPLMax * 6 / 10})
		},
	}
	for cn, chip := range chips {
		for pn, mk := range pols {
			if pn == "power" && !chip.PerCorePower {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s", cn, pn), func(t *testing.T) {
				m, d := buildLoop(t, chip, mk)
				if n := allocsPerIteration(t, m, d, 50); n != 0 {
					t.Errorf("allocs per iteration = %v, want 0", n)
				}
			})
		}
	}
}

// The SLO loop — service model tick, telemetry double-buffer, and the
// feedback policy's PI decide path — must stay allocation-free too.
func TestAllocProbeSLO(t *testing.T) {
	for _, cores := range []int{8, 32} {
		t.Run(fmt.Sprintf("cores=%d", cores), func(t *testing.T) {
			m, d := buildSLOLoop(t, cores)
			if n := allocsPerIteration(t, m, d, 200); n != 0 {
				t.Errorf("allocs per SLO iteration = %v, want 0", n)
			}
		})
	}
}

// The production-shaped node — cmd/powerd's default recorders all on
// (registry, decision journal, flight recorder on the machine and the
// daemon, energy ledger) over the two-socket 128-core package — holds the
// same zero once the journal's ring has lapped: the journal refills its
// slots in place, the ledger and the MSR sweeps commit flight events from
// preallocated scratch, and nothing else on the path allocates.
func TestAllocProbeAllRecorders(t *testing.T) {
	chip := platform.MultiSocket(platform.ScaleSocket(platform.Skylake(), 64), 2)
	names, specs := loopApps(chip)
	reg, rec, journal := metrics.NewRegistry(), flight.New(0), decisions.NewJournal(0)
	m := buildMachine(t, chip, names, sim.WithMetrics(reg), sim.WithFlightRecorder(rec))
	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	led, err := ledger.New(ledger.Config{Chip: chip, Apps: specs, Metrics: reg, Flight: rec})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{
		Chip: chip, Policy: pol, Apps: specs, Limit: chip.RAPLMax * 6 / 10,
		Metrics: reg, Journal: journal, Flight: rec, Ledger: led,
	}, m.Device(), MachineActuator{M: m, Dev: m.Device()})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if n := allocsPerIteration(t, m, d, decisions.DefaultCapacity+50); n != 0 {
		t.Errorf("allocs per iteration with every recorder on = %v, want 0", n)
	}
	if journal.Total() == 0 || led.Summarize().Intervals == 0 || rec.Total() == 0 {
		t.Fatal("a recorder saw nothing: the gate measured a loop with it off")
	}
}

// TestAllocProbeDetectsInjection proves the measurement the zero-alloc
// gate rests on can actually fail: the same loop with one allocating
// snapshot hook wired in reads as nonzero allocs/op immediately. A green
// TestAllocProbe is therefore evidence of absence, not an artifact of a
// probe that cannot trip.
func TestAllocProbeDetectsInjection(t *testing.T) {
	chip := platform.Skylake()
	m := buildMachine(t, chip, []string{"gcc"})
	specs := specsFor([]string{"gcc"}, []units.Shares{10}, nil)
	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var sink []core.AppState
	d := startLoop(t, m, Config{
		Chip: chip, Policy: pol, Apps: specs, Limit: chip.RAPLMax * 6 / 10,
		OnSnapshot: func(s core.Snapshot) {
			sink = append([]core.AppState(nil), s.Apps...) // one heap copy per interval
		},
	})
	if n := allocsPerIteration(t, m, d, 50); n == 0 {
		t.Error("injected per-interval allocation went unmeasured; the zero-alloc probe cannot trip")
	}
	_ = sink
}
