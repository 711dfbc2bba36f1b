package daemon

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/svc"
	"repro/internal/workload"
)

// sloHarness is a machine running one open-loop latency service on two
// cores plus one batch core, daemonised under the SLO-feedback policy.
func sloHarness(t *testing.T, targets []core.SLOTarget) (*sim.Machine, *Daemon) {
	t.Helper()
	chip := platform.Skylake()
	m, err := sim.New(chip)
	if err != nil {
		t.Fatal(err)
	}
	model, err := svc.NewModel(svc.Config{
		Name:     "api",
		Cores:    []int{0, 1},
		Seed:     3,
		Arrivals: svc.OpenPoisson,
		Rate:     svc.ConstantRate(80),
		SLO:      50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Attach(m); err != nil {
		t.Fatal(err)
	}
	if err := m.Pin(workload.NewInstance(workload.MustByName("gcc")), 2); err != nil {
		t.Fatal(err)
	}
	specs := []core.AppSpec{
		{Name: "api", Core: 0, Shares: 50},
		{Name: "api", Core: 1, Shares: 50},
		{Name: "gcc", Core: 2, Shares: 50},
	}
	pol, err := core.NewSLOFeedback(chip, specs, core.SLOConfig{
		Targets: []core.SLOTarget{{Service: "api", P99: 50 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{
		Chip: chip, Policy: pol, Apps: specs, Limit: 40,
		Interval:   50 * time.Millisecond,
		SLO:        model,
		SLOTargets: targets,
	}, m.Device(), MachineActuator{M: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AttachVirtual(m); err != nil {
		t.Fatal(err)
	}
	return m, d
}

// The daemon feeds service telemetry into snapshots and stamps its
// configured objectives over the service-declared ones, through a
// Reconfigure that does not touch them; with no objective configured the
// service's own advisory target stands.
func TestDaemonSLOFeedAndReconfigure(t *testing.T) {
	m, d := sloHarness(t, []core.SLOTarget{{Service: "api", P99: 40 * time.Millisecond}})
	m.Run(2 * time.Second)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}

	snap := d.LastSnapshot()
	if len(snap.Services) != 1 || snap.Services[0].Name != "api" {
		t.Fatalf("snapshot services = %+v", snap.Services)
	}
	s := snap.Services[0]
	if s.Target != 0.040 {
		t.Errorf("configured target not stamped: %v", s.Target)
	}
	if s.P99 <= 0 || s.Rate <= 0 {
		t.Errorf("no live telemetry: %+v", s)
	}

	if err := d.Reconfigure(Reconfig{Limit: 35}); err != nil {
		t.Fatal(err)
	}
	m.Run(500 * time.Millisecond)
	if got := d.LastSnapshot().Services[0].Target; got != 0.040 {
		t.Errorf("target after a limit reconfigure = %v, want 0.04", got)
	}

	m, d = sloHarness(t, nil)
	m.Run(500 * time.Millisecond)
	if got := d.LastSnapshot().Services[0].Target; got != 0.050 {
		t.Errorf("target with no objective = %v, want the service's 0.05", got)
	}
}
