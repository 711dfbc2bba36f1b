package node

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/flight"
	"repro/internal/platform"
	"repro/internal/svc"
)

func shareSpecs(names ...string) []core.AppSpec {
	specs := make([]core.AppSpec, len(names))
	for i, n := range names {
		specs[i] = core.AppSpec{Name: n, Core: i, Shares: 50}
	}
	return specs
}

func frequencyShares(t *testing.T, chip platform.Chip, specs []core.AppSpec) core.Policy {
	t.Helper()
	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// A bare spec builds a machine and a daemon and nothing else; every part
// a spec asks for is built and wired.
func TestAssemblesWhatTheSpecAsks(t *testing.T) {
	chip := platform.Skylake()
	specs := shareSpecs("gcc", "cam4")
	bare, err := New(Spec{Chip: chip, Apps: specs, Policy: frequencyShares(t, chip, specs), Limit: 40})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Daemon == nil || bare.Services != nil || bare.Faults != nil || bare.Flight != nil ||
		bare.Metrics != nil || bare.Journal != nil || bare.Ledger != nil {
		t.Errorf("bare node: %+v", bare)
	}
	if err := bare.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := bare.Daemon.Iterations(); got != 3 {
		t.Errorf("iterations = %d, want 3", got)
	}
	for i, a := range specs {
		if app := bare.M.App(a.Core); app == nil || app.Profile.Name != a.Name {
			t.Errorf("core %d runs %v, want %s", a.Core, app, specs[i].Name)
		}
	}

	sched, err := fault.ParseSchedule("at 1s for 1s eio cpu=* prob=0.5")
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(Spec{
		Chip: chip, Apps: specs, Policy: frequencyShares(t, chip, specs), Limit: 40,
		Faults: sched, FaultSeed: 1, Recorders: &Recorders{}, Flight: flight.New(64),
	})
	if err != nil {
		t.Fatal(err)
	}
	if full.Faults == nil || full.Flight == nil || full.Metrics == nil || full.Journal == nil || full.Ledger == nil {
		t.Errorf("full node: %+v", full)
	}
	if err := full.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if full.Ledger.Summarize().Intervals == 0 || full.Journal.Len() == 0 {
		t.Error("the ledger or the journal saw no interval")
	}
}

// Fault transitions at a tick precede that tick's control iteration: a
// window open for exactly the tick of the first iteration is seen by it.
func TestFaultsPrecedeTheControlIteration(t *testing.T) {
	chip := platform.Skylake()
	specs := shareSpecs("gcc")
	sched, err := fault.ParseSchedule("at 1s for 1ms eio cpu=* prob=1")
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Spec{
		Chip: chip, Apps: specs, Policy: frequencyShares(t, chip, specs), Limit: 40,
		Faults: sched, FaultSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n.Faults.Effects(fault.ClassEIO) == 0 {
		t.Error("the iteration at 1s read through a closed window")
	}
}

// Without a policy the node is the RAPL baseline: no daemon, every app
// core (service cores included) at the maximum request under the limit.
// Service cores run the service's profile, not a pinned one.
func TestRAPLBaselineWithService(t *testing.T) {
	chip := platform.Skylake()
	ws := svc.Websearch(300, []int{0, 1}, 1)
	specs := []core.AppSpec{{Name: "websearch", Core: 0}, {Name: "websearch", Core: 1}, {Name: "cpuburn", Core: 2}}
	n, err := New(Spec{Chip: chip, Apps: specs, Limit: 35, Services: []svc.Config{ws}})
	if err != nil {
		t.Fatal(err)
	}
	if n.Daemon != nil {
		t.Fatal("a RAPL baseline built a daemon")
	}
	for _, a := range specs {
		if got := n.M.Request(a.Core); got != chip.Freq.Max() {
			t.Errorf("core %d requests %v, want %v", a.Core, got, chip.Freq.Max())
		}
	}
	if got := n.M.App(0).Profile.Name; got != ws.Profile.Name {
		t.Errorf("service core runs %s, want %s", got, ws.Profile.Name)
	}
	if got := n.M.Limiter().Limit(); got != 35 {
		t.Errorf("limit = %v, want 35", got)
	}
	if err := n.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n.Services.Service(ws.Name).Completed() == 0 {
		t.Error("the service completed nothing")
	}
}

func TestUnknownProfileRefused(t *testing.T) {
	if _, err := New(Spec{Chip: platform.Skylake(), Apps: shareSpecs("doom"), Limit: 40}); err == nil {
		t.Error("an app with no profile was accepted")
	}
}
