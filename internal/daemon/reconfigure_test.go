package daemon

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/metrics/decisions"
	"repro/internal/platform"
	"repro/internal/units"
)

func TestReconfigureRejects(t *testing.T) {
	chip := platform.Skylake()
	names := []string{"gcc", "cam4"}
	m := buildMachine(t, chip, names)
	specs := specsFor(names, []units.Shares{50, 50}, nil)
	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{Chip: chip, Policy: pol, Apps: specs, Limit: 50},
		m.Device(), MachineActuator{M: m})
	if err != nil {
		t.Fatal(err)
	}

	badCore := specsFor(names, []units.Shares{50, 50}, nil)
	badCore[1].Core = chip.NumCores
	dupCore := specsFor(names, []units.Shares{50, 50}, nil)
	dupCore[1].Core = 0
	noName := specsFor(names, []units.Shares{50, 50}, nil)
	noName[0].Name = ""

	cases := []struct {
		name string
		rc   Reconfig
	}{
		{"empty", Reconfig{}},
		{"apps without policy", Reconfig{Apps: specs}},
		{"negative limit", Reconfig{Limit: -5}},
		{"no apps", Reconfig{Policy: pol, Apps: []core.AppSpec{}}},
		{"core beyond chip", Reconfig{Policy: pol, Apps: badCore}},
		{"core assigned twice", Reconfig{Policy: pol, Apps: dupCore}},
		{"unnamed app", Reconfig{Policy: pol, Apps: noName}},
	}
	for _, c := range cases {
		if err := d.Reconfigure(c.rc); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if got := d.Limit(); got != 50 {
		t.Errorf("limit = %v after rejected reconfigures", got)
	}
	if got := d.PolicyName(); got != pol.Name() {
		t.Errorf("policy = %q after rejected reconfigures", got)
	}
}

// TestReconfigurePolicySwap swaps the policy and shares on a daemon that is
// mid-run: the next interval must run under the new policy, the decision
// journal must show a contiguous reconfigure mark, and the flight recorder
// must carry the reconfigure events.
func TestReconfigurePolicySwap(t *testing.T) {
	chip := platform.Skylake()
	names := []string{"gcc", "cam4"}
	m := buildMachine(t, chip, names)
	specs := specsFor(names, []units.Shares{50, 50}, nil)
	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	journal := decisions.NewJournal(0)
	rec := flight.New(0)
	d, err := New(Config{
		Chip: chip, Policy: pol, Apps: specs, Limit: 50,
		Metrics: reg, Journal: journal, Flight: rec,
	}, m.Device(), MachineActuator{M: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AttachVirtual(m); err != nil {
		t.Fatal(err)
	}
	m.Run(2 * time.Second)
	oldName := d.PolicyName()

	newSpecs := specsFor(names, []units.Shares{80, 20}, nil)
	newPol, err := core.NewPerformanceShares(chip, newSpecs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Reconfigure(Reconfig{Policy: newPol, Apps: newSpecs}); err != nil {
		t.Fatal(err)
	}
	if got := d.PolicyName(); got != newPol.Name() || got == oldName {
		t.Fatalf("policy = %q after swap, want %q", got, newPol.Name())
	}
	m.Run(2 * time.Second)

	// 2 intervals + the reconfigure mark + 2 intervals, no gaps.
	entries := journal.Tail(int(journal.Total()))
	if len(entries) != 5 {
		t.Fatalf("journal has %d entries, want 5", len(entries))
	}
	for i, e := range entries {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d; a sample was dropped", i, e.Seq)
		}
	}
	mark := entries[2]
	if len(mark.Reasons) != 1 || mark.Reasons[0] != string(core.ReasonReconfigure) {
		t.Fatalf("mark reasons = %v", mark.Reasons)
	}
	if mark.Policy != newPol.Name() {
		t.Errorf("mark policy = %q", mark.Policy)
	}
	for _, e := range entries[3:] {
		if e.Policy != newPol.Name() {
			t.Errorf("post-swap entry seq %d under policy %q", e.Seq, e.Policy)
		}
	}

	// Policy and shares changes are distinct flight events.
	var codes []uint32
	for _, e := range rec.Dump("test").Events {
		if e.Kind != flight.KindReconfigure {
			continue
		}
		if e.Source != flight.SourceControl {
			t.Errorf("reconfigure event source = %v", e.Source)
		}
		codes = append(codes, e.Arg)
	}
	want := []uint32{flight.ReconfigPolicy, flight.ReconfigShares}
	if len(codes) != len(want) || codes[0] != want[0] || codes[1] != want[1] {
		t.Fatalf("reconfigure events = %v, want %v", codes, want)
	}

	if v := reg.Counter("powerd_reconfigures_total", "").Value(); v != 1 {
		t.Errorf("reconfigures counter = %v", v)
	}
}

func TestReconfigureLimitOnly(t *testing.T) {
	chip := platform.Skylake()
	names := []string{"gcc"}
	m := buildMachine(t, chip, names)
	specs := specsFor(names, []units.Shares{50}, nil)
	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rec := flight.New(0)
	d, err := New(Config{Chip: chip, Policy: pol, Apps: specs, Limit: 50, Flight: rec},
		m.Device(), MachineActuator{M: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Reconfigure(Reconfig{Limit: 40}); err != nil {
		t.Fatal(err)
	}
	if got := d.Limit(); got != 40 {
		t.Fatalf("limit = %v, want 40", got)
	}
	if got := d.PolicyName(); got != pol.Name() {
		t.Errorf("limit-only change swapped the policy to %q", got)
	}
	events := rec.Dump("test").Events
	var found bool
	for _, e := range events {
		if e.Kind != flight.KindReconfigure {
			continue
		}
		found = true
		if e.Arg != flight.ReconfigLimit {
			t.Errorf("event = %s, want %s", flight.ReconfigName(e.Arg), flight.ReconfigName(flight.ReconfigLimit))
		}
		if e.Value != microwatts(40) || e.Aux != microwatts(50) {
			t.Errorf("event value/aux = %d/%d, want new 40 W / old 50 W", e.Value, e.Aux)
		}
	}
	if !found {
		t.Error("no reconfigure flight event recorded")
	}
}

// A snapshot's Specs are laid down once per app set, in both halves of the
// double buffer, and an interval writes only the numbers: every snapshot
// before a reconfiguration carries the first set and its AppSet, every
// snapshot after it the second set and a new AppSet, and the journal names
// apps the same way.
func TestSnapshotIdentityFollowsAppSet(t *testing.T) {
	chip := platform.Skylake()
	names := []string{"gcc", "cam4", "leela"}
	m := buildMachine(t, chip, names)
	specs := specsFor(names, []units.Shares{50, 30, 20}, nil)
	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	journal := decisions.NewJournal(0)
	d, err := New(Config{Chip: chip, Policy: pol, Apps: specs, Limit: 50, Journal: journal},
		m.Device(), MachineActuator{M: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	run := func(want []core.AppSpec) (set uint64) {
		t.Helper()
		for i := 0; i < 3; i++ {
			m.Run(100 * time.Millisecond)
			snap, err := d.RunIteration(100 * time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				set = snap.AppSet
			}
			if snap.AppSet == 0 || snap.AppSet != set {
				t.Fatalf("interval %d: AppSet %d, want the set's nonzero %d", i, snap.AppSet, set)
			}
			if len(snap.Apps) != len(want) {
				t.Fatalf("snapshot has %d apps, want %d", len(snap.Apps), len(want))
			}
			for k, a := range snap.Apps {
				if a.Spec != want[k] {
					t.Fatalf("interval %d app %d: spec %+v, want %+v", i, k, a.Spec, want[k])
				}
				if a.Freq <= 0 && !a.Parked {
					t.Fatalf("interval %d app %d: no numbers written: %+v", i, k, a)
				}
			}
			e, _ := journal.Last()
			for k, a := range e.Apps {
				if a.Name != want[k].Name || a.Core != want[k].Core {
					t.Fatalf("journal app %d: %s@%d, want %s@%d", k, a.Name, a.Core, want[k].Name, want[k].Core)
				}
			}
		}
		return set
	}
	first := run(specs)

	// Same cores, names moved, shares changed, one app fewer.
	next := []core.AppSpec{specs[2], specs[0]}
	next[0].Core, next[1].Core = 0, 2
	next[0].Shares, next[1].Shares = 70, 30
	newPol, err := core.NewFrequencyShares(chip, next, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Reconfigure(Reconfig{Policy: newPol, Apps: next}); err != nil {
		t.Fatal(err)
	}
	if run(next) == first {
		t.Fatal("a reconfigured app set kept its AppSet")
	}
}

// A consumer owns the snapshot it is handed and may write to it; the
// daemon's core indices never come from it. Overwriting every Spec.Core in
// both halves of the double buffer with an out-of-range core must not
// steer (or crash) later intervals.
func TestSnapshotWritesDoNotSteerDaemon(t *testing.T) {
	chip := platform.Skylake()
	names := []string{"gcc", "cam4"}
	m := buildMachine(t, chip, names)
	specs := specsFor(names, []units.Shares{50, 50}, nil)
	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{Chip: chip, Policy: pol, Apps: specs, Limit: 50},
		m.Device(), MachineActuator{M: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		m.Run(100 * time.Millisecond)
		snap, err := d.RunIteration(100 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		for k := range snap.Apps {
			if i > 0 && snap.Apps[k].Freq <= 0 {
				t.Fatalf("interval %d app %d: no frequency: %+v", i, k, snap.Apps[k])
			}
			snap.Apps[k].Spec.Core = 1 << 20
		}
	}
}
