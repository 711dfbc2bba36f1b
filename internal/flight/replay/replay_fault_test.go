package replay

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/fault"
	"repro/internal/flight"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// recordFaulted runs a resilient daemon through a schedule covering every
// fault class and returns the flight dump.
func recordFaulted(t *testing.T) flight.Dump {
	t.Helper()
	chip := platform.Skylake()
	rec := flight.New(flight.DefaultCapacity)
	m, err := sim.New(chip, sim.WithFlightRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	specs := []core.AppSpec{
		{Name: "gcc", Core: 0, Shares: 70},
		{Name: "leela", Core: 1, Shares: 30},
	}
	for _, s := range specs {
		if err := m.Pin(workload.NewInstance(workload.MustByName(s.Name)), s.Core); err != nil {
			t.Fatal(err)
		}
	}
	m.SetPowerLimit(35)
	sched, err := fault.ParseSchedule(`
at 100ms for 100ms eio cpu=0 prob=0.6
at 250ms for 100ms stuck cpu=* regs=MPERF,PKG_ENERGY_STATUS
at 400ms for 100ms torn cpu=*
at 550ms for 100ms latency cpu=* delay=1ms
at 700ms for 100ms thermal cap=1200MHz
at 850ms for 100ms rapl limit=25W
at 1s for 100ms offline cpu=1
`)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(sched, 17)
	inj.Flight(rec)
	inj.Drive(m)

	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dev := inj.WrapDevice(m.Device())
	dmn, err := daemon.New(daemon.Config{
		Chip: chip, Policy: pol, Apps: specs, Limit: 35,
		Interval: 20 * time.Millisecond,
		Flight:   rec,
	}, dev, daemon.MachineActuator{M: m, Dev: dev})
	if err != nil {
		t.Fatal(err)
	}
	if err := dmn.AttachVirtual(m); err != nil {
		t.Fatal(err)
	}
	m.Run(1300 * time.Millisecond)
	if err := dmn.Err(); err != nil {
		t.Fatal(err)
	}
	return rec.Dump("chaos")
}

func countFaultEvents(d flight.Dump) (injects, clears int) {
	for _, ev := range d.Events {
		switch ev.Kind {
		case flight.KindFaultInject:
			injects++
		case flight.KindFaultClear:
			clears++
		}
	}
	return injects, clears
}

// TestFaultedRunReplaysBitIdentical is the replay guarantee extended to
// chaos: a run perturbed by every fault class — lying MSRs included — dumps
// to a file, reads back, and replays with zero mismatches, because the
// injector sits above the recorded device (faulted reads never become
// ground truth) and platform faults are recorded as replayable inputs.
func TestFaultedRunReplaysBitIdentical(t *testing.T) {
	d := recordFaulted(t)
	injects, clears := countFaultEvents(d)
	if injects != 7 || clears != 7 {
		t.Fatalf("dump has %d injects, %d clears; want 7 and 7", injects, clears)
	}

	// Round-trip the dump through the on-disk format.
	path, err := flight.WriteDumpFile(t.TempDir(), d)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := flight.ReadDumpFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Events) != len(d.Events) {
		t.Fatalf("file round trip lost events: %d -> %d", len(d.Events), len(d2.Events))
	}
	if i2, c2 := countFaultEvents(d2); i2 != injects || c2 != clears {
		t.Fatalf("fault events did not survive the file: %d/%d -> %d/%d", injects, clears, i2, c2)
	}

	res, err := Replay(d2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("dump unexpectedly truncated")
	}
	if len(res.Mismatches) != 0 {
		t.Fatalf("%d mismatches; first: %v", len(res.Mismatches), res.Mismatches[0])
	}
	if res.Reads == 0 || res.Writes == 0 {
		t.Fatalf("replay exercised nothing: %d reads, %d writes", res.Reads, res.Writes)
	}

	// The derived series must agree point for point, and actually contain
	// the thermal excursion (a sample at or under the 1200 MHz clamp
	// inside its window).
	sawClamp := false
	for cpu, recSeries := range res.RecordedFreq {
		repSeries := res.ReplayedFreq[cpu]
		if len(recSeries) != len(repSeries) {
			t.Fatalf("cpu%d: derived series lengths differ: %d vs %d", cpu, len(recSeries), len(repSeries))
		}
		for i := range recSeries {
			if recSeries[i] != repSeries[i] {
				t.Fatalf("cpu%d sample %d: recorded %+v, replayed %+v", cpu, i, recSeries[i], repSeries[i])
			}
			if recSeries[i].Time > 700*time.Millisecond && recSeries[i].Time <= 800*time.Millisecond &&
				recSeries[i].Hz > 0 && recSeries[i].Hz <= 1200*units.MHz {
				sawClamp = true
			}
		}
	}
	if !sawClamp {
		t.Error("derived frequency series never shows the thermal clamp")
	}
	if len(res.RecordedPower) != len(res.ReplayedPower) {
		t.Fatalf("power series lengths differ: %d vs %d", len(res.RecordedPower), len(res.ReplayedPower))
	}
	for i := range res.RecordedPower {
		if res.RecordedPower[i] != res.ReplayedPower[i] {
			t.Fatalf("power sample %d: recorded %+v, replayed %+v", i, res.RecordedPower[i], res.ReplayedPower[i])
		}
	}
}

// TestFaultedRunsAreSeedDeterministic: two identically seeded chaos runs
// produce byte-identical event logs — the property that makes a fault
// schedule a reproducible test case rather than a flake generator.
func TestFaultedRunsAreSeedDeterministic(t *testing.T) {
	a := recordFaulted(t)
	b := recordFaulted(t)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		// Wall stamps are wall-clock and legitimately differ.
		ea.Wall, eb.Wall = 0, 0
		if ea != eb {
			t.Fatalf("event %d differs: %+v vs %+v", i, ea, eb)
		}
	}
}
