package daemon

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/flight"
	"repro/internal/ledger"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/units"
)

// TestLedgerConservationUnderChaos runs the energy ledger inside the
// control loop against every fault class and holds it to the accounting
// identity that makes /debug/energy trustworthy:
//
//	attributed + unattributed + excluded == total   (exact, in µJ)
//
// Faulty telemetry (stuck counters, torn reads, dark cores) must land in
// the excluded account — never be smeared across apps — and the identity
// must hold bit-exactly through injection, the fault window, and recovery.
func TestLedgerConservationUnderChaos(t *testing.T) {
	for _, fc := range chaosFaults {
		t.Run(fc.name, func(t *testing.T) {
			chip := platform.Skylake()
			limit := units.Watts(35)
			names := []string{"gcc", "cam4", "leela"}

			rec := flight.New(flight.DefaultCapacity)
			m, err := sim.New(chip, sim.WithFlightRecorder(rec))
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range names {
				if err := m.Pin(newInstanceFor(n), i); err != nil {
					t.Fatal(err)
				}
			}
			m.SetPowerLimit(limit)

			sched, err := fault.ParseSchedule(fc.sched)
			if err != nil {
				t.Fatal(err)
			}
			inj := fault.New(sched, 1)
			inj.Flight(rec)
			inj.Drive(m)

			specs := specsFor(names, []units.Shares{60, 30, 10}, nil)
			pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
			if err != nil {
				t.Fatal(err)
			}
			led, err := ledger.New(ledger.Config{Chip: chip, Apps: specs, Flight: rec})
			if err != nil {
				t.Fatal(err)
			}
			dev := inj.WrapDevice(m.Device())
			d, err := New(Config{
				Chip: chip, Policy: pol, Apps: specs, Limit: limit,
				Interval: 20 * time.Millisecond,
				Flight:   rec,
				Ledger:   led,
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

			s := led.Summarize()
			if s.Intervals != uint64(d.Iterations()) {
				t.Errorf("ledger saw %d intervals, loop ran %d", s.Intervals, d.Iterations())
			}
			if s.TotalUJ == 0 {
				t.Fatal("ledger accumulated no energy")
			}
			if got := led.AttributedUJ() + s.UnattributedUJ + s.ExcludedUJ; got != s.TotalUJ {
				t.Errorf("conservation violated under %s: attributed %d + unattributed %d + excluded %d = %d, want %d",
					fc.name, led.AttributedUJ(), s.UnattributedUJ, s.ExcludedUJ, got, s.TotalUJ)
			}
			// The run is mostly healthy (fault window is 200 ms of 1.5 s), so
			// attribution must actually have happened.
			if led.AttributedUJ() == 0 {
				t.Error("nothing attributed across a mostly-healthy run")
			}
			for i, a := range s.Apps {
				if a.TotalUJ == 0 {
					t.Errorf("app %d (%s) got no energy despite running throughout", i, a.Name)
				}
			}
			// The ledger's flight events must replay to the same accounts the
			// live ledger reports — the chaos run is exactly when the two
			// could silently diverge.
			r := ledger.Rebuild(rec.Dump("conservation").Events)
			if r.TotalUJ != s.TotalUJ || r.UnattributedUJ != s.UnattributedUJ || r.ExcludedUJ != s.ExcludedUJ {
				t.Errorf("replay diverged: rebuilt %d/%d/%d, live %d/%d/%d",
					r.TotalUJ, r.UnattributedUJ, r.ExcludedUJ,
					s.TotalUJ, s.UnattributedUJ, s.ExcludedUJ)
			}
			for i := range s.Apps {
				if r.AppUJ[i] != s.Apps[i].TotalUJ {
					t.Errorf("replay app %d: %d uJ, live %d uJ", i, r.AppUJ[i], s.Apps[i].TotalUJ)
				}
			}
		})
	}
}
