package experiments

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/flight"
	"repro/internal/node"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/svc"
	"repro/internal/units"
)

// sloChaosRun mirrors chaosRun with the SLO-feedback policy driving an
// open-loop latency service while the fault injector misbehaves.
func sloChaosRun(t *testing.T, class fault.Class, schedText string, limit units.Watts) (ChaosCell, int) {
	t.Helper()
	sched, err := fault.ParseSchedule(schedText)
	if err != nil {
		t.Fatal(err)
	}
	rec := flight.New(flight.DefaultCapacity)
	chip := platform.Skylake()
	target := 100 * time.Millisecond
	specs := []core.AppSpec{
		{Name: "websearch", Core: 0, Shares: 50},
		{Name: "websearch", Core: 1, Shares: 50},
		{Name: "websearch", Core: 2, Shares: 50},
		{Name: "cpuburn", Core: 3, Shares: 50, AVX: true},
	}
	targets := []core.SLOTarget{{Service: "websearch", P99: target}}
	pol, err := core.NewSLOFeedback(chip, specs, core.SLOConfig{Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	cell := ChaosCell{Class: class}
	iter, withSLO := 0, 0
	var m *sim.Machine
	n, err := node.New(node.Spec{
		Chip: chip, Apps: specs, Policy: pol, Limit: limit, Interval: 20 * time.Millisecond,
		Services: []svc.Config{{
			Name: "websearch", Cores: []int{0, 1, 2}, Seed: 7, Arrivals: svc.OpenPoisson,
			Rate: svc.ConstantRate(120), SLO: target,
		}},
		SLOTargets: targets, Faults: sched, FaultSeed: 11, Flight: rec,
		OnSnapshot: func(s core.Snapshot) {
			iter++
			if len(s.Services) > 0 {
				withSLO++
			}
			// Machine truth, safe here: snapshots fire on the loop
			// goroutine in lockstep with virtual time.
			if p := m.PackagePower(); iter > 10 && p > cell.MaxPower {
				cell.MaxPower = p
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	m = n.M
	if chip.HardwareRAPLLimit {
		m.SetPowerLimit(limit)
	}
	if err := n.Run(1500 * time.Millisecond); err != nil {
		t.Fatalf("%s: daemon error: %v", class, err)
	}

	for _, e := range rec.Dump("slo-chaos").Events {
		switch e.Kind {
		case flight.KindFaultInject:
			cell.Windows++
		case flight.KindHealth:
			switch e.Arg {
			case flight.HealthDegraded:
				cell.Degraded++
			case flight.HealthReadmitted:
				cell.Readmitted++
			}
		}
	}
	cell.Recovered = cell.Degraded == cell.Readmitted
	return cell, withSLO
}

// The SLO-feedback policy must survive every fault class the resilient
// daemon handles: keep the machine-truth power near the cap, recover
// every degraded core, and keep consuming service telemetry throughout.
func TestSLOFeedbackUnderFaults(t *testing.T) {
	const limit = units.Watts(35)
	for _, cs := range chaosSchedules {
		cell, withSLO := sloChaosRun(t, cs.class, cs.sched, limit)
		if cell.Windows == 0 {
			t.Errorf("%s: no fault window opened", cell.Class)
		}
		if !cell.Recovered {
			t.Errorf("%s: %d degraded but only %d readmitted", cell.Class, cell.Degraded, cell.Readmitted)
		}
		if cell.MaxPower > limit*125/100 {
			t.Errorf("%s: machine power %v blew through the %v limit", cell.Class, cell.MaxPower, limit)
		}
		if withSLO == 0 {
			t.Errorf("%s: no snapshot carried service telemetry", cell.Class)
		}
	}
}
