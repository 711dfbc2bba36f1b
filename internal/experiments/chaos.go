package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/flight"
	"repro/internal/node"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// ChaosCell summarises one fault class's run: what was injected, how the
// resilient daemon reacted, and whether the power cap held on machine truth
// (not on the possibly-lying telemetry).
type ChaosCell struct {
	Class      fault.Class
	Windows    int         // fault windows opened
	Degraded   int         // core degradation events
	Readmitted int         // cores returned to normal control
	MaxPower   units.Watts // worst post-warmup machine-truth package power
	Recovered  bool        // every degraded core was readmitted by the end
}

// ChaosResult is the fault-injection robustness study: each fault class from
// internal/fault run against the resilient daemon on Skylake, three apps on
// frequency shares under a 35 W limit.
type ChaosResult struct {
	Chip  string
	Limit units.Watts
	Cells []ChaosCell
}

// chaosSchedules maps each fault class to a schedule exercising it. The
// stuck window freezes a subset of registers (MPERF + package energy): a
// fully frozen core is indistinguishable from an idle one, while a partial
// freeze is detectably inconsistent.
var chaosSchedules = []struct {
	class fault.Class
	sched string
}{
	{fault.ClassEIO, "at 300ms for 300ms eio cpu=* prob=0.7"},
	{fault.ClassStuck, "at 300ms for 300ms stuck cpu=* regs=MPERF,PKG_ENERGY_STATUS"},
	{fault.ClassTorn, "at 300ms for 300ms torn cpu=*"},
	{fault.ClassLatency, "at 300ms for 300ms latency cpu=* delay=2ms"},
	{fault.ClassThermal, "at 300ms for 300ms thermal cap=1000MHz"},
	{fault.ClassRAPL, "at 300ms for 300ms rapl limit=22W"},
	{fault.ClassOffline, "at 300ms for 300ms offline cpu=1"},
}

// ChaosStudy runs every fault class against the resilient daemon and
// reports the injection counts, health transitions, and the worst
// machine-truth package power.
func ChaosStudy() (ChaosResult, error) {
	chip := platform.Skylake()
	out := ChaosResult{Chip: chip.Name, Limit: 35}
	for _, cs := range chaosSchedules {
		cell, err := chaosRun(chip, cs.class, cs.sched, out.Limit)
		if err != nil {
			return ChaosResult{}, fmt.Errorf("chaos %s: %w", cs.class, err)
		}
		out.Cells = append(out.Cells, cell)
	}
	return out, nil
}

func chaosRun(chip platform.Chip, class fault.Class, schedText string, limit units.Watts) (ChaosCell, error) {
	sched, err := fault.ParseSchedule(schedText)
	if err != nil {
		return ChaosCell{}, err
	}
	specs := []core.AppSpec{
		{Name: "gcc", Core: 0, Shares: 60},
		{Name: "gcc", Core: 1, Shares: 30},
		{Name: "gcc", Core: 2, Shares: 10},
	}
	pol, err := policyFor(string(FreqShares), chip, specs, limit)
	if err != nil {
		return ChaosCell{}, err
	}
	rec := flight.New(flight.DefaultCapacity)
	cell := ChaosCell{Class: class}
	iter := 0
	var m *sim.Machine
	err = withNode(node.Spec{
		Chip: chip, Apps: specs, Policy: pol, Limit: limit, Interval: 20 * time.Millisecond,
		Faults: sched, FaultSeed: 11, Flight: rec,
		OnSnapshot: func(core.Snapshot) {
			iter++
			// Machine truth, safe here: snapshots fire on the loop
			// goroutine in lockstep with virtual time.
			if p := m.PackagePower(); iter > 10 && p > cell.MaxPower {
				cell.MaxPower = p
			}
		},
	}, func(n *node.Node) error {
		m = n.M
		if chip.HardwareRAPLLimit {
			m.SetPowerLimit(limit)
		}
		return n.Run(1500 * time.Millisecond)
	})
	if err != nil {
		return ChaosCell{}, err
	}

	for _, e := range rec.Dump("chaos").Events {
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
	return cell, nil
}

// Tables renders the result.
func (r ChaosResult) Tables() []trace.Table {
	t := trace.Table{
		Title: fmt.Sprintf("Chaos study: fault classes vs the resilient daemon on %s @ %s, 60/30/10 shares",
			r.Chip, trace.W(r.Limit)),
		Header: []string{"fault", "windows", "degraded", "readmitted", "recovered", "max pkg W (truth)"},
	}
	for _, c := range r.Cells {
		t.AddRow(c.Class.String(), fmt.Sprint(c.Windows), fmt.Sprint(c.Degraded),
			fmt.Sprint(c.Readmitted), fmt.Sprintf("%v", c.Recovered), trace.W(c.MaxPower))
	}
	return []trace.Table{t}
}
