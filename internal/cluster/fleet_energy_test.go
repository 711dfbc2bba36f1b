package cluster

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/powerapi"
)

func TestFleetEnergyRollups(t *testing.T) {
	reg := metrics.NewRegistry()
	f := NewFleet(100, reg)

	stA := &powerapi.NodeStatus{
		Node: "a",
		Energy: &powerapi.EnergyStatus{
			ElapsedSeconds: 60, Intervals: 60,
			TotalUJ: 3_000_000_000, TotalJoules: 3000,
			OvershootUJ: 40_000_000, OvershootJoules: 40, ExcludedUJ: 10_000_000,
			CostUSD: 0.03, CarbonGrams: 12,
			Apps: []powerapi.AppEnergy{
				{Name: "gcc", Core: 0, Joules: 2000},
				{Name: "cam4", Core: 1, Joules: 500},
			},
			Anomalies: map[string]uint64{"overshoot": 2},
		},
	}
	stB := &powerapi.NodeStatus{
		Node: "b",
		Energy: &powerapi.EnergyStatus{
			ElapsedSeconds: 90, Intervals: 90,
			TotalUJ: 1_000_000_000, TotalJoules: 1000,
			CostUSD: 0.01, CarbonGrams: 4,
			Apps: []powerapi.AppEnergy{
				{Name: "gcc", Core: 0, Joules: 800},
			},
			Anomalies: map[string]uint64{"overshoot": 1, "straggler": 3},
		},
	}

	f.ObserveRound(1, 10*time.Millisecond, []NodeObservation{
		obsFor("a", 2*time.Millisecond, 30, 40, stA),
		obsFor("b", 3*time.Millisecond, 25, 35, stB),
		obsFor("c", 1*time.Millisecond, 10, 20, nil), // no ledger: silent
	})

	snap := f.Snapshot()
	if snap.EnergyJoules != 4000 {
		t.Errorf("fleet energy = %v J, want 4000", snap.EnergyJoules)
	}
	// Budget integrates over the longest node run clock: 100 W × 90 s.
	if snap.EnergyBudgetJoules != 9000 {
		t.Errorf("energy budget = %v J, want 9000", snap.EnergyBudgetJoules)
	}
	if snap.OvershootJoules != 40 || snap.ExcludedJoules != 10 {
		t.Errorf("overshoot/excluded = %v/%v J, want 40/10", snap.OvershootJoules, snap.ExcludedJoules)
	}
	if snap.EnergyCostUSD != 0.04 || snap.EnergyCarbonGrams != 16 {
		t.Errorf("cost/carbon = %v/%v, want 0.04/16", snap.EnergyCostUSD, snap.EnergyCarbonGrams)
	}
	if snap.AnomalyCounts["overshoot"] != 3 || snap.AnomalyCounts["straggler"] != 3 {
		t.Errorf("anomaly counts = %v", snap.AnomalyCounts)
	}

	// Top apps merge across nodes, sorted by joules; node cost splits
	// proportionally to attributed energy.
	if len(snap.TopEnergyApps) != 2 {
		t.Fatalf("top apps = %+v", snap.TopEnergyApps)
	}
	gcc := snap.TopEnergyApps[0]
	if gcc.Name != "gcc" || gcc.Joules != 2800 || gcc.Nodes != 2 {
		t.Errorf("gcc rollup = %+v", gcc)
	}
	// gcc's cost: 2000/3000 of a's $0.03 + 800/1000 of b's $0.01.
	if want := 0.03*2000/3000 + 0.01*800/1000; gcc.CostUSD < want-1e-12 || gcc.CostUSD > want+1e-12 {
		t.Errorf("gcc cost = %v, want %v", gcc.CostUSD, want)
	}
	if snap.TopEnergyApps[1].Name != "cam4" || snap.TopEnergyApps[1].Joules != 500 {
		t.Errorf("second app = %+v", snap.TopEnergyApps[1])
	}

	// Per-node rows carry their own energy and anomaly tallies.
	if snap.Nodes[0].EnergyJoules != 3000 || snap.Nodes[0].Anomalies != 2 {
		t.Errorf("node a row = %+v", snap.Nodes[0])
	}
	if snap.Nodes[1].Anomalies != 4 {
		t.Errorf("node b anomalies = %d, want 4", snap.Nodes[1].Anomalies)
	}
	if snap.Nodes[2].EnergyJoules != 0 {
		t.Errorf("ledger-less node reports energy: %+v", snap.Nodes[2])
	}

	// And the registry gauges agree with the snapshot.
	vals := reg.Values()
	if vals["fleet_energy_joules"] != 4000 || vals["fleet_energy_budget_joules"] != 9000 {
		t.Errorf("energy gauges = %v / %v", vals["fleet_energy_joules"], vals["fleet_energy_budget_joules"])
	}
	if vals[`fleet_anomalies_total{kind="straggler"}`] != 3 {
		t.Errorf("anomaly gauge = %v", vals[`fleet_anomalies_total{kind="straggler"}`])
	}
}

// More apps than EnergyTopK: the ranking truncates but keeps the largest.
func TestFleetEnergyTopKTruncates(t *testing.T) {
	f := NewFleet(100, nil)
	apps := make([]powerapi.AppEnergy, EnergyTopK+3)
	for i := range apps {
		apps[i] = powerapi.AppEnergy{Name: string(rune('a' + i)), Core: i, Joules: float64(100 - i)}
	}
	st := &powerapi.NodeStatus{
		Node:   "n",
		Energy: &powerapi.EnergyStatus{ElapsedSeconds: 1, TotalJoules: 1000, Apps: apps},
	}
	f.ObserveRound(1, time.Millisecond, []NodeObservation{obsFor("n", time.Millisecond, 10, 20, st)})
	snap := f.Snapshot()
	if len(snap.TopEnergyApps) != EnergyTopK {
		t.Fatalf("top apps = %d, want %d", len(snap.TopEnergyApps), EnergyTopK)
	}
	if snap.TopEnergyApps[0].Name != "a" || snap.TopEnergyApps[EnergyTopK-1].Joules <= snap.TopEnergyApps[0].Joules-float64(EnergyTopK) {
		t.Errorf("ranking order: %+v", snap.TopEnergyApps)
	}
}
