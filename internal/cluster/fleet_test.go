package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/powerapi"
	"repro/internal/units"
)

// obsFor observes a report that started with its round, so it finished
// rpc after the round's start.
func obsFor(node string, rpc time.Duration, power, limit float64, st *powerapi.NodeStatus) NodeObservation {
	return NodeObservation{
		Node:   node,
		RPC:    rpc,
		Finish: rpc,
		Report: Report{
			Power: units.Watts(power), Limit: units.Watts(limit),
			Status: st,
		},
	}
}

func TestFleetRollups(t *testing.T) {
	reg := metrics.NewRegistry()
	f := NewFleet(100, reg)

	stA := &powerapi.NodeStatus{
		Node: "a", Policy: "frequency-shares",
		Apps: []powerapi.AppShare{{Name: "gcc", Watts: 10}, {Name: "cam4", Watts: 5}},
		Metrics: map[string]float64{
			`powerapi_lease_events_total{event="grant"}`:                            1,
			`padpd_build_info{component="powerd",go_version="go1.22",version="v1"}`: 1,
		},
	}
	stB := &powerapi.NodeStatus{
		Node: "b",
		Apps: []powerapi.AppShare{{Name: "gcc", Watts: 20}},
		Metrics: map[string]float64{
			`powerapi_lease_events_total{event="grant"}`:                            2,
			`padpd_build_info{component="powerd",go_version="go1.22",version="v2"}`: 1,
		},
	}

	f.ObserveRound(1, 10*time.Millisecond, []NodeObservation{
		obsFor("a", 2*time.Millisecond, 30, 40, stA),
		obsFor("b", 3*time.Millisecond, 25, 35, stB),
		{Node: "c", Err: fmt.Errorf("connection refused")},
	})

	snap := f.Snapshot()
	if snap.Round != 1 || snap.BudgetWatts != 100 {
		t.Fatalf("snapshot header = %+v", snap)
	}
	if snap.TotalPowerWatts != 55 {
		t.Errorf("total power = %v, want 55", snap.TotalPowerWatts)
	}
	if len(snap.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(snap.Nodes))
	}
	if snap.Nodes[2].Name != "c" || snap.Nodes[2].MissedRounds != 1 {
		t.Errorf("failed node row = %+v", snap.Nodes[2])
	}
	// Apps are summed across nodes and sorted by watts.
	if len(snap.Apps) != 2 || snap.Apps[0].Name != "gcc" || snap.Apps[0].Watts != 30 || snap.Apps[0].Nodes != 2 {
		t.Errorf("apps = %+v", snap.Apps)
	}
	if snap.LeaseEvents["grant"] != 3 {
		t.Errorf("lease events = %v", snap.LeaseEvents)
	}
	// Two distinct build_info series → version skew.
	if len(snap.Versions) != 2 || !snap.MixedVersions {
		t.Errorf("versions = %v mixed=%v", snap.Versions, snap.MixedVersions)
	}
	if snap.RoundLatency.Samples != 1 || snap.RoundLatency.MaxMS != 10 {
		t.Errorf("round latency = %+v", snap.RoundLatency)
	}

	// Rollup gauges on the registry agree.
	vals := reg.Values()
	if vals["fleet_power_watts"] != 55 || vals["fleet_budget_watts"] != 100 {
		t.Errorf("gauges = power %v budget %v", vals["fleet_power_watts"], vals["fleet_budget_watts"])
	}
	if vals["fleet_nodes"] != 3 || vals["fleet_nodes_reporting"] != 2 {
		t.Errorf("node gauges = %v / %v", vals["fleet_nodes"], vals["fleet_nodes_reporting"])
	}
	if vals[`fleet_app_watts{app="gcc"}`] != 30 {
		t.Errorf("app gauge = %v", vals[`fleet_app_watts{app="gcc"}`])
	}
}

// TestFleetDeltaMergeAndStragglers feeds the fleet what an HTTPNode
// does — the view of a follower applying a full frame, then a delta —
// and checks the rollups read the merged view: a series the delta left
// off the wire still counts, one it moved counts at its new value, and
// a later full frame drops what it no longer carries. Along the way it
// checks the straggler rule the fleet shares with tracing.Merge, and
// that a straggler's worst is its slowest report in a round it was
// flagged, not in any round.
func TestFleetDeltaMergeAndStragglers(t *testing.T) {
	f := NewFleet(100, nil)
	const grant, renew = `powerapi_lease_events_total{event="grant"}`, `powerapi_lease_events_total{event="renew"}`
	var follower powerapi.StatusFollower
	view := func(fr *powerapi.NodeStatus) *powerapi.NodeStatus {
		t.Helper()
		st, err := follower.Apply(fr)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	mk := func(rpcA, rpcB time.Duration, st *powerapi.NodeStatus) []NodeObservation {
		return []NodeObservation{
			obsFor("a", rpcA, 10, 20, st),
			obsFor("b", rpcB, 10, 20, nil),
			obsFor("c", 1*time.Millisecond, 10, 20, nil),
			{Node: "d", Err: fmt.Errorf("timeout"), Finish: 90 * time.Millisecond},
		}
	}
	// Round 1: full frame, node a the straggler: its report finished
	// 39 ms after the last other healthy one, over the 5 ms floor. The
	// failed report that finished later is no bar.
	f.ObserveRound(1, 50*time.Millisecond, mk(40*time.Millisecond, time.Millisecond, view(&powerapi.NodeStatus{
		Node: "a", Epoch: 9, Rev: 1, Metrics: map[string]float64{grant: 1, renew: 2}})))
	// Round 2: the delta moves renew, keeps grant; a is slower still,
	// but b finished within the floor of it: no straggler, and a's
	// worst stays the 40 ms of the round that flagged it.
	f.ObserveRound(2, 70*time.Millisecond, mk(60*time.Millisecond, 57*time.Millisecond, view(&powerapi.NodeStatus{
		Node: "a", Epoch: 9, Rev: 2, Base: 1, Metrics: map[string]float64{renew: 5}})))

	snap := f.Snapshot()
	if len(snap.Stragglers) != 1 || snap.Stragglers[0].Node != "a" || snap.Stragglers[0].Rounds != 1 {
		t.Fatalf("stragglers = %+v", snap.Stragglers)
	}
	if snap.Stragglers[0].WorstMS != 40 {
		t.Errorf("straggler worst = %vms, want 40ms, its report in the round that flagged it", snap.Stragglers[0].WorstMS)
	}
	if snap.Nodes[0].StatusRev != 2 {
		t.Errorf("status rev = %d, want 2", snap.Nodes[0].StatusRev)
	}
	if snap.LeaseEvents["grant"] != 1 || snap.LeaseEvents["renew"] != 5 {
		t.Errorf("lease events = %v, want grant 1 renew 5", snap.LeaseEvents)
	}

	// A later full frame replaces: stale series disappear.
	f.ObserveRound(3, 5*time.Millisecond, mk(1*time.Millisecond, time.Millisecond, view(&powerapi.NodeStatus{
		Node: "a", Epoch: 10, Rev: 1, Metrics: map[string]float64{renew: 7}})))
	snap = f.Snapshot()
	if _, ok := snap.LeaseEvents["grant"]; ok || snap.LeaseEvents["renew"] != 7 {
		t.Errorf("post-full lease events = %v, want only renew 7", snap.LeaseEvents)
	}
}

func TestFleetNilSafe(t *testing.T) {
	var f *Fleet
	f.ObserveRound(1, time.Millisecond, []NodeObservation{{Node: "a"}})
	if snap := f.Snapshot(); snap.Round != 0 || snap.Nodes != nil {
		t.Fatalf("nil fleet snapshot = %+v", snap)
	}
}

// TestFleetDropsRemovedNode: a node its coordinator drops leaves the fleet's
// rows and sums with it, so the fleet's power is the coordinator's.
func TestFleetDropsRemovedNode(t *testing.T) {
	report := func(w units.Watts) func(context.Context) (Report, error) {
		return func(context.Context) (Report, error) { return Report{Power: w, Limit: 50, Max: 85}, nil }
	}
	pa := &probeTransport{name: "a", local: true, report: report(40)}
	pb := &probeTransport{name: "b", local: true, report: report(30)}
	fleet := NewFleet(100, nil)
	c, err := NewOverTransports([]Transport{pa, pb}, Config{Budget: 100, Fleet: fleet, Clock: clock.NewVirtual(time.Time{})})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.Step(ctx); err != nil {
		t.Fatal(err)
	}
	if snap := fleet.Snapshot(); len(snap.Nodes) != 2 || snap.TotalPowerWatts != 70 {
		t.Fatalf("before b leaves: %d nodes drawing %v W, want 2 drawing 70 W", len(snap.Nodes), snap.TotalPowerWatts)
	}
	if err := c.SetChildren([]Transport{pa}); err != nil {
		t.Fatal(err)
	}
	if err := c.Step(ctx); err != nil {
		t.Fatal(err)
	}
	snap := fleet.Snapshot()
	if len(snap.Nodes) != 1 || snap.Nodes[0].Name != "a" || snap.TotalPowerWatts != float64(c.Aggregate().Power) {
		t.Errorf("after b left: rows %+v drawing %v W, want a's alone drawing the coordinator's %v",
			snap.Nodes, snap.TotalPowerWatts, c.Aggregate().Power)
	}
}
