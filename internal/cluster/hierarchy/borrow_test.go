package hierarchy

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/units"
)

// TestBorrowedFrameRace: a leaf report lends its transport's frame, and
// neither a Fleet nor a tier's status may be left holding it. Goroutines
// read every Fleet's Snapshot and every tier's status (its coordinator's
// Aggregate) while the tree runs rounds, a budget shrink and a grow; under
// -race any read of a frame a later Report overwrites is a report. A
// snapshot taken before those rounds, whose grants renumber every lease,
// must read the same after them.
func TestBorrowedFrameRace(t *testing.T) {
	const rows, perRow = 4, 8
	const budget = units.Watts(rows * perRow * 100)
	rowFallback := budget * floorFraction / rows
	var tiers []*Tier
	var fleets []*cluster.Fleet
	uplinks := make([]cluster.Transport, rows)
	for r := range uplinks {
		rowName := fmt.Sprintf("row%d", r)
		ts := make([]cluster.Transport, perRow)
		for j := range ts {
			leaf, err := NewLeaf(LeafConfig{
				Name: fmt.Sprintf("n%d", r*perRow+j), Max: 200,
				Fallback: rowFallback * floorFraction / perRow, Demand: units.Watts(40 + 10*j),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(leaf.Close)
			ts[j] = leaf.Transport(rowName)
		}
		fleet := cluster.NewFleet(rowFallback, nil)
		row, err := NewTier(TierConfig{
			Name: rowName, Level: "row", StartAtFallback: true, Fallback: rowFallback,
			LeaseTTL: time.Hour, Retries: -1, Fleet: fleet,
		}, ts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(row.Close)
		tiers, fleets = append(tiers, row), append(fleets, fleet)
		uplinks[r] = row.Transport("building")
	}
	rootFleet := cluster.NewFleet(budget, nil)
	root, err := NewTier(TierConfig{
		Name: "building", Level: "building", Budget: budget, Fallback: budget,
		LeaseTTL: time.Hour, Retries: -1, Fleet: rootFleet,
	}, uplinks)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(root.Close)
	tiers, fleets = append(tiers, root), append(fleets, rootFleet)

	ctx := context.Background()
	step := func() {
		t.Helper()
		for _, tier := range tiers {
			if err := tier.Step(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 3; i++ {
		step()
	}
	snap := fleets[0].Snapshot()
	if len(snap.Nodes) != perRow || snap.Nodes[0].Lease == nil {
		t.Fatalf("row fleet snapshot %+v, want %d nodes holding leases", snap.Nodes, perRow)
	}
	before, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i, tier := range tiers {
				fleets[i].Snapshot()
				tier.Agent().Status()
			}
		}
	}()
	for round := 0; round < 30; round++ {
		switch round {
		case 10:
			if err := root.SetBudget(ctx, budget*0.6); err != nil {
				t.Fatalf("shrink: %v", err)
			}
		case 20:
			if err := root.SetBudget(ctx, budget); err != nil {
				t.Fatalf("grow: %v", err)
			}
		}
		step()
	}
	close(stop)
	wg.Wait()

	after, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Errorf("a fleet snapshot changed after it was taken:\nbefore %s\nafter  %s", before, after)
	}
	if agg := root.Coordinator().Aggregate(); agg.Leaves != rows*perRow || agg.Depth != 2 {
		t.Errorf("root aggregate %+v, want %d leaves at depth 2", agg, rows*perRow)
	}
}

// TestBorrowedFrameStuckReplay: the fault injector's stuck mode keeps a
// report, borrowed frame and all, and replays it. Nothing refills that
// frame while the inner transport is not asked, so the replay stays frozen
// while the leaf moves, and the first report after the window is fresh.
func TestBorrowedFrameStuckReplay(t *testing.T) {
	leaf, err := NewLeaf(LeafConfig{Name: "n0", Max: 100, Fallback: 25, Demand: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()
	var now atomic.Int64
	ft := &faultTransport{
		inner: leaf.Transport("row"),
		sched: fault.Schedule{{At: roundTick, For: 2 * roundTick, Class: fault.ClassStuck, CPU: -1}},
		clock: func() time.Duration { return time.Duration(now.Load()) },
		rng:   rand.New(rand.NewSource(1)),
	}
	ctx := context.Background()
	grant := func(limit units.Watts) {
		t.Helper()
		if err := ft.Grant(ctx, cluster.Grant{Limit: limit, TTL: time.Hour, Fallback: 25}); err != nil {
			t.Fatal(err)
		}
	}
	grant(60)
	frozen, err := ft.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	kept := *frozen.Status
	lease := *kept.Lease
	kept.Lease = &lease

	now.Store(int64(roundTick)) // stuck from here
	leaf.SetDemand(50)
	grant(70)
	for i := 0; i < 2; i++ {
		r, err := ft.Report(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if r.Power != frozen.Power || !reflect.DeepEqual(*r.Status, kept) {
			t.Fatalf("stuck report %d: power %v, status %+v; want the frozen %v, %+v", i, r.Power, *r.Status, frozen.Power, kept)
		}
	}

	now.Store(int64(3 * roundTick)) // the window is over
	r, err := ft.Report(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r.Power != 50 || r.Status.Lease == nil || r.Status.Lease.LimitWatts != 70 {
		t.Errorf("report after the window: power %v, lease %+v; want 50 W under a 70 W lease", r.Power, r.Status.Lease)
	}
}
