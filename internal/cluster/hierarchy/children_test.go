package hierarchy

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/tracing"
	"repro/internal/units"
)

// TestTierChangesChildrenInPlace: a row over three leaves, the third cut off
// and quarantined, takes a fourth. It stays one coordinator: its round IDs
// stay unique in its trace, its round count and status iterations go on,
// and right after the change it reports the subtree it reported before —
// the newcomer adds nothing until its first report. The quarantined
// survivor stays quarantined and holds its lease's cap until exactly the
// lease's deadline, then its floor.
func TestTierChangesChildrenInPlace(t *testing.T) {
	const (
		budget = units.Watts(300)
		ttl    = 10 * time.Second
	)
	vc := clock.NewVirtual(epoch)
	tr := tracing.New("row", 0)
	leaves := make([]*Leaf, 4)
	for i := range leaves {
		leaf, err := NewLeaf(LeafConfig{Name: fmt.Sprintf("n%d", i), Max: 200, Fallback: 25, Demand: 60, Clock: vc})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(leaf.Close)
		leaves[i] = leaf
	}
	var cut atomic.Bool
	offline := &faultTransport{
		inner: leaves[2].Transport("row"),
		sched: fault.Schedule{{Class: fault.ClassOffline, For: time.Hour, CPU: -1}},
		clock: func() time.Duration {
			if cut.Load() {
				return 0
			}
			return 2 * time.Hour // past the offline window
		},
	}
	ts := []cluster.Transport{leaves[0].Transport("row"), leaves[1].Transport("row"), offline}
	row, err := NewTier(TierConfig{
		Name: "row", Level: "row", Budget: budget, Fallback: budget, LeaseTTL: ttl, Clock: vc, Tracer: tr,
	}, ts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(row.Close)
	ctx := context.Background()
	steps := 0
	step := func() {
		t.Helper()
		steps++
		vc.Advance(time.Second)
		if err := row.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}

	step()
	cut.Store(true)
	for range 3 { // the default QuarantineAfter
		step()
	}
	before, agg, st := row.Coordinator().Nodes(), row.Coordinator().Aggregate(), row.Agent().Status()
	if !before[2].Quarantined {
		t.Fatalf("the cut-off leaf is not quarantined: %+v", before)
	}
	lease := leaves[2].agent.Status().Lease
	if lease == nil {
		t.Fatal("the cut-off leaf holds no lease")
	}
	deadline := vc.Now().Add(time.Duration(lease.RemainingMS) * time.Millisecond)

	if err := row.SetChildren(append(ts, leaves[3].Transport("row"))); err != nil {
		t.Fatal(err)
	}
	after, st2 := row.Coordinator().Aggregate(), row.Agent().Status()
	if after.Power != agg.Power || after.Max != agg.Max || after.Reporting != agg.Reporting || after.Quarantined != 1 || after.Children != 4 {
		t.Errorf("aggregate %+v right after the change, was %+v", after, agg)
	}
	if st2.PowerWatts != st.PowerWatts || st2.MaxWatts != st.MaxWatts || st2.Iterations != st.Iterations {
		t.Errorf("status power %v, max %v, iterations %d right after the change, was %v, %v, %d",
			st2.PowerWatts, st2.MaxWatts, st2.Iterations, st.PowerWatts, st.MaxWatts, st.Iterations)
	}
	if l := leaves[3].agent.Status().Lease; l == nil {
		t.Error("the newcomer was not granted its share")
	}

	floor := float64(budget * floorFraction / 4)
	for vc.Now().Before(deadline) {
		if n := row.Coordinator().Nodes()[2]; !n.Quarantined || n.LimitWatts != before[2].LimitWatts {
			t.Fatalf("at %v the cut-off leaf is %+v, was %+v until its lease's deadline %v", since(vc), n, before[2], deadline.Sub(epoch))
		}
		step()
	}
	if n := row.Coordinator().Nodes()[2]; n.LimitWatts != floor {
		t.Errorf("at its lease's deadline the cut-off leaf is held at %v, want its floor %v", n.LimitWatts, floor)
	}

	rounds := row.Coordinator().Rounds()
	if it := row.Agent().Status().Iterations; rounds != uint64(steps) || it != steps {
		t.Errorf("the row counts %d rounds and reports %d iterations, want %d", rounds, it, steps)
	}
	seen := map[uint64]bool{}
	for _, r := range tr.Log().Rounds {
		if seen[r.ID] {
			t.Errorf("round ID %#x twice in the row's trace", r.ID)
		}
		seen[r.ID] = true
	}
	if uint64(len(seen)) != rounds {
		t.Errorf("%d round IDs in the row's trace, want %d", len(seen), rounds)
	}
}

// TestTierBelowFallbackTakesChild: SetBudget leases a tier down to its
// Fallback × FloorFraction, below the fallback itself. Such a tier still
// takes a new child, and the caps it grants fit the budget it holds.
func TestTierBelowFallbackTakesChild(t *testing.T) {
	const fallback = units.Watts(300)
	leased := fallback * 2 / 3
	leaves := make([]*Leaf, 3)
	ts := make([]cluster.Transport, len(leaves))
	for i := range leaves {
		leaf, err := NewLeaf(LeafConfig{Name: fmt.Sprintf("n%d", i), Max: 200, Fallback: 50, Demand: 150})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(leaf.Close)
		leaves[i], ts[i] = leaf, leaf.Transport("row")
	}
	row, err := NewTier(TierConfig{Name: "row", Budget: fallback, Fallback: fallback, LeaseTTL: time.Hour}, ts[:2])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(row.Close)
	ctx := context.Background()
	if err := row.SetBudget(ctx, leased); err != nil {
		t.Fatal(err)
	}
	if err := row.SetChildren(ts); err != nil {
		t.Fatalf("a tier leased %v under its %v fallback: %v", leased, fallback, err)
	}
	for step := 0; step < 2; step++ {
		var sum units.Watts
		for _, l := range leaves {
			sum += l.Limit()
		}
		if float64(sum) > float64(leased)+slack {
			t.Errorf("step %d: the leaves hold %v of a %v budget", step, sum, leased)
		}
		if err := row.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if leaves[2].agent.Status().Lease == nil {
		t.Error("the newcomer was not granted its share")
	}
}

// TestMembershipBelowFallbackTakesNode: a node that registers with a row
// leased below its fallback is coordinated within one interval.
func TestMembershipBelowFallbackTakesNode(t *testing.T) {
	vc := clock.NewVirtual(epoch)
	const interval = 100 * time.Millisecond
	const fallback = units.Watts(300)
	row, err := NewMembership(TierConfig{Name: "row", Budget: fallback, Fallback: fallback, Interval: interval, Clock: vc}, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer row.Close()
	addr := serve(t, row.Handler())
	for i := range 2 {
		joinLeaf(t, vc, addr, fmt.Sprintf("n%d", i), 50)
	}
	for range 3 {
		vc.Advance(interval)
	}
	if err := row.tier.SetBudget(context.Background(), fallback*2/3); err != nil {
		t.Fatal(err)
	}
	late := joinLeaf(t, vc, addr, "n2", 50)
	vc.Advance(interval)
	if st := row.ClusterStatus(); len(st.Nodes) != 3 || late.agent.Status().Lease == nil {
		t.Fatalf("one interval after n2 registered, the row coordinates %+v and n2 holds lease %+v", st.Nodes, late.agent.Status().Lease)
	}
}
