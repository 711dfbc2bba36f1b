package hierarchy

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/units"
)

// ackTimer wraps a transport and notes when its last grant returned. It
// embeds the transport, so it answers Local as the transport does.
type ackTimer struct {
	cluster.Transport
	mu    sync.Mutex
	acked time.Time
	err   error
}

func (a *ackTimer) Grant(ctx context.Context, g cluster.Grant) error {
	err := a.Transport.Grant(ctx, g)
	a.mu.Lock()
	a.acked, a.err = time.Now(), err
	a.mu.Unlock()
	return err
}

func (a *ackTimer) last() (time.Time, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.acked, a.err
}

// TestTierTransportLocal: an in-process tier is Local only while every
// child of it is, and the answer follows SetChildren. A building over two
// in-process rows, the first of which has a leaf hung behind a fault
// injector, shrinks in one wave that takes one NodeTimeout: the hung row is
// granted from a poller, so the other row acknowledges its shrink without
// waiting behind it, though it comes second in index order.
func TestTierTransportLocal(t *testing.T) {
	const (
		timeout = 200 * time.Millisecond
		budget  = units.Watts(400)
	)
	rowFallback := budget * floorFraction / 2
	var hang atomic.Bool
	leaves := make([]*Leaf, 4)
	for i := range leaves {
		leaf, err := NewLeaf(LeafConfig{Name: fmt.Sprintf("n%d", i), Max: 200, Fallback: rowFallback * floorFraction / 2, Demand: 200})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(leaf.Close)
		leaves[i] = leaf
	}
	hung := &faultTransport{
		inner: leaves[0].Transport("row0"),
		sched: fault.Schedule{{Class: fault.ClassLatency, For: time.Hour, CPU: -1, Delay: time.Hour}},
		clock: func() time.Duration {
			if hang.Load() {
				return 0
			}
			return 2 * time.Hour // past the latency window
		},
		rng: rand.New(rand.NewSource(1)),
	}
	rows := make([]*Tier, 2)
	for r, children := range [][]cluster.Transport{
		{hung, leaves[1].Transport("row0")},
		{leaves[2].Transport("row1"), leaves[3].Transport("row1")},
	} {
		row, err := NewTier(TierConfig{
			Name: fmt.Sprintf("row%d", r), Level: "row", StartAtFallback: true, Fallback: rowFallback,
			LeaseTTL: time.Hour, NodeTimeout: timeout,
		}, children)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(row.Close)
		rows[r] = row
	}
	up := []*ackTimer{{Transport: rows[0].Transport("building")}, {Transport: rows[1].Transport("building")}}
	if up[0].Local() || !up[1].Local() {
		t.Fatalf("row transports Local %v and %v, want false (a child is not Local) and true", up[0].Local(), up[1].Local())
	}
	building, err := NewTier(TierConfig{
		Name: "building", Level: "building", Budget: budget, Fallback: budget,
		LeaseTTL: time.Hour, NodeTimeout: timeout,
	}, []cluster.Transport{up[0], up[1]})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(building.Close)
	ctx := context.Background()
	for _, tier := range []*Tier{building, rows[0], rows[1]} {
		if err := tier.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}

	hang.Store(true)
	start := time.Now()
	if err := building.SetBudget(ctx, budget*3/4); err == nil {
		t.Error("the building's shrink was acknowledged, though row0 could not shrink its hung leaf")
	}
	elapsed := time.Since(start)
	hang.Store(false)
	hungAck, hungErr := up[0].last()
	ack, err := up[1].last()
	if hungErr == nil || err != nil {
		t.Fatalf("row0's shrink: %v, row1's: %v; want row0's to fail and row1's to land", hungErr, err)
	}
	if !ack.Before(hungAck) {
		t.Errorf("row1 acknowledged %v after the hung row0 answered: it waited behind it", ack.Sub(hungAck))
	}
	if b := rows[1].Coordinator().Budget(); b != budget*3/8 {
		t.Errorf("row1 holds a budget of %v after its shrink, want %v", b, budget*3/8)
	}
	if caps := leaves[2].Limit() + leaves[3].Limit(); caps > budget*3/8+1e-6 {
		t.Errorf("row1's leaves hold %v, over its shrunk budget", caps)
	}
	// Generous above (a loaded box), exact below: the hung row holds the
	// wave to its one deadline.
	if elapsed < timeout || elapsed > 2*timeout {
		t.Errorf("the building's shrink wave took %v, want one NodeTimeout, %v", elapsed, timeout)
	}

	if err := rows[0].SetChildren([]cluster.Transport{leaves[0].Transport("row0"), leaves[1].Transport("row0")}); err != nil {
		t.Fatal(err)
	}
	if !up[0].Local() {
		t.Error("row0's transport is not Local once every child of it is")
	}
}

// TestRenewalGrantAllocs: renewing an in-process leaf's lease allocates
// nothing — no ack on the heap, no timer.
func TestRenewalGrantAllocs(t *testing.T) {
	leaf, err := NewLeaf(LeafConfig{Name: "n0", Max: 100, Fallback: 25})
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()
	tr, ctx := leaf.Transport("row"), context.Background()
	g := cluster.Grant{Limit: 50, TTL: time.Hour, Fallback: 25}
	if err := tr.Grant(ctx, g); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := tr.Grant(ctx, g); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("an in-process renewal: %v allocs, want 0", allocs)
	}
}

// grantCounter counts the grants sent through a Local transport.
type grantCounter struct {
	cluster.Transport
	n *int
}

func (g *grantCounter) Grant(ctx context.Context, gr cluster.Grant) error {
	*g.n++
	return g.Transport.Grant(ctx, gr)
}

// TestRowGrantWaveAllocs: a row's shrink wave and grow wave cost what they
// cost whatever the number of leaves — a grant to an in-process leaf
// allocates nothing. Each run shrinks the row's budget (a shrink wave),
// grows it back, and steps (a report wave, then a grow wave).
func TestRowGrantWaveAllocs(t *testing.T) {
	cost := func(k int) float64 {
		sent := 0
		fallback := units.Watts(40 * k)
		ts := make([]cluster.Transport, k)
		for i := range ts {
			leaf, err := NewLeaf(LeafConfig{Name: fmt.Sprintf("n%d", i), Max: 100, Fallback: 20, Demand: 100})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(leaf.Close)
			ts[i] = &grantCounter{Transport: leaf.Transport("row"), n: &sent}
		}
		row, err := NewTier(TierConfig{Name: "row", Level: "row", Budget: 2 * fallback, Fallback: fallback, LeaseTTL: time.Hour}, ts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(row.Close)
		ctx := context.Background()
		shrink := func() {
			if err := row.SetBudget(ctx, fallback*3/2); err != nil {
				t.Fatal(err)
			}
		}
		grow := func() {
			if err := row.SetBudget(ctx, 2*fallback); err != nil {
				t.Fatal(err)
			}
			if err := row.Step(ctx); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			shrink()
			grow()
		}
		// Every leaf is granted in both waves.
		sent = 0
		shrink()
		grow()
		if got := sent; got != 2*k {
			t.Fatalf("%d leaves: a shrink and a grow sent %v grants, want %d", k, got, 2*k)
		}
		return testing.AllocsPerRun(50, func() { shrink(); grow() })
	}
	small, large := cost(8), cost(32)
	t.Logf("a row's shrink and grow waves: %v allocs at 8 leaves, %v at 32", small, large)
	if large > small {
		t.Errorf("32 leaves cost %v allocs against %v at 8: a grant to an in-process leaf allocates", large, small)
	}
}
