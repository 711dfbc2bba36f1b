package hierarchy

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/flight"
	"repro/internal/units"
)

// epoch is where the tests' virtual clocks start.
var epoch = time.Unix(0, 0)

// virtualRun is a virtual clock and a flight recorder whose event times
// are read from it.
func virtualRun(capacity int) (*clock.Virtual, *flight.Recorder) {
	vc := clock.NewVirtual(epoch)
	rec := flight.New(capacity)
	rec.SetClock(func() time.Duration { return since(vc) })
	return vc, rec
}

// since is the virtual time elapsed on vc.
func since(vc *clock.Virtual) time.Duration { return vc.Now().Sub(epoch) }

// refusable is a child transport whose grants fail while refusing is set:
// a child that cannot acknowledge a shrink.
type refusable struct {
	cluster.Transport
	refusing bool
}

func (r *refusable) Grant(ctx context.Context, g cluster.Grant) error {
	if r.refusing {
		return fmt.Errorf("%s: grant refused", r.Name())
	}
	return r.Transport.Grant(ctx, g)
}

// TestRowRefusingShrinkClampsAtItsDeadline: a row that cannot get a
// building's shrink acknowledged below it refuses the lease, and that
// refusal changes nothing the row holds: it keeps the budget of its last
// applied lease until that lease's deadline, and clamps to its fallback
// exactly then — the instant the building writes it off.
func TestRowRefusingShrinkClampsAtItsDeadline(t *testing.T) {
	vc, rec := virtualRun(1 << 12)
	const ttl = 100 * time.Millisecond
	budget := units.Watts(400)
	rowFallback := budget * floorFraction / 2
	var leaves []*Leaf
	var stuck *refusable
	uplinks := make([]cluster.Transport, 2)
	var rows []*Tier
	for r := range 2 {
		ts := make([]cluster.Transport, 2)
		for j := range ts {
			leaf, err := NewLeaf(LeafConfig{
				Name: fmt.Sprintf("n%d", 2*r+j), NodeID: int16(2*r + j + 1), Max: 200,
				Fallback: rowFallback * floorFraction / 2, Demand: 200, Flight: rec, Clock: vc,
			})
			if err != nil {
				t.Fatal(err)
			}
			leaves = append(leaves, leaf)
			ts[j] = leaf.Transport(fmt.Sprintf("row%d", r))
		}
		if r == 0 {
			stuck = &refusable{Transport: ts[0]}
			ts[0] = stuck
		}
		row, err := NewTier(TierConfig{
			Name: fmt.Sprintf("row%d", r), Level: "row", NodeID: int16(10 + r),
			StartAtFallback: true, Fallback: rowFallback,
			LeaseTTL: ttl, Flight: rec, Clock: vc,
		}, ts)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
		uplinks[r] = row.Transport("building")
	}
	root, err := NewTier(TierConfig{
		Name: "building", Level: "building", NodeID: 20, Budget: budget, Fallback: budget,
		LeaseTTL: ttl, Flight: rec, Clock: vc,
	}, uplinks)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		root.Close()
		for _, r := range rows {
			r.Close()
		}
		for _, l := range leaves {
			l.Close()
		}
	}()

	// Rows grow into the building's equal split, and their leaves into it.
	ctx := context.Background()
	for _, tier := range []*Tier{rows[0], rows[1], root} {
		if err := tier.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	held := rows[0].Coordinator().Budget()
	if held <= rowFallback {
		t.Fatalf("row0 holds %v, no more than its %v fallback: nothing to refuse", held, rowFallback)
	}

	// Half a TTL on, one of row0's leaves stops acknowledging grants and
	// the building shrinks to its floors.
	vc.Advance(ttl / 2)
	stuck.refusing = true
	if err := root.SetBudget(ctx, 2*rowFallback); err == nil {
		t.Fatal("the building's shrink was acknowledged, though row0 could not pass it on")
	}
	if got := rows[0].Coordinator().Budget(); got != held {
		t.Fatalf("row0 budget %v after refusing the shrink, want its lease's %v", got, held)
	}

	var deadline time.Duration // of row0's last applied lease
	for _, e := range rec.Dump("refuse").Events {
		if e.Kind == flight.KindLease && e.Core == 10 && (e.Arg == flight.LeaseGrant || e.Arg == flight.LeaseRenew) {
			deadline = e.Time + time.Duration(e.Aux)
		}
	}
	if deadline == 0 {
		t.Fatal("row0 never applied a lease")
	}
	if vc.Advance(deadline - since(vc) - 1); rows[0].Coordinator().Budget() != held {
		t.Fatalf("row0 budget %v just before its lease's deadline, want %v", rows[0].Coordinator().Budget(), held)
	}
	vc.Advance(1)
	if got := rows[0].Coordinator().Budget(); got != rowFallback {
		t.Fatalf("row0 budget %v at its lease's deadline, want its %v fallback", got, rowFallback)
	}
	var fellBack time.Duration
	for _, e := range rec.Dump("refuse").Events {
		if e.Kind == flight.KindLease && e.Core == 10 && e.Arg == flight.LeaseFallback {
			fellBack = e.Time
		}
	}
	if fellBack != deadline {
		t.Fatalf("row0 fell back at %v, want at its lease's deadline %v", fellBack, deadline)
	}
}

// detTick is one round of the determinism script; the leaves' lease TTL
// is not a multiple of it, so no leaf's deadline meets its row's.
const (
	detTick     = 10 * time.Millisecond
	detRowTTL   = 60 * time.Millisecond
	detLeafTTL  = 35 * time.Millisecond
	detRounds   = 40
	detRowsKill = 24 // row 1 dies for rounds [detRowsKill, detRowsKill+10)
)

// detRun drives a seeded two-row tree through budget changes, a leaf
// death, the leaf's removal and return, and a row's death, entirely on a
// virtual clock, and returns each node's flight events in order with Seq
// and Wall cleared.
func detRun(t *testing.T, seed int64) map[int16][]flight.Event {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vc, rec := virtualRun(1 << 16)
	const perRow = 3
	budget := units.Watts(100 * 2 * perRow)
	rowFallback := budget * floorFraction / 2
	// Offline windows: leaf n1 from round 8 for 10 rounds, row1's uplink
	// while it is dead. Transport index 0..5 are the leaves, 6 and 7 the
	// uplinks.
	sched := fault.Schedule{
		{At: 8 * detTick, For: 10 * detTick, Class: fault.ClassOffline, CPU: 1},
		{At: detRowsKill * detTick, For: 10 * detTick, Class: fault.ClassOffline, CPU: 7},
	}
	wrap := func(tr cluster.Transport, idx int) cluster.Transport {
		return &faultTransport{inner: tr, idx: idx, sched: sched, clock: func() time.Duration { return since(vc) }}
	}
	var leaves []*Leaf
	rowTs := make([][]cluster.Transport, 2)
	for i := range 2 * perRow {
		leaf, err := NewLeaf(LeafConfig{
			Name: fmt.Sprintf("n%d", i), NodeID: int16(i + 1), Max: 200,
			Fallback: rowFallback * floorFraction / perRow, Demand: units.Watts(40 + rng.Intn(150)),
			Flight: rec, Clock: vc,
		})
		if err != nil {
			t.Fatal(err)
		}
		leaves = append(leaves, leaf)
		rowTs[i/perRow] = append(rowTs[i/perRow], wrap(leaf.Transport(fmt.Sprintf("row%d", i/perRow)), i))
	}
	var rows []*Tier
	uplinks := make([]cluster.Transport, 2)
	for r := range 2 {
		row, err := NewTier(TierConfig{
			Name: fmt.Sprintf("row%d", r), Level: "row", NodeID: int16(10 + r),
			StartAtFallback: true, Fallback: rowFallback, LeaseTTL: detLeafTTL,
			QuarantineAfter: 2, Flight: rec, Clock: vc,
		}, rowTs[r])
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
		uplinks[r] = wrap(row.Transport("building"), 6+r)
	}
	root, err := NewTier(TierConfig{
		Name: "building", Level: "building", NodeID: 20, Budget: budget, Fallback: budget,
		LeaseTTL: detRowTTL, Flight: rec, Clock: vc,
	}, uplinks)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		root.Close()
		for _, r := range rows {
			r.Close()
		}
		for _, l := range leaves {
			l.Close()
		}
	}()

	ctx := context.Background()
	for round := range detRounds {
		if round > 0 {
			vc.Advance(detTick)
		}
		leaves[rng.Intn(len(leaves))].SetDemand(units.Watts(40 + rng.Intn(150)))
		switch round {
		case 6:
			// A shrink the rows can pass on, and later a growth back.
			if err := root.SetBudget(ctx, budget*3/4); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		case 14:
			if err := root.SetBudget(ctx, budget); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		case 16:
			// Row 0 writes off its dead leaf, and takes it back later.
			if err := rows[0].SetChildren([]cluster.Transport{rowTs[0][0], rowTs[0][2]}); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		case 20:
			if err := rows[0].SetChildren(rowTs[0]); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		for r, row := range rows {
			if r == 1 && round >= detRowsKill && round < detRowsKill+10 {
				continue // row 1 is dead: it neither steps nor answers
			}
			if err := row.Step(ctx); err != nil {
				t.Fatalf("round %d row %d: %v", round, r, err)
			}
		}
		if err := root.Step(ctx); err != nil {
			t.Fatalf("round %d root: %v", round, err)
		}
	}
	vc.Advance(2 * detRowTTL)

	byNode := map[int16][]flight.Event{}
	for _, e := range rec.Dump("det").Events {
		e.Seq, e.Wall = 0, 0
		byNode[e.Core] = append(byNode[e.Core], e)
	}
	return byNode
}

// TestDeterministicTreeRun: the same seeded script on the virtual clock —
// budget shrink and growth, a leaf that dies, is written off and
// re-admitted, a row that dies and whose lease lapses — gives every node
// the same flight events twice, to the nanosecond of virtual time. A
// concurrent grant wave may interleave nodes in the shared log, so each
// node's events are compared in its own order.
func TestDeterministicTreeRun(t *testing.T) {
	const seed = 7
	first, second := detRun(t, seed), detRun(t, seed)
	if !reflect.DeepEqual(first, second) {
		for id, evs := range first {
			if !reflect.DeepEqual(evs, second[id]) {
				t.Errorf("node %d: %d events, then %d; first run:\n%v\nsecond run:\n%v", id, len(evs), len(second[id]), evs, second[id])
			}
		}
		t.FailNow()
	}
	// The script reached what it claims to: leases lapsed into fallback
	// at the dead leaf, the dead row, and the dead row's leaves.
	fellBack := map[int16]bool{}
	for id, evs := range first {
		for _, e := range evs {
			fellBack[id] = fellBack[id] || e.Kind == flight.KindLease && e.Arg == flight.LeaseFallback
		}
	}
	for _, id := range []int16{2, 11, 4, 5, 6} {
		if !fellBack[id] {
			t.Errorf("node %d never fell back; fell back: %v", id, fellBack)
		}
	}
}
