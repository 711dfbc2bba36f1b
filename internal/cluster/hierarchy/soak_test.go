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
	"repro/internal/units"
)

// TestMidTierSoak hammers one mid-tier coordinator with everything that
// can happen to it at once: a driver stepping grant waves as fast as
// they complete, a parent oscillating its budget up and down, and an
// operator churning children through drain → removal → re-admission —
// for ≥10k rounds. Run under -race (CI does) this is the hierarchy's
// concurrency soak; the invariant checked at every budget commit and at
// the end is the same tier conservation the property test replays:
// attached children's enforced caps fit the tier's budget, detached
// ones sit at their fallback.
func TestMidTierSoak(t *testing.T) {
	const (
		nLeaves = 8
		rounds  = 10_000
	)
	budget := units.Watts(800)
	rowFallback := budget * floorFraction             // what the row reverts to
	fallback := rowFallback * floorFraction / nLeaves // 25 W per leaf

	leaves := make([]*Leaf, nLeaves)
	ts := make([]cluster.Transport, nLeaves)
	for i := range leaves {
		leaf, err := NewLeaf(LeafConfig{
			Name:     fmt.Sprintf("n%d", i),
			NodeID:   int16(i + 1),
			Max:      200,
			Fallback: fallback,
			Demand:   90,
		})
		if err != nil {
			t.Fatal(err)
		}
		leaves[i] = leaf
		ts[i] = leaf.Transport("row")
	}
	defer func() {
		for _, l := range leaves {
			l.Close()
		}
	}()

	row, err := NewTier(TierConfig{
		Name:     "row",
		Level:    "row",
		NodeID:   nLeaves + 1,
		Budget:   budget,
		Fallback: rowFallback,
		LeaseTTL: time.Minute,
	}, ts)
	if err != nil {
		t.Fatal(err)
	}
	defer row.Close()

	ctx := context.Background()
	var done atomic.Bool
	var wg sync.WaitGroup
	// still holds the tier still: each goroutine takes it around what it
	// does to the tier, and the budget goroutine around its snapshot too.
	var still sync.Mutex

	// Parent-side budget oscillation: grow/shrink between 60% and 100%.
	// A refused shrink is legitimate under churn — a draining child
	// cannot acknowledge, so the old budget stays committed — but
	// whatever IS committed when SetBudget returns must already bound
	// the enforced caps. One leaf may be mid-churn detached; its
	// fallback floor rides outside the tier's budget until re-admission
	// (de-admission hands that floor back to the building), hence the
	// one-fallback allowance.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for !done.Load() {
			b := budget * units.Watts(0.6+0.4*rng.Float64())
			still.Lock()
			err := row.SetBudget(ctx, b)
			// The committed budget and the eight caps are one snapshot only
			// with the tier held still: shrink-before-grow keeps the sum
			// bounded at every instant, but a reader racing a wave can see
			// one leaf before its shrink and another after its grow, and
			// count the moved watts twice.
			committed := row.Coordinator().Budget()
			var sum units.Watts
			for _, l := range leaves {
				sum += l.Limit()
			}
			still.Unlock()
			if err == nil && committed != b {
				t.Errorf("soak: SetBudget(%v) reported success but committed %v", b, committed)
				return
			}
			if float64(sum) > float64(committed+fallback)+slack {
				t.Errorf("soak: leaf caps %v exceed committed budget %v (+1 detached fallback %v)", sum, committed, fallback)
				return
			}
		}
	}()

	// Child churn: drain a random leaf, drop it from the tier, then
	// re-admit it. SetChildren's shrinks before grows, against the leases
	// the survivors keep, are what keep the changes from transiently
	// over-committing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		for !done.Load() {
			i := rng.Intn(nLeaves)
			if _, err := leaves[i].agent.SetDrain(true); err != nil {
				t.Errorf("soak drain: %v", err)
				return
			}
			without := make([]cluster.Transport, 0, nLeaves-1)
			for j, tr := range ts {
				if j != i {
					without = append(without, tr)
				}
			}
			still.Lock()
			err := row.SetChildren(without)
			still.Unlock()
			if err != nil {
				t.Errorf("soak SetChildren(-1): %v", err)
				return
			}
			// While detached, the drained leaf must idle at its fallback.
			if got := leaves[i].Limit(); float64(got) > float64(fallback)+slack {
				t.Errorf("soak: drained leaf %d holds %v > fallback %v", i, got, fallback)
				return
			}
			if _, err := leaves[i].agent.SetDrain(false); err != nil {
				t.Errorf("soak undrain: %v", err)
				return
			}
			still.Lock()
			err = row.SetChildren(ts)
			still.Unlock()
			if err != nil {
				t.Errorf("soak SetChildren(+1): %v", err)
				return
			}
		}
	}()

	// The stepping loop: grant waves back to back.
	for r := 0; r < rounds; r++ {
		still.Lock()
		err := row.Step(ctx)
		still.Unlock()
		if err != nil {
			t.Fatalf("soak round %d: %v", r, err)
		}
	}
	done.Store(true)
	wg.Wait()
	// Child changes leave the row's round counter running.
	if got := row.Coordinator().Rounds(); got != rounds {
		t.Errorf("the row counts %d rounds, the loop stepped %d", got, rounds)
	}

	if t.Failed() {
		return
	}
	// Settle: every leaf attached, no drain, one last wave — then the
	// end state must show full conservation and a working waterfill.
	if err := row.SetChildren(ts); err != nil {
		t.Fatal(err)
	}
	if err := row.SetBudget(ctx, budget); err != nil {
		t.Fatal(err)
	}
	if err := row.Step(ctx); err != nil {
		t.Fatal(err)
	}
	var sum units.Watts
	for _, l := range leaves {
		sum += l.Limit()
	}
	if float64(sum) > float64(budget)+slack {
		t.Errorf("after soak: leaf caps %v exceed budget %v", sum, budget)
	}
	for i, l := range leaves {
		if l.Limit() < fallback-slack {
			t.Errorf("after soak: leaf %d cap %v below its floor %v", i, l.Limit(), fallback)
		}
	}
}
