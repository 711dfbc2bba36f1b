package hierarchy

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/units"
)

const watt = units.Watts(1)

// slack absorbs float rounding in watt-sum comparisons.
const slack = 1e-6

func newTestTree(t *testing.T, cfg SimTreeConfig) *SimTree {
	t.Helper()
	tree, err := NewSimTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tree.Close)
	return tree
}

func TestTreeCascadesBudgetDown(t *testing.T) {
	tree := newTestTree(t, SimTreeConfig{
		Leaves:   16,
		Rows:     4,
		Budget:   1600 * watt,
		LeaseTTL: time.Minute, // no expiry during the test
	})
	ctx := context.Background()

	// Construction alone grants each row an equal split of the building
	// budget, which each row's coordinator re-cascades over its leaves.
	for i, row := range tree.Rows {
		b := row.Coordinator().Budget()
		if math.Abs(float64(b-400*watt)) > slack {
			t.Errorf("row %d budget %v after initial wave, want 400", i, b)
		}
	}

	for round := 0; round < 3; round++ {
		if err := tree.Step(ctx); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}

	// Conservation: the caps the leaves actually enforce stay within the
	// building budget.
	if caps := tree.TotalLeafCaps(); float64(caps) > float64(tree.Root.Coordinator().Budget())+slack {
		t.Errorf("leaf caps %v exceed building budget %v", caps, tree.Root.Coordinator().Budget())
	}

	// Demand flows: every leaf demanded 90 W and should hold close to
	// its 100 W equal share after the waterfill rounds.
	for i, l := range tree.Leaves {
		if l.Limit() < 80*watt {
			t.Errorf("leaf %d limit %v, want ≥ 80 W of its 100 W share", i, l.Limit())
		}
	}

	// The root's aggregate sees the whole subtree.
	agg := tree.Root.Coordinator().Aggregate()
	if agg.Leaves != 16 {
		t.Errorf("root aggregate sees %d leaves, want 16", agg.Leaves)
	}
	if agg.Depth != 2 {
		t.Errorf("root aggregate depth %d, want 2", agg.Depth)
	}
	if agg.Children != 4 {
		t.Errorf("root aggregate children %d, want 4", agg.Children)
	}
}

func TestTreeOverHTTPUplinks(t *testing.T) {
	tree := newTestTree(t, SimTreeConfig{
		Leaves:      8,
		Rows:        2,
		Budget:      800 * watt,
		LeaseTTL:    time.Minute,
		HTTPUplinks: true,
		Trace:       true,
	})
	ctx := context.Background()
	for round := 0; round < 3; round++ {
		if err := tree.Step(ctx); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if caps := tree.TotalLeafCaps(); float64(caps) > float64(800)+slack {
		t.Errorf("leaf caps %v exceed building budget 800", caps)
	}
	agg := tree.Root.Coordinator().Aggregate()
	if agg.Leaves != 8 || agg.Depth != 2 {
		t.Errorf("root aggregate %+v, want 8 leaves at depth 2", agg)
	}
	logs := tree.Logs()
	if len(logs) != 3 {
		t.Fatalf("%d trace logs, want 3 (building + 2 rows)", len(logs))
	}
	// Round-ID namespaces must be disjoint: every row round carries its
	// coordinator's base in the top 32 bits.
	for _, log := range logs {
		for _, r := range log.Rounds {
			if r.ID>>32 == 0 {
				t.Fatalf("round %d in %s log lacks a namespace", r.ID, log.Origin)
			}
		}
	}
}

// A shrink at the building must not report success until the leaves'
// acknowledged caps fit under the new budget — and must hold the caps
// the tree enforces under the shrunk figure afterwards.
func TestTreeShrinkCascades(t *testing.T) {
	tree := newTestTree(t, SimTreeConfig{
		Leaves:   8,
		Rows:     2,
		Budget:   800 * watt,
		LeaseTTL: time.Minute,
	})
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		if err := tree.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Root.SetBudget(ctx, 500*watt); err != nil {
		t.Fatalf("shrink to 500 W: %v", err)
	}
	if caps := tree.TotalLeafCaps(); float64(caps) > 500+slack {
		t.Errorf("leaf caps %v exceed shrunk budget 500", caps)
	}
	// Below the floor sum the shrink must refuse outright.
	if err := tree.Root.SetBudget(ctx, 100*watt); err == nil {
		t.Error("shrink below the floor sum accepted")
	}
}

// TestConvergedRoundAllocs gates what a quiet round costs per leaf: nothing.
// Once every lease is granted and the plan has settled, a tree round is one
// status report per child and nothing else. An in-process leaf's report
// fills the frame its transport owns, and the row keeps only what it
// aggregates, so 1,024 leaves over 16 rows must cost what 256 over 16 rows
// cost, in allocations and in bytes, within a small constant. A report that
// builds its frame afresh (Agent.Status) costs 240 bytes a leaf: 768
// allocations and 180 KB over the 768 extra leaves.
func TestConvergedRoundAllocs(t *testing.T) {
	const rows = 16
	const slackAllocs, slackBytes = 16, 4 << 10
	small := convergedRoundCost(t, 256, rows)
	large := convergedRoundCost(t, 1024, rows)
	t.Logf("a converged round: %.0f allocs, %.0f B at 256 leaves; %.0f allocs, %.0f B at 1024",
		small.allocs, small.bytes, large.allocs, large.bytes)
	if large.allocs > small.allocs+slackAllocs {
		t.Errorf("1024 leaves cost %.0f allocs a round against %.0f at 256: a quiet leaf report allocates",
			large.allocs, small.allocs)
	}
	if large.bytes > small.bytes+slackBytes {
		t.Errorf("1024 leaves cost %.0f B a round against %.0f at 256: a quiet leaf report allocates",
			large.bytes, small.bytes)
	}
}

// roundCost is what one tree round allocates, averaged over many.
type roundCost struct{ allocs, bytes float64 }

// convergedRoundCost builds an in-process tree, lets it converge and
// measures its rounds.
func convergedRoundCost(t *testing.T, leaves, rows int) roundCost {
	t.Helper()
	tree := newTestTree(t, SimTreeConfig{
		Leaves: leaves, Rows: rows, Budget: units.Watts(leaves) * 100,
		LeaseTTL: time.Hour, Retries: -1,
	})
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if err := tree.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 50
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		if err := tree.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	return roundCost{
		allocs: float64(m1.Mallocs-m0.Mallocs) / rounds,
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / rounds,
	}
}

// TestConvergedUplinkAllocs gates what a quiet building round costs per
// HTTP uplink: one keep-alive GET, a status frame encoded into a pooled
// buffer on the row's side and decoded in one pass on the building's, and
// a poller whose goroutine already exists. A bare net/http GET of the
// same size is 71 allocations on this toolchain; the rest is ours.
func TestConvergedUplinkAllocs(t *testing.T) {
	const leaves, rows = 256, 16
	// Measured 86. With the status frame back on encoding/json in both
	// directions it reads 109; with a goroutine, a parsed URL and an
	// io.ReadAll per poll as well, 124.
	const maxAllocsPerUplink = 100
	tree := newTestTree(t, SimTreeConfig{
		Leaves: leaves, Rows: rows, Budget: leaves * 100,
		LeaseTTL: time.Hour, Retries: -1, HTTPUplinks: true,
	})
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if err := tree.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	perRound := testing.AllocsPerRun(50, func() {
		if err := tree.StepRoot(ctx); err != nil {
			t.Fatal(err)
		}
	})
	perUplink := perRound / rows
	t.Logf("%.0f allocs a converged building round, %.1f per uplink", perRound, perUplink)
	if perUplink > maxAllocsPerUplink {
		t.Errorf("converged building round: %.1f allocs per uplink, want at most %v", perUplink, maxAllocsPerUplink)
	}
}
