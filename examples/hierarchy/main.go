// Hierarchy: a thousand-node fleet coordinated as building → rows → leaves.
//
// 1024 simulated leaves sit under 32 row coordinators under one
// building. Each row runs the ordinary room coordinator over its leaves
// in-process and presents itself upward as a single synthetic node; the
// building polls the 32 rows over loopback HTTP with delta-encoded
// status and cascades its budget downward as TTL'd leases. The run
// shows the three claims that make the hierarchy worth its extra tier:
// a full-tree round costs milliseconds where a flat poll of 1024 HTTP
// nodes would cost a round-trip per node; demand skew in one row pulls
// budget across tiers without any coordinator seeing more than its own
// children; and a building-level budget cut propagates to every leaf
// while Σ leaf caps stays inside the budget at each step.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/cluster/hierarchy"
	"repro/internal/tracing"
	"repro/internal/units"
)

func main() {
	run(os.Stdout)
}

// run builds the tree, drives it and reports to w.
func run(w io.Writer) {
	const (
		leaves = 1024
		rows   = 32
		budget = units.Watts(30 * leaves) // 30.7 kW building budget
	)
	tree, err := hierarchy.NewSimTree(hierarchy.SimTreeConfig{
		Leaves:      leaves,
		Rows:        rows,
		Budget:      budget,
		LeaseTTL:    time.Hour,
		Retries:     -1,
		HTTPUplinks: true,
		Trace:       true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer tree.Close()
	ctx := context.Background()

	fmt.Fprintf(w, "tree: %d leaves / %d rows / 1 building, budget %.0f W\n\n", leaves, rows, float64(budget))

	step := func(label string) {
		t0 := time.Now()
		if err := tree.Step(ctx); err != nil {
			log.Fatal(err)
		}
		wall := time.Since(t0)
		var rowSum units.Watts
		for _, r := range tree.Rows {
			rowSum += r.Coordinator().Budget()
		}
		fmt.Fprintf(w, "%-28s round %6.2f ms   Σ row budgets %8.1f W   Σ leaf caps %8.1f W\n",
			label, float64(wall)/1e6, float64(rowSum), float64(tree.TotalLeafCaps()))
	}

	for i := 1; i <= 3; i++ {
		step(fmt.Sprintf("steady round %d", i))
	}

	// Row 0's leaves heat up; everyone else idles down. The rows see only
	// their own leaves, the building sees only 32 aggregates — yet budget
	// drains from 31 cold rows into the hot one.
	hot := tree.RowLeaves[0]
	for _, l := range hot {
		l.SetDemand(2 * budget / units.Watts(leaves))
	}
	for _, rl := range tree.RowLeaves[1:] {
		for _, l := range rl {
			l.SetDemand(budget / units.Watts(leaves) / 4)
		}
	}
	before := tree.Rows[0].Coordinator().Budget()
	for i := 1; i <= 3; i++ {
		step(fmt.Sprintf("skew round %d", i))
	}
	after := tree.Rows[0].Coordinator().Budget()
	fmt.Fprintf(w, "\nhot row budget: %.1f W -> %.1f W (+%.0f%%)\n\n", float64(before), float64(after), (float64(after/before)-1)*100)

	// A building-level cut: the shrink wave cascades tier by tier, and
	// only what every child acknowledges is committed.
	cut := budget * 3 / 4
	if err := tree.Root.SetBudget(ctx, cut); err != nil {
		log.Fatal(err)
	}
	step(fmt.Sprintf("after cut to %.0f W", float64(cut)))

	// The tracers of all 33 coordinators join into one cross-tier
	// timeline — the same view `powerdump -view merged` renders from
	// /debug/rounds dumps of a live tree.
	logs := tree.Logs()
	tl := tracing.MergeTree(logs[0], logs[1:])
	fmt.Fprintf(w, "\nmerged timeline: root %q coordinated %d rounds over %d children; %d row sub-timelines\n",
		tl.Coordinator, len(tl.Rounds), len(tl.Rounds[len(tl.Rounds)-1].Nodes), len(tl.Tiers))
	sub := tl.Tiers[0]
	fmt.Fprintf(w, "  tier %q: %d rounds over %d leaves\n", sub.Coordinator, len(sub.Rounds), len(sub.Rounds[len(sub.Rounds)-1].Nodes))
}
