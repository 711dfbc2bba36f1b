package hierarchy

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/flight"
	"repro/internal/tracing"
	"repro/internal/units"
)

// flakyUplink fronts a row agent's handler with switchable faults: fail
// answers 503 (a partition the coordinator sees as an erred report —
// a merge gap), delay stalls every request (a straggler).
type flakyUplink struct {
	inner http.Handler
	fail  atomic.Bool
	delay atomic.Int64 // nanoseconds
}

func (u *flakyUplink) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d := time.Duration(u.delay.Load()); d > 0 {
		time.Sleep(d)
	}
	if u.fail.Load() {
		http.Error(w, "injected partition", http.StatusServiceUnavailable)
		return
	}
	u.inner.ServeHTTP(w, r)
}

// TestBuildingDeathCascade kills the building — it simply stops
// granting — and verifies the paper's fallback cascade end to end from
// the flight recorder: every row reverts to its fallback cap exactly one
// lease TTL after its last grant, and every row's leaves fit under that
// fallback within two. Every tier reads one virtual clock. The same run
// exercises powerdump's merge rules on the cross-tier trace: a
// partitioned row shows up as gap rounds, a delayed row as the straggler.
func TestBuildingDeathCascade(t *testing.T) {
	const (
		rows    = 3
		perRow  = 3
		nLeaves = rows * perRow
	)
	budget := 900 * watt
	rowFallback := budget * floorFraction / rows         // 150 W
	leafFallback := rowFallback * floorFraction / perRow // 25 W
	ttl := 150 * time.Millisecond

	vc, rec := virtualRun(1 << 14)
	rootTracer := tracing.New("building", 0)

	var (
		leaves   []*Leaf
		rowTiers []*Tier
		rowIDs   []int16
		rowKids  = make(map[int16][]int16)
		tracers  []*tracing.Tracer
		uplinks  []cluster.Transport
		flaky    []*flakyUplink
	)
	defer func() {
		for _, l := range leaves {
			l.Close()
		}
		for _, r := range rowTiers {
			r.Close()
		}
	}()

	nodeID := int16(0)
	nextID := func() int16 { nodeID++; return nodeID }
	for r := 0; r < rows; r++ {
		rowName := fmt.Sprintf("row%d", r)
		ts := make([]cluster.Transport, 0, perRow)
		var kids []int16
		for j := 0; j < perRow; j++ {
			id := nextID()
			leaf, err := NewLeaf(LeafConfig{
				Name:     fmt.Sprintf("n%d", r*perRow+j),
				NodeID:   id,
				Max:      200,
				Fallback: leafFallback,
				Demand:   110,
				Flight:   rec,
				Clock:    vc,
			})
			if err != nil {
				t.Fatal(err)
			}
			leaves = append(leaves, leaf)
			kids = append(kids, id)
			ts = append(ts, leaf.Transport(rowName))
		}
		id := nextID()
		tr := tracing.New(rowName, 0)
		tracers = append(tracers, tr)
		row, err := NewTier(TierConfig{
			Name: rowName, Level: "row", NodeID: id,
			StartAtFallback: true, Fallback: rowFallback,
			LeaseTTL: ttl, NodeTimeout: time.Second,
			Flight: rec, Tracer: tr, Clock: vc,
		}, ts)
		if err != nil {
			t.Fatal(err)
		}
		rowTiers = append(rowTiers, row)
		rowIDs = append(rowIDs, id)
		rowKids[id] = kids

		fu := &flakyUplink{inner: row.Agent().Handler()}
		flaky = append(flaky, fu)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: fu}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		uplinks = append(uplinks, cluster.NewHTTPNode(rowName, ln.Addr().String(), "building"))
	}

	root, err := NewTier(TierConfig{
		Name: "building", Level: "building", NodeID: nextID(),
		Budget: budget, Fallback: budget,
		LeaseTTL: ttl, NodeTimeout: time.Second,
		Flight: rec, Tracer: rootTracer, Clock: vc,
	}, uplinks)
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()

	// Healthy rounds, with a partition window on row1 (gap rounds in the
	// merged timeline) and a latency window on row2 (the straggler).
	ctx := context.Background()
	const healthyRounds = 12
	for round := 0; round < healthyRounds; round++ {
		flaky[1].fail.Store(round == 4 || round == 5)
		if round >= 8 && round < 11 {
			flaky[2].delay.Store(int64(30 * time.Millisecond))
		} else {
			flaky[2].delay.Store(0)
		}
		for _, row := range rowTiers {
			if err := row.Step(ctx); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if err := root.Step(ctx); err != nil {
			t.Fatalf("round %d root: %v", round, err)
		}
		vc.Advance(10 * time.Millisecond)
	}

	// The building dies: no more grants. Rows keep their own loops
	// running — the cascade is driven purely by lease expiry.
	for elapsed := time.Duration(0); elapsed < 3*ttl; elapsed += 10 * time.Millisecond {
		for _, row := range rowTiers {
			if err := row.Step(ctx); err != nil {
				t.Fatal(err)
			}
		}
		vc.Advance(10 * time.Millisecond)
	}

	// End state: every row clamped to its fallback, leaves fit under it.
	for r, row := range rowTiers {
		if b := row.Coordinator().Budget(); float64(b) > float64(rowFallback)+slack {
			t.Errorf("row %d budget %v after building death, want fallback %v", r, b, rowFallback)
		}
		var sum units.Watts
		for j := 0; j < perRow; j++ {
			sum += leaves[r*perRow+j].Limit()
		}
		if float64(sum) > float64(rowFallback)+slack {
			t.Errorf("row %d leaves hold %v > row fallback %v", r, sum, rowFallback)
		}
	}

	// Replay the cascade timing from the flight recorder.
	events := rec.Dump("cascade").Events
	sort.Slice(events, func(i, j int) bool { return events[i].Seq < events[j].Seq })
	type leaseEnd struct {
		deadline time.Duration // last grant's expiry
		fellBack time.Duration // when the fallback was enforced
	}
	rowLease := make(map[int16]*leaseEnd, rows)
	for _, id := range rowIDs {
		rowLease[id] = &leaseEnd{}
	}
	caps := make(map[int16]float64)
	for _, id := range rowIDs {
		for _, kid := range rowKids[id] {
			caps[kid] = float64(leafFallback) * 1e6
		}
	}
	leafBound := float64(rowFallback) * 1e6 * 1.000001
	for _, e := range events {
		if e.Kind != flight.KindLease {
			continue
		}
		if le, ok := rowLease[e.Core]; ok {
			switch e.Arg {
			case flight.LeaseGrant, flight.LeaseRenew:
				le.deadline = e.Time + time.Duration(e.Aux)
			case flight.LeaseFallback:
				le.fellBack = e.Time
			}
			continue
		}
		switch e.Arg {
		case flight.LeaseGrant, flight.LeaseRenew, flight.LeaseFallback:
			if _, ok := caps[e.Core]; ok {
				caps[e.Core] = float64(e.Value)
			}
		}
		// Once a row's lease has been expired for a full leaf TTL, its
		// leaves must never again sum past the row's fallback — the "nodes
		// within two TTLs" half of the cascade.
		for _, id := range rowIDs {
			le := rowLease[id]
			if le.deadline == 0 || e.Time <= le.deadline+ttl {
				continue
			}
			var sum float64
			for _, kid := range rowKids[id] {
				sum += caps[kid]
			}
			if sum > leafBound {
				t.Fatalf("seq %d: row %d leaves hold %.1f W > fallback %.1f W, %v past the row's lease deadline",
					e.Seq, id, sum/1e6, float64(rowFallback), e.Time-le.deadline)
			}
		}
	}
	// "Rows within one TTL": the fallback lands at the lease deadline —
	// the deadline IS last grant + one TTL.
	for r, id := range rowIDs {
		le := rowLease[id]
		if le.deadline == 0 {
			t.Fatalf("row %d never received a lease", r)
		}
		if le.fellBack == 0 {
			t.Fatalf("row %d never fell back after the building died", r)
		}
		if le.fellBack != le.deadline {
			t.Errorf("row %d fell back %v after its lease deadline, want at it", r, le.fellBack-le.deadline)
		}
	}

	// The cross-tier merged view shows the injected partition as gap
	// rounds and the delayed row as the straggler.
	tl := tracing.Merge(rootTracer.Log(), []tracing.Log{
		tracers[0].Log(), tracers[1].Log(), tracers[2].Log(),
	})
	if len(tl.Rounds) != healthyRounds {
		t.Fatalf("merged timeline has %d rounds, want %d", len(tl.Rounds), healthyRounds)
	}
	if tl.GapRounds < 1 {
		t.Error("no gap rounds in the merged timeline despite the partition window")
	}
	foundGap := false
	for _, mr := range tl.Rounds {
		for _, g := range mr.Gaps {
			if g == "row1" {
				foundGap = true
			}
		}
	}
	if !foundGap {
		t.Error("partitioned row1 never appears in a round's gap list")
	}
	straggled := false
	for _, st := range tl.Stragglers {
		if st.Node == "row2" && st.Worst >= 30*time.Millisecond {
			straggled = true
		}
	}
	if !straggled {
		t.Errorf("delayed row2 not flagged as straggler; stats: %+v", tl.Stragglers)
	}
}
