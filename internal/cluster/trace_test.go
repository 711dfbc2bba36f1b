package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/tracing"
	"repro/internal/units"
)

// delayTripper injects latency in front of every RPC to one node — the
// intentional straggler.
type delayTripper struct {
	d  time.Duration
	rt http.RoundTripper
}

func (t delayTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	time.Sleep(t.d)
	return t.rt.RoundTrip(r)
}

// TestMergedTimelineFlagsStraggler is the acceptance check for
// distributed round tracing: a coordinator over 16 loopback-HTTP nodes,
// one of them intentionally delayed, runs several reallocation rounds
// with tracing on both sides. Merging the coordinator dump with all 16
// node dumps must resolve every round to per-node span trees by round
// ID, leave no partition gaps, and flag the delayed node as the
// straggler — in the merged timeline and in the fleet rollups alike.
func TestMergedTimelineFlagsStraggler(t *testing.T) {
	if testing.Short() {
		t.Skip("16-node loopback cluster")
	}
	const (
		n       = 16
		rounds  = 5
		slow    = 7 // index of the delayed node
		delay   = 40 * time.Millisecond
		perNode = units.Watts(30)
	)
	budget := perNode * n

	coordTracer := tracing.New("coord", 0)
	fleet := NewFleet(budget, nil)

	nodes := make([]*wireNode, n)
	ts := make([]Transport, n)
	for i := range nodes {
		name := fmt.Sprintf("n%02d", i)
		nodes[i] = newWireNode(t, name, perNode, nil, int16(i+1), tracing.New(name, 0), nil)
		nodes[i].m.Run(2 * time.Second) // non-zero power so nodes bid
		h := NewHTTPNode(name, nodes[i].srv.URL, "coord").CollectMetrics()
		if i == slow {
			h.WithHTTPClient(&http.Client{
				Transport: delayTripper{d: delay, rt: http.DefaultTransport},
			})
		}
		ts[i] = h
	}

	c, err := NewOverTransports(ts, Config{
		Budget:   budget,
		LeaseTTL: time.Hour,
		Tracer:   coordTracer,
		Fleet:    fleet,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for r := 0; r < rounds; r++ {
		if err := c.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.round.Load(); got != rounds {
		t.Fatalf("coordinator round = %d, want %d", got, rounds)
	}

	// Serialize every dump through the JSON log format and back — the
	// same path powerdump walks when merging files from many machines.
	reload := func(l tracing.Log) tracing.Log {
		var buf bytes.Buffer
		if err := l.Write(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := tracing.ReadLog(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	coordLog := reload(coordTracer.Log())
	nodeLogs := make([]tracing.Log, n)
	for i, nd := range nodes {
		nodeLogs[i] = reload(nd.tr.Log())
	}

	tl := tracing.Merge(coordLog, nodeLogs)
	if len(tl.Rounds) != rounds {
		t.Fatalf("merged %d rounds, want %d", len(tl.Rounds), rounds)
	}
	if tl.GapRounds != 0 {
		t.Errorf("%d rounds with partition gaps, want 0", tl.GapRounds)
	}
	for _, mr := range tl.Rounds {
		if len(mr.Nodes) != n {
			t.Fatalf("round %d resolved %d nodes, want %d", mr.ID, len(mr.Nodes), n)
		}
		if mr.Plan == nil {
			t.Errorf("round %d has no plan span", mr.ID)
		}
		for _, nr := range mr.Nodes {
			if nr.Report == nil {
				t.Fatalf("round %d node %s has no report span", mr.ID, nr.Node)
			}
			if nr.Missing || nr.Record == nil {
				t.Fatalf("round %d node %s has no node-side record", mr.ID, nr.Node)
			}
			if nr.Record.ID != mr.ID {
				t.Fatalf("round %d node %s joined record %d", mr.ID, nr.Node, nr.Record.ID)
			}
			if len(nr.Record.Spans) == 0 {
				t.Errorf("round %d node %s record has no spans", mr.ID, nr.Node)
			}
		}
	}

	// The delayed node dominates the straggler ranking, in the merged
	// timeline and the fleet rollups alike. The delay (40 ms against a
	// loopback median well under 5 ms) clears the flagging rule in every
	// round; allow one round of scheduler-noise slack.
	slowName := nodes[slow].name
	if len(tl.Stragglers) == 0 || tl.Stragglers[0].Node != slowName {
		t.Fatalf("timeline stragglers = %+v, want %s first", tl.Stragglers, slowName)
	}
	if tl.Stragglers[0].Rounds < rounds-1 {
		t.Errorf("straggler flagged in %d/%d rounds", tl.Stragglers[0].Rounds, rounds)
	}
	flagged := 0
	for _, mr := range tl.Rounds {
		if mr.Straggler == slowName {
			flagged++
		}
	}
	if flagged < rounds-1 {
		t.Errorf("per-round straggler = %s in %d/%d rounds", slowName, flagged, rounds)
	}

	snap := fleet.Snapshot()
	if len(snap.Nodes) != n {
		t.Fatalf("fleet tracked %d nodes, want %d", len(snap.Nodes), n)
	}
	if len(snap.Stragglers) == 0 || snap.Stragglers[0].Node != slowName {
		t.Fatalf("fleet stragglers = %+v, want %s first", snap.Stragglers, slowName)
	}
	if snap.TotalPowerWatts <= 0 {
		t.Errorf("fleet total power = %v", snap.TotalPowerWatts)
	}
	if snap.RoundLatency.Samples != rounds {
		t.Errorf("fleet observed %d rounds, want %d", snap.RoundLatency.Samples, rounds)
	}
	// Every node was followed through the frame chain, and the metrics
	// it carried reached the rollups: each node was granted an
	// initial lease, and nothing but its registry says so.
	for _, row := range snap.Nodes {
		if row.StatusRev < rounds {
			t.Errorf("node %s at status rev %d after %d rounds", row.Name, row.StatusRev, rounds)
		}
	}
	if snap.LeaseEvents["grant"] != n {
		t.Errorf("lease events = %v, want %d grants", snap.LeaseEvents, n)
	}
}
