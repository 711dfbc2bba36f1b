package cluster

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/powerapi"
	"repro/internal/units"
)

func TestFleetSLORollups(t *testing.T) {
	reg := metrics.NewRegistry()
	f := NewFleet(100, reg)

	stA := &powerapi.NodeStatus{
		Node: "a",
		SLO: &powerapi.SLOStatus{Services: []powerapi.ServiceSLOStatus{
			{Name: "websearch", P99MS: 60, TargetMS: 80, Rate: 300, Met: true},
			{Name: "ads", P99MS: 25, TargetMS: 20, Rate: 120, Met: false},
		}},
	}
	stB := &powerapi.NodeStatus{
		Node: "b",
		SLO: &powerapi.SLOStatus{Services: []powerapi.ServiceSLOStatus{
			{Name: "websearch", P99MS: 95, TargetMS: 80, Rate: 280, Met: false},
		}},
	}

	f.ObserveRound(1, 10*time.Millisecond, []NodeObservation{
		obsFor("a", 2*time.Millisecond, 30, 40, stA),
		obsFor("b", 3*time.Millisecond, 25, 35, stB),
		obsFor("c", 1*time.Millisecond, 10, 20, nil), // no services: silent
	})

	snap := f.Snapshot()
	if snap.SLOTotal != 3 || snap.SLOMet != 1 {
		t.Errorf("SLO totals = %d met of %d, want 1 of 3", snap.SLOMet, snap.SLOTotal)
	}
	if want := 1.0 / 3.0; snap.SLOAttainment != want {
		t.Errorf("attainment = %v, want %v", snap.SLOAttainment, want)
	}
	if len(snap.SLOServices) != 2 {
		t.Fatalf("service rollups = %+v", snap.SLOServices)
	}
	// Worst-attaining first: ads (0/1) before websearch (1/2).
	ads := snap.SLOServices[0]
	if ads.Name != "ads" || ads.Nodes != 1 || ads.MetNodes != 0 || ads.WorstP99MS != 25 {
		t.Errorf("ads rollup = %+v", ads)
	}
	ws := snap.SLOServices[1]
	if ws.Name != "websearch" || ws.Nodes != 2 || ws.MetNodes != 1 {
		t.Errorf("websearch rollup = %+v", ws)
	}
	if ws.WorstP99MS != 95 || ws.TargetMS != 80 || ws.Rate != 580 {
		t.Errorf("websearch tail/rate = %+v", ws)
	}

	// Per-node rows carry their own tallies.
	if snap.Nodes[0].SLOServices != 2 || snap.Nodes[0].SLOMet != 1 {
		t.Errorf("node a row = %+v", snap.Nodes[0])
	}
	if snap.Nodes[2].SLOServices != 0 {
		t.Errorf("service-less node reports SLO: %+v", snap.Nodes[2])
	}

	vals := reg.Values()
	if vals["fleet_slo_services"] != 3 {
		t.Errorf("fleet_slo_services = %v, want 3", vals["fleet_slo_services"])
	}
	if want := 1.0 / 3.0; vals["fleet_slo_attainment"] != want {
		t.Errorf("fleet_slo_attainment = %v, want %v", vals["fleet_slo_attainment"], want)
	}
}

// A fleet with no reporting services pins attainment at 1 (nothing is
// violated), not 0.
func TestFleetSLOAttainmentDefaultsToOne(t *testing.T) {
	reg := metrics.NewRegistry()
	f := NewFleet(100, reg)
	f.ObserveRound(1, time.Millisecond, []NodeObservation{
		obsFor("a", time.Millisecond, 10, 20, &powerapi.NodeStatus{Node: "a"}),
	})
	if v := reg.Values()["fleet_slo_attainment"]; v != 1 {
		t.Errorf("attainment with no services = %v, want 1", v)
	}
	snap := f.Snapshot()
	if snap.SLOTotal != 0 || len(snap.SLOServices) != 0 {
		t.Errorf("phantom SLO rollup: %+v", snap)
	}
}

// sloBackend is a node whose one latency service the test flips.
type sloBackend struct {
	mu    sync.Mutex
	p99MS float64
}

func (b *sloBackend) FillStatus(st *powerapi.NodeStatus) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st.Policy, st.LimitWatts, st.PowerWatts, st.MaxWatts = "stub", 50, 40, 100
	st.SLO = &powerapi.SLOStatus{Services: []powerapi.ServiceSLOStatus{
		{Name: "websearch", P99MS: b.p99MS, TargetMS: 65, Met: b.p99MS <= 65},
	}}
}

func (b *sloBackend) SetLimit(context.Context, units.Watts) error { return nil }

// TestFleetSLOFollowsNodeOverHTTP is the end-to-end form of the SLO
// rollup: a coordinator polls a live agent through an HTTPNode, and a
// service that goes from meeting its objective to missing it must move
// the fleet's attainment on the very next round. (It did not while the
// delta frame had no SLO field: the first frame's view stuck.)
func TestFleetSLOFollowsNodeOverHTTP(t *testing.T) {
	be := &sloBackend{p99MS: 50}
	agent, err := powerapi.NewAgent(powerapi.AgentConfig{Name: "n0", Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	srv := httptest.NewServer(agent.Handler())
	defer srv.Close()

	reg := metrics.NewRegistry()
	fleet := NewFleet(100, reg)
	c, err := NewOverTransports([]Transport{NewHTTPNode("n0", srv.URL, "coord")},
		Config{Budget: 100, LeaseTTL: time.Hour, Retries: -1, Fleet: fleet})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for round, want := range []float64{1, 1, 0, 0, 1} {
		be.mu.Lock()
		be.p99MS = 50
		if want == 0 {
			be.p99MS = 90
		}
		be.mu.Unlock()
		if err := c.Step(ctx); err != nil {
			t.Fatal(err)
		}
		snap := fleet.Snapshot()
		if snap.SLOTotal != 1 || snap.SLOAttainment != want {
			t.Fatalf("round %d: attainment %v over %d services, want %v over 1", round, snap.SLOAttainment, snap.SLOTotal, want)
		}
		if got := reg.Values()["fleet_slo_attainment"]; got != want {
			t.Fatalf("round %d: fleet_slo_attainment = %v, want %v", round, got, want)
		}
	}
}
