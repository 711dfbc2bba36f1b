package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/ledger"
	"repro/internal/node"
	"repro/internal/platform"
	"repro/internal/units"
)

// TestEnergyEndpointReplayBitIdentical is the PR's acceptance run: a
// ten-minute (virtual) controlled workload, queried over /debug/energy,
// must report per-app totals that a flight-recorder replay reproduces
// bit-identically — the ledger's HTTP face, its in-memory accounts, and
// its event stream are three views of the same integers.
func TestEnergyEndpointReplayBitIdentical(t *testing.T) {
	chip := platform.Skylake()
	rec := flight.New(flight.DefaultCapacity)
	names := []string{"gcc", "cam4", "leela"}
	specs := make([]core.AppSpec, len(names))
	for i, n := range names {
		specs[i] = core.AppSpec{Name: n, Core: i, Shares: units.Shares(60 - 20*i)}
	}
	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.New(node.Spec{Chip: chip, Apps: specs, Policy: pol, Limit: 40, Recorders: &node.Recorders{}, Flight: rec})
	if err != nil {
		t.Fatal(err)
	}
	d, led := n.Daemon, n.Ledger
	n.M.SetPowerLimit(40)
	if err := n.Run(10 * time.Minute); err != nil { // the paper's 1 s interval
		t.Fatal(err)
	}
	if got := d.Iterations(); got != 600 {
		t.Fatalf("iterations = %d, want 600", got)
	}

	srv := httptest.NewServer(New(nil, nil, nil, WithLedger(led), WithFlight(rec)).Handler())
	defer srv.Close()

	var res ledger.RangeResult
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/debug/energy?res=1s")), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != len(names) || res.Summary.Intervals != 600 {
		t.Fatalf("endpoint summary: apps %v, intervals %d", res.Apps, res.Summary.Intervals)
	}
	if res.Summary.TotalJoules <= 0 {
		t.Fatal("no energy over a ten-minute run")
	}
	// The 1s series over the whole run must sum to the cumulative summary
	// exactly, per account.
	var seriesTotal uint64
	seriesApps := make([]uint64, len(names))
	for _, p := range res.Points {
		seriesTotal += p.TotalUJ
		for i, v := range p.AppUJ {
			seriesApps[i] += v
		}
	}
	if seriesTotal != res.Summary.TotalUJ {
		t.Errorf("series sums to %d uJ, summary says %d", seriesTotal, res.Summary.TotalUJ)
	}
	for i, a := range res.Summary.Apps {
		if seriesApps[i] != a.TotalUJ {
			t.Errorf("app %s: series %d uJ, summary %d uJ", a.Name, seriesApps[i], a.TotalUJ)
		}
	}

	// Replay: rebuild the accounts from the flight ring alone and compare
	// bit-for-bit against what the endpoint reported.
	r := ledger.Rebuild(rec.Dump("replay").Events)
	if r.TotalUJ != res.Summary.TotalUJ ||
		r.UnattributedUJ != res.Summary.UnattributedUJ ||
		r.ExcludedUJ != res.Summary.ExcludedUJ ||
		r.OvershootUJ != res.Summary.OvershootUJ {
		t.Errorf("replay package accounts diverge:\nrebuilt %+v\nserved  %+v", r, res.Summary)
	}
	for i, a := range res.Summary.Apps {
		if r.AppUJ[i] != a.TotalUJ {
			t.Errorf("replay app %s: %d uJ, served %d uJ", a.Name, r.AppUJ[i], a.TotalUJ)
		}
	}
}

func TestEnergyEndpointErrors(t *testing.T) {
	// Without a ledger the route does not exist.
	bare := httptest.NewServer(New(nil, nil, nil).Handler())
	defer bare.Close()
	resp, err := http.Get(bare.URL + "/debug/energy")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("ledger-less /debug/energy: %s, want 404", resp.Status)
	}

	chip := platform.Skylake()
	led, err := ledger.New(ledger.Config{
		Chip: chip,
		Apps: []core.AppSpec{{Name: "gcc", Core: 0, Shares: 50}},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(nil, nil, nil, WithLedger(led)).Handler())
	defer srv.Close()
	for _, q := range []string{"?from=abc", "?from=10&to=5", "?res=2s", "?limit=-1"} {
		resp, err := http.Get(srv.URL + "/debug/energy" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: %s, want 400", q, resp.Status)
		}
	}
	// A well-formed query on an empty ledger is a 200 with zero accounts.
	var res ledger.RangeResult
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/debug/energy?res=raw&limit=10")), &res); err != nil {
		t.Fatal(err)
	}
	if res.Summary.TotalUJ != 0 || len(res.Points) != 0 {
		t.Errorf("empty ledger served %+v", res)
	}
}
