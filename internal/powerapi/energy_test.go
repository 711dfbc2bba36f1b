package powerapi_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	nodepkg "repro/internal/node"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/powerapi"

	"net/http/httptest"
)

// TestStatusCarriesEnergy proves the piggyback: when the agent is built
// with a ledger, every status reply carries the node's energy summary —
// the coordinator learns fleet energy without a second RPC — and the
// wire numbers equal the ledger's own, microjoule for microjoule.
func TestStatusCarriesEnergy(t *testing.T) {
	chip := platform.Skylake()
	specs := []core.AppSpec{{Name: "gcc", Core: 0, Shares: 50}, {Name: "cam4", Core: 1, Shares: 50}}
	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := nodepkg.New(nodepkg.Spec{Chip: chip, Apps: specs, Policy: pol, Limit: 50, Recorders: &nodepkg.Recorders{}})
	if err != nil {
		t.Fatal(err)
	}
	m, d, led := n.M, n.Daemon, n.Ledger
	agent, err := powerapi.NewAgent(powerapi.AgentConfig{
		Name: "n0", Daemon: d, PolicyName: "frequency", Ledger: led,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Close)
	srv := httptest.NewServer(obs.New(nil, nil, obs.DaemonStatusFunc(d),
		obs.WithHandler(powerapi.PathPrefix, agent.Handler())).Handler())
	t.Cleanup(srv.Close)

	m.Run(5 * time.Second)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}

	st, err := powerapi.NewClient(srv.URL).Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Energy == nil {
		t.Fatal("status carries no energy summary despite a configured ledger")
	}
	sum := led.Summarize()
	e := st.Energy
	if e.TotalUJ != sum.TotalUJ || e.UnattributedUJ != sum.UnattributedUJ ||
		e.ExcludedUJ != sum.ExcludedUJ || e.OvershootUJ != sum.OvershootUJ {
		t.Errorf("wire accounts diverge from ledger: %+v vs %+v", e, sum)
	}
	if e.Intervals != sum.Intervals || e.Intervals == 0 {
		t.Errorf("intervals = %d, ledger %d", e.Intervals, sum.Intervals)
	}
	if len(e.Apps) != len(sum.Apps) {
		t.Fatalf("wire apps = %d, ledger %d", len(e.Apps), len(sum.Apps))
	}
	for i := range e.Apps {
		if e.Apps[i].Name != sum.Apps[i].Name || e.Apps[i].TotalUJ != sum.Apps[i].TotalUJ {
			t.Errorf("app %d: wire %+v, ledger %+v", i, e.Apps[i], sum.Apps[i])
		}
	}
	if e.CostUSD <= 0 || e.TotalJoules <= 0 {
		t.Errorf("cost/joules not populated: %+v", e)
	}
}

// Without a ledger the status reply omits the energy block entirely.
func TestStatusOmitsEnergyWithoutLedger(t *testing.T) {
	n := newNode(t, "n0", 50, 0, nil, 0, nil)
	n.m.Run(time.Second)
	st, err := powerapi.NewClient(n.srv.URL).Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Energy != nil {
		t.Errorf("unsolicited energy block: %+v", st.Energy)
	}
}
