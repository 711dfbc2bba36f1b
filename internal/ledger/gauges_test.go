package ledger

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/units"
)

// The energy gauges are views of the accounts, read at scrape time: each
// package gauge reads its account, padpd_app_energy_joules{app} reads the
// last app so named in spec order, and across a reconfiguration a name that
// left the set keeps the value it had while a new name appears.
func TestEnergyGaugesReadAccounts(t *testing.T) {
	chip := twoSocketChip()
	reg := metrics.NewRegistry()
	apps := []core.AppSpec{
		{Name: "gcc", Core: 0, Shares: 30},
		{Name: "mcf", Core: 1, Shares: 20},
		{Name: "gcc", Core: 10, Shares: 10}, // a second gcc: the gauge shows this one
	}
	l := newTestLedger(t, chip, apps, Config{Metrics: reg})
	gauges := func() map[string]float64 {
		v := reg.Values()
		for k := range v {
			if !strings.HasPrefix(k, "padpd_") {
				delete(v, k)
			}
		}
		return v
	}
	if g := gauges(); g[`padpd_app_energy_joules{app="gcc"}`] != 0 || g["padpd_energy_total_joules"] != 0 {
		t.Fatalf("before any interval: %v", g)
	}

	dt := 10 * time.Millisecond
	var at time.Duration
	step := func(n int, freq []units.Hertz) {
		for i := 0; i < n; i++ {
			at += dt
			l.Append(okInput(chip, at, dt, 60, []units.Watts{31.3, 17.9}, freq))
		}
	}
	step(7, []units.Hertz{2e9, 3e9})
	s := l.Summarize()
	want := map[string]float64{
		"padpd_energy_total_joules":          float64(s.TotalUJ) / 1e6,
		"padpd_energy_unattributed_joules":   float64(s.UnattributedUJ) / 1e6,
		"padpd_energy_excluded_joules":       float64(s.ExcludedUJ) / 1e6,
		"padpd_energy_overshoot_joules":      float64(s.OvershootUJ) / 1e6,
		"padpd_energy_cost_usd":              s.CostUSD,
		"padpd_energy_carbon_grams":          s.CarbonGrams,
		`padpd_app_energy_joules{app="gcc"}`: s.Apps[2].Joules,
		`padpd_app_energy_joules{app="mcf"}`: s.Apps[1].Joules,
	}
	g := gauges()
	for k, v := range want {
		if got, ok := g[k]; !ok || got != v {
			t.Errorf("%s = %v (present %v), want %v", k, got, ok, v)
		}
	}
	if s.Apps[0].Joules == s.Apps[2].Joules {
		t.Fatalf("test needs the two gcc accounts to differ: %v", s.Apps)
	}

	mcf := g[`padpd_app_energy_joules{app="mcf"}`]
	l.Reconfigure([]core.AppSpec{{Name: "gcc", Core: 0, Shares: 30}, {Name: "lbm", Core: 11, Shares: 10}})
	step(3, nil)
	s = l.Summarize()
	g = gauges()
	if got := g[`padpd_app_energy_joules{app="mcf"}`]; got != mcf {
		t.Errorf("retired mcf reads %v, want its last value %v", got, mcf)
	}
	if got := g[`padpd_app_energy_joules{app="lbm"}`]; got != s.Apps[1].Joules || got == 0 {
		t.Errorf("new lbm reads %v, want %v", got, s.Apps[1].Joules)
	}
	if got := g[`padpd_app_energy_joules{app="gcc"}`]; got != s.Apps[0].Joules {
		t.Errorf("gcc reads %v, want %v", got, s.Apps[0].Joules)
	}
	if got := g["padpd_energy_total_joules"]; got != float64(s.TotalUJ)/1e6 {
		t.Errorf("total reads %v, want %v", got, float64(s.TotalUJ)/1e6)
	}
}

// The gauges are read under the ledger's lock while Append writes the
// accounts: scrapes from other goroutines race neither the loop nor a
// reconfiguration (run under -race), and every scrape sees a total that
// only grows.
func TestEnergyGaugesScrapeDuringAppend(t *testing.T) {
	chip := twoSocketChip()
	reg := metrics.NewRegistry()
	apps := []core.AppSpec{{Name: "gcc", Core: 0, Shares: 30}, {Name: "mcf", Core: 10, Shares: 20}}
	l := newTestLedger(t, chip, apps, Config{Metrics: reg})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0.0
			for {
				select {
				case <-done:
					return
				default:
				}
				v := reg.Values()["padpd_energy_total_joules"]
				if v < last {
					t.Errorf("total went back: %v after %v", v, last)
					return
				}
				last = v
			}
		}()
	}
	dt := 10 * time.Millisecond
	for i := 1; i <= 500; i++ {
		l.Append(okInput(chip, time.Duration(i)*dt, dt, 60, []units.Watts{30, 20}, nil))
		if i == 250 {
			l.Reconfigure([]core.AppSpec{{Name: "lbm", Core: 1, Shares: 10}})
		}
	}
	close(done)
	wg.Wait()
}
