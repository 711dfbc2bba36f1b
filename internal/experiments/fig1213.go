package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/platform"
	"repro/internal/svc"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// LatencyCell is one (limit, scenario) outcome of the latency-sensitive
// experiments.
type LatencyCell struct {
	Limit    units.Watts
	Scenario string // "alone", "rapl", "freq-shares"
	P90      float64
	Relative float64 // P90 relative to "alone" at the same limit

	// Figure 13's series: mean active frequency of the websearch cores and
	// of the cpuburn core.
	WebsearchFreq units.Hertz
	CpuburnFreq   units.Hertz
}

// LatencyResult reproduces Figures 12 and 13: websearch (high priority, 90
// shares per core on 9 cores) colocated with cpuburn (10 shares, 1 core)
// under descending limits, comparing the frequency-share policy against
// native RAPL and against websearch running alone.
type LatencyResult struct {
	Cells []LatencyCell
}

// Figure12Limits are the sweep points.
var Figure12Limits = []units.Watts{55, 50, 45, 40, 35}

// latencyRun performs one scenario run — websearch seeded by seed, after
// warmup — and reports p90 plus mean frequencies of the two classes.
// "alone" and "rapl" run the RAPL baseline, without and with cpuburn.
func latencyRun(limit units.Watts, scenario string, seed int64, warmup time.Duration) (LatencyCell, error) {
	chip := platform.Skylake()
	wcfg := websearchConfig(seed)
	specs := make([]core.AppSpec, 0, 10)
	for _, c := range wcfg.Cores {
		specs = append(specs, core.AppSpec{
			Name: "websearch", Core: c, Shares: 90, HighPriority: true,
			BaselineIPS: wcfg.Profile.IPS(chip.Freq.Ceiling(1, false)),
		})
	}
	withBurn := scenario != "alone"
	if withBurn {
		specs = append(specs, core.AppSpec{
			Name: "cpuburn", Core: 9, Shares: 10, AVX: true,
			BaselineIPS: workload.CPUBurn.IPS(chip.Freq.Ceiling(1, true)),
		})
	}
	var pol core.Policy
	if scenario != "alone" && scenario != "rapl" {
		var err error
		if pol, err = policyFor(scenario, chip, specs, limit); err != nil {
			return LatencyCell{}, err
		}
	}
	cell := LatencyCell{Limit: limit, Scenario: scenario}
	err := withNode(node.Spec{Chip: chip, Apps: specs, Policy: pol, Limit: limit, Services: []svc.Config{wcfg}}, func(n *node.Node) error {
		ws := n.Services.Service(wcfg.Name)
		if err := n.Run(warmup); err != nil {
			return err
		}
		ws.ResetStats()
		meter := NewMeter(n.M)
		if err := n.Run(30 * time.Second); err != nil {
			return err
		}
		ms := meter.Measure()
		cell.P90 = ws.LatencyPercentile(90)
		var wf units.Hertz
		for _, c := range wcfg.Cores {
			wf += ms.Cores[c].MeanFreq
		}
		cell.WebsearchFreq = wf / units.Hertz(len(wcfg.Cores))
		if withBurn {
			cell.CpuburnFreq = ms.Cores[9].MeanFreq
		}
		return nil
	})
	return cell, err
}

// Figure12 runs the latency-sensitive comparison (Figure 13's frequency
// series is captured in the same cells).
func Figure12() (LatencyResult, error) {
	var out LatencyResult
	for _, limit := range Figure12Limits {
		alone, err := latencyRun(limit, "alone", 2, 15*time.Second)
		if err != nil {
			return LatencyResult{}, err
		}
		alone.Relative = 1
		out.Cells = append(out.Cells, alone)
		for _, scenario := range []string{"rapl", "freq-shares", "perf-shares"} {
			cell, err := latencyRun(limit, scenario, 2, 15*time.Second)
			if err != nil {
				return LatencyResult{}, err
			}
			if alone.P90 > 0 {
				cell.Relative = cell.P90 / alone.P90
			}
			out.Cells = append(out.Cells, cell)
		}
	}
	return out, nil
}

// FreqSeries is Figure 13 drawn from Figure 12's result: the
// frequency-share cells, whose frequencies Figure 12 measured.
func (r LatencyResult) FreqSeries() LatencyResult {
	var out LatencyResult
	for _, c := range r.Cells {
		if c.Scenario == "freq-shares" {
			out.Cells = append(out.Cells, c)
		}
	}
	return out
}

// Tables renders the result.
func (r LatencyResult) Tables() []trace.Table {
	lat := trace.Table{
		Title:  "Figure 12: websearch p90 latency, policies vs RAPL vs alone (90/10 shares)",
		Header: []string{"limit(W)", "scenario", "p90 (ms)", "relative to alone"},
	}
	freq := trace.Table{
		Title:  "Figure 13: active frequencies during the latency experiments",
		Header: []string{"limit(W)", "scenario", "websearch MHz", "cpuburn MHz"},
	}
	for _, c := range r.Cells {
		lat.AddRow(trace.W(c.Limit), c.Scenario, trace.F(c.P90*1000, 1), trace.F(c.Relative, 2))
		freq.AddRow(trace.W(c.Limit), c.Scenario, trace.Hz(c.WebsearchFreq), trace.Hz(c.CpuburnFreq))
	}
	return []trace.Table{lat, freq}
}
