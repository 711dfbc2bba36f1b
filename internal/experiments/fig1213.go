package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/platform"
	"repro/internal/sim"
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

// latencyRun performs one scenario run and reports p90 plus mean
// frequencies of the two classes.
func latencyRun(limit units.Watts, scenario string) (LatencyCell, error) {
	chip := platform.Skylake()
	m, err := sim.New(chip)
	if err != nil {
		return LatencyCell{}, err
	}
	wcfg := websearchConfig(2)
	model, err := svc.NewModel(wcfg)
	if err != nil {
		return LatencyCell{}, err
	}
	if err := model.Attach(m); err != nil {
		return LatencyCell{}, err
	}
	ws := model.Service(wcfg.Name)
	withBurn := scenario != "alone"
	if withBurn {
		if err := m.Pin(workload.NewInstance(workload.CPUBurn), 9); err != nil {
			return LatencyCell{}, err
		}
	}
	meter := NewMeter(m)

	switch scenario {
	case "alone", "rapl":
		for _, c := range wcfg.Cores {
			if err := m.SetRequest(c, chip.Freq.Max()); err != nil {
				return LatencyCell{}, err
			}
		}
		if withBurn {
			if err := m.SetRequest(9, chip.Freq.Max()); err != nil {
				return LatencyCell{}, err
			}
		}
		m.SetPowerLimit(limit)
	case "freq-shares", "perf-shares":
		specs := make([]core.AppSpec, 0, 10)
		for _, c := range wcfg.Cores {
			specs = append(specs, core.AppSpec{
				Name: "websearch", Core: c, Shares: 90, HighPriority: true,
				BaselineIPS: wcfg.Profile.IPS(chip.Freq.Ceiling(1, false)),
			})
		}
		specs = append(specs, core.AppSpec{
			Name: "cpuburn", Core: 9, Shares: 10, AVX: true,
			BaselineIPS: workload.CPUBurn.IPS(chip.Freq.Ceiling(1, true)),
		})
		var pol core.Policy
		var err error
		if scenario == "freq-shares" {
			pol, err = core.NewFrequencyShares(chip, specs, core.ShareConfig{})
		} else {
			pol, err = core.NewPerformanceShares(chip, specs, core.ShareConfig{})
		}
		if err != nil {
			return LatencyCell{}, err
		}
		d, err := daemon.New(daemon.Config{
			Chip: chip, Policy: pol, Apps: specs, Limit: limit,
		}, m.Device(), daemon.MachineActuator{M: m})
		if err != nil {
			return LatencyCell{}, err
		}
		if err := d.AttachVirtual(m); err != nil {
			return LatencyCell{}, err
		}
	}

	m.Run(15 * time.Second)
	ws.ResetStats()
	meter.Begin()
	m.Run(30 * time.Second)
	ms := meter.Measure()
	cell := LatencyCell{Limit: limit, Scenario: scenario, P90: ws.LatencyPercentile(90)}
	var wf units.Hertz
	for _, c := range wcfg.Cores {
		wf += ms.Cores[c].MeanFreq
	}
	cell.WebsearchFreq = wf / units.Hertz(len(wcfg.Cores))
	if withBurn {
		cell.CpuburnFreq = ms.Cores[9].MeanFreq
	}
	return cell, nil
}

// Figure12 runs the latency-sensitive comparison (Figure 13's frequency
// series is captured in the same cells).
func Figure12() (LatencyResult, error) {
	var out LatencyResult
	for _, limit := range Figure12Limits {
		alone, err := latencyRun(limit, "alone")
		if err != nil {
			return LatencyResult{}, err
		}
		alone.Relative = 1
		out.Cells = append(out.Cells, alone)
		for _, scenario := range []string{"rapl", "freq-shares", "perf-shares"} {
			cell, err := latencyRun(limit, scenario)
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

// Figure13 extracts the frequency series (already measured by Figure12);
// it exists so every figure has a regenerator entry point.
func Figure13() (LatencyResult, error) {
	res, err := Figure12()
	if err != nil {
		return LatencyResult{}, err
	}
	var out LatencyResult
	for _, c := range res.Cells {
		if c.Scenario == "freq-shares" {
			out.Cells = append(out.Cells, c)
		}
	}
	return out, nil
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
