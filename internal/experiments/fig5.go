package experiments

import (
	"time"

	"repro/internal/svc"
	"repro/internal/trace"
	"repro/internal/units"
)

// Figure5Row is one power limit's latency outcome.
type Figure5Row struct {
	Limit        units.Watts
	AloneP90     float64 // seconds, websearch alone under RAPL
	ColocatedP90 float64 // seconds, websearch + cpuburn under RAPL
}

// Ratio reports the colocated p90 relative to running alone.
func (r Figure5Row) Ratio() float64 {
	if r.AloneP90 <= 0 {
		return 0
	}
	return r.ColocatedP90 / r.AloneP90
}

// Figure5Result reproduces Figure 5 (unfair throttling): the 90th
// percentile latency of websearch (300 users on 9 Skylake cores) with and
// without a colocated cpuburn power virus, under descending RAPL limits.
type Figure5Result struct {
	Users int
	Rows  []Figure5Row
}

// Figure5Limits are the sweep points.
var Figure5Limits = []units.Watts{85, 55, 50, 45, 40, 35}

// websearchConfig is the shared websearch setup for Figures 5, 12 and 13.
func websearchConfig(seed int64) svc.Config {
	return svc.Websearch(300, []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, seed)
}

// Figure5 runs the unfair-throttling experiment.
func Figure5() (Figure5Result, error) {
	out := Figure5Result{Users: 300}
	for _, limit := range Figure5Limits {
		// Websearch seeded 1, 10 s of warmup, under RAPL without and with
		// cpuburn on the tenth core.
		alone, err := latencyRun(limit, "alone", 1, 10*time.Second)
		if err != nil {
			return Figure5Result{}, err
		}
		coloc, err := latencyRun(limit, "rapl", 1, 10*time.Second)
		if err != nil {
			return Figure5Result{}, err
		}
		out.Rows = append(out.Rows, Figure5Row{Limit: limit, AloneP90: alone.P90, ColocatedP90: coloc.P90})
	}
	return out, nil
}

// Tables renders the result.
func (r Figure5Result) Tables() []trace.Table {
	t := trace.Table{
		Title:  "Figure 5: websearch p90 latency under RAPL, alone vs +cpuburn (300 users)",
		Header: []string{"limit(W)", "alone p90 (ms)", "colocated p90 (ms)", "colocated/alone"},
	}
	for _, row := range r.Rows {
		t.AddRow(trace.W(row.Limit), trace.F(row.AloneP90*1000, 1),
			trace.F(row.ColocatedP90*1000, 1), trace.F(row.Ratio(), 2))
	}
	return []trace.Table{t}
}
