package main

import (
	"math"
	"sort"
)

// The six workloads, in the order a full run takes them.
var workloadNames = []string{"figures", "slo-step", "node-batch", "node-slo", "fleet-http", "tree-1024"}

// gatedWorkloads are the ones BENCHMARK.json names, so the ones a driver
// runs and holds to the bounds: those a run of the length the driver's
// time limit allows can steady on a shared box (see quietPercentile and
// README.md). What else the host runs slows the other three by half and
// more, for longer than a run lasts: a slo-step load period, a fleet-http
// round and a figure pass read one of two values, and which of them is
// not the program's doing.
var gatedWorkloads = []string{"node-batch", "node-slo", "tree-1024"}

// metricDef is one named metric: its unit, which way is better, and —
// for end-to-end metrics — how much worse it may get before -compare
// calls it a regression. Bound is a share of the base value; AbsBound,
// when set, is an absolute difference and replaces it.
type metricDef struct {
	Name      string
	Unit      string
	Better    string // "lower" or "higher"
	Bound     float64
	AbsBound  float64
	Workloads []string // nil means every workload
}

var (
	simWorkloads   = []string{"slo-step", "node-batch", "node-slo"}
	roundWorkloads = []string{"fleet-http", "tree-1024"}
	inProcess      = []string{"slo-step", "node-batch", "node-slo", "fleet-http", "tree-1024"}
)

// universal are the end-to-end metrics every workload reports; they are
// the end_to_end list of BENCHMARK.json, whose schema has one list for
// all workloads and wants no metric that is ever zero. What the primary
// operation is differs by workload (README.md has the table): a figure
// pass, one load period, one RunIteration, one converged round. The
// bounds are the widest the schema allows: the reference box drifts by a
// fifth between one quarter of an hour and the next, and a bound its own
// noise can cross gates nothing.
var universal = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_ms_tail", Unit: "ms", Better: "lower", Bound: 0.25},
}

// specific are the end-to-end metrics that exist on some workloads
// only. BENCHMARK.json cannot bound them (they would be zero
// elsewhere), so it lists them among the unbounded metrics under an
// "e2e." prefix and -compare applies the bounds below.
var specific = []metricDef{
	{Name: "sim_ms_per_s", Unit: "ms/s", Better: "higher", Bound: 0.10, Workloads: simWorkloads},
	{Name: "svc_p99_sim_ms", Unit: "ms", Better: "lower", Bound: 0.05, Workloads: []string{"slo-step"}},
	{Name: "slo_miss_share", Unit: "share", Better: "lower", AbsBound: 0.03, Workloads: []string{"slo-step"}},
	{Name: "budget_shrink_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10, Workloads: roundWorkloads},
	{Name: "budget_shrink_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25, Workloads: roundWorkloads},
	{Name: "budget_grow_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10, Workloads: roundWorkloads},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.05, Workloads: inProcess},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.15, Workloads: inProcess},
	{Name: "failed_share", Unit: "share", Better: "lower", AbsBound: 1e-12},
}

// endToEnd is every end-to-end metric -compare knows.
func endToEnd() []metricDef { return append(append([]metricDef(nil), universal...), specific...) }

func (d metricDef) on(workload string) bool {
	if d.Workloads == nil {
		return true
	}
	for _, w := range d.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// figureNames are the -figure arguments of cmd/experiments, in the
// order -figure all runs them.
var figureNames = []string{
	"tables", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13",
	"stability", "useful", "gaming-perf", "gaming-freq", "clustering", "interval",
	"consolidation", "slo", "chaos",
}

// paperPolicies are the five policies of the paper, by Policy.Name().
var paperPolicies = []string{
	"frequency-shares", "performance-shares", "power-shares", "priority-shares", "priority",
}

// perLayer lists every per-layer metric: measured in the traced run
// only, from the benchmark's own files, unbounded. A layer a workload
// bypasses reads zero there, which is itself the prediction README.md
// writes down.
func perLayer() []metricDef {
	us, n := "us", "count"
	defs := []metricDef{
		{Name: "sim.step_us", Unit: us}, {Name: "sim.steps", Unit: n},
		{Name: "svc.tick_us", Unit: us}, {Name: "svc.arrived", Unit: n}, {Name: "svc.completed", Unit: n},
		{Name: "svc.telemetry_us", Unit: us},
		{Name: "msr.read_us", Unit: us}, {Name: "msr.reads", Unit: n},
		{Name: "telemetry.sample_us", Unit: us},
		{Name: "core.decide_us", Unit: us}, {Name: "core.actions", Unit: n},
	}
	for _, p := range paperPolicies {
		defs = append(defs, metricDef{Name: "core.decide_us." + p, Unit: us})
	}
	defs = append(defs,
		metricDef{Name: "daemon.actuate_us", Unit: us}, metricDef{Name: "daemon.actuations", Unit: n},
		metricDef{Name: "daemon.self_us", Unit: us},
		metricDef{Name: "ledger.append_us", Unit: us},
		metricDef{Name: "flight.record_us", Unit: us}, metricDef{Name: "flight.events", Unit: n},
		metricDef{Name: "powerapi.encode_us", Unit: us}, metricDef{Name: "powerapi.decode_us", Unit: us},
		metricDef{Name: "powerapi.status_bytes", Unit: "B"}, metricDef{Name: "powerapi.grant_bytes", Unit: "B"},
		metricDef{Name: "powerapi.requests", Unit: n},
		metricDef{Name: "powerapi.agent_handle_us", Unit: us},
		metricDef{Name: "cluster.report_us", Unit: us}, metricDef{Name: "cluster.report_max_us", Unit: us},
		metricDef{Name: "cluster.transport_us", Unit: us},
		metricDef{Name: "cluster.grant_us", Unit: us}, metricDef{Name: "cluster.grants", Unit: n},
		metricDef{Name: "cluster.grant_skip_ratio", Unit: "ratio"},
		metricDef{Name: "cluster.round_self_us", Unit: us}, metricDef{Name: "cluster.fanout_wall_us", Unit: us},
		metricDef{Name: "hierarchy.rows_phase_us", Unit: us}, metricDef{Name: "hierarchy.root_phase_us", Unit: us},
		metricDef{Name: "hierarchy.grow_rounds", Unit: n},
	)
	for _, f := range figureNames {
		defs = append(defs, metricDef{Name: "experiments." + f + "_s", Unit: "s"})
	}
	defs = append(defs,
		metricDef{Name: "go.gc_cycles", Unit: n}, metricDef{Name: "go.gc_pause_ms", Unit: "ms"},
		metricDef{Name: "trace.overhead_share", Unit: "share"},
	)
	for _, d := range specific {
		if d.Name != "failed_share" { // the result line's attempted and failed carry it
			defs = append(defs, metricDef{Name: "e2e." + d.Name, Unit: d.Unit, Better: d.Better})
		}
	}
	for i := range defs {
		switch defs[i].Name {
		case "sim.steps", "svc.arrived", "svc.completed", "cluster.grant_skip_ratio":
			defs[i].Better = "higher" // work done, or work saved
		}
		if defs[i].Better == "" {
			defs[i].Better = "lower"
		}
	}
	return defs
}

// percentile is the p-th percentile of xs by linear interpolation
// between closest ranks; xs need not be sorted and is left alone.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (s[lo+1]-s[lo])*frac
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quietPercentile is the lowest p-th percentile among consecutive
// windows of window operations. The shared box runs one fixed
// computation at two speeds a quarter to a half apart (what else the
// host runs decides which), each for stretches of a second to half a
// minute, so a percentile over a whole run measures how the run was
// split between the two, and two runs of one commit disagree by that
// quarter. The quietest window is what the program costs when the box
// leaves it alone, and it repeats within a few percent. A window must be
// short against a stretch and still hold enough operations for the
// percentile. With fewer than two windows it is the percentile of the
// whole run.
func quietPercentile(xs []float64, p float64, window int) float64 {
	if window <= 0 || len(xs) < 2*window {
		return percentile(xs, p)
	}
	quietest := math.Inf(1)
	for i := 0; i+window <= len(xs); i += window {
		quietest = min(quietest, percentile(xs[i:i+window], p))
	}
	return quietest
}

// beyond is how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) int { return int(float64(n) * (100 - p) / 100) }
