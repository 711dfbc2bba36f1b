package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// config is what one workload run is given.
type config struct {
	seed    int64
	seconds int    // nominal length of the timed region; scales the operation counts
	root    string // the repository root
	outDir  string // where trace files go
	setups  int    // how many times the workload is set up, before and after the timed region
	out     io.Writer
}

// setupReps is how many times an untraced run sets the workload up:
// three times before the timed region (the third is measured) and twice
// after it, so the set-ups lie a run apart and setup_s, the quickest of
// them, does not depend on which of its two speeds the box began at.
const setupReps = 5

// setupsBefore is how many of the set-ups come before the timed region;
// the rest follow it.
func (c config) setupsBefore() int { return (c.setups + 1) / 2 }

// measurement is what one pass over a workload yields, traced or not.
type measurement struct {
	workload string
	setup    []float64          // host seconds of each set-up
	opMS     []float64          // host milliseconds of each primary operation
	tailPct  float64            // the percentile op_ms_tail reports
	window   int                // operations to a window of quietPercentile; 0 takes the whole run
	specific map[string]float64 // the workload's own end-to-end metrics
	counts   map[string]float64 // exact counts and simulated statistics: equal for equal seeds
	layers   map[string]float64 // per-layer metrics, traced pass only
	ops      map[string]int     // operation counts, for the result stamp
	samples  map[string]int     // sample count behind a percentile, by metric name
	wrapper  map[string]float64 // traced pass: what the wrappers counted, for the fidelity tests

	// Traced pass: the mean root span and the sum of its parts' self
	// times, which must agree.
	rootUS, partsUS float64
}

// quiet is the p-th percentile of the primary operation's timings as the
// workload's window has quietPercentile take it.
func (m *measurement) quiet(p float64) float64 { return quietPercentile(m.opMS, p, m.window) }

func newMeasurement(workload string) *measurement {
	return &measurement{
		workload: workload,
		specific: map[string]float64{},
		counts:   map[string]float64{},
		layers:   map[string]float64{},
		ops:      map[string]int{},
		samples:  map[string]int{},
		wrapper:  map[string]float64{},
	}
}

// Operation counts per second of -seconds, sized on the reference box
// (2 cores) so the timed region lasts about that long. They are fixed
// counts, not deadlines: a run does the same work on every commit, so
// counts and simulated statistics repeat exactly and a slower commit
// shows as a longer run, never as less work.
const (
	nodeBatchPerS  = 5000 // control intervals
	nodeSLOPerS    = 2800 // control intervals
	sloStepPerS    = 2    // measured load periods, on each of the three machines
	fleetPerS      = 40   // rounds
	treePerS       = 100  // rounds
	figuresPassSec = 8    // one pass of -figure all takes about this long
)

// measure runs one pass over the named workload.
func measure(name string, cfg config, t *tracer, chk *checker) (*measurement, error) {
	switch name {
	case "figures":
		return runFigures(max(1, cfg.seconds/figuresPassSec), cfg, t != nil, chk)
	case "slo-step":
		return runSLOStep(sloStepPerS*cfg.seconds, cfg, t, chk)
	case "node-batch":
		return runNode(name, nodeBatchSpec(cfg.seed), nodeBatchPerS*cfg.seconds, nodeWarmup, cfg, t, chk)
	case "node-slo":
		return runNode(name, nodeSLOSpec(cfg.seed), nodeSLOPerS*cfg.seconds, nodeWarmup, cfg, t, chk)
	case "fleet-http":
		build := func(t *tracer) (*room, error) { return buildFleet(cfg.seed, fleetNodes, t) }
		return runRoom(name, build, fleetPerS*cfg.seconds, cfg, t, chk)
	case "tree-1024":
		build := func(t *tracer) (*room, error) { return buildTree(cfg.seed, treeLeaves, treeRows, t) }
		return runRoom(name, build, treePerS*cfg.seconds, cfg, t, chk)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// scratchSpans is the tracer's per-operation buffer: a tree round
// records a little over two spans per leaf.
const scratchSpans = 8192

// runWorkload measures a workload and assembles its result record. An
// untraced run is one pass. A traced run is an untraced pass followed
// by a traced one over the same inputs: the first yields the end-to-end
// numbers, the second the per-layer numbers, their ratio the tracing
// overhead, and any difference in their counts is a violation.
func runWorkload(name string, cfg config, traced bool) (*runRecord, error) {
	chk := newChecker(cfg.out)
	cfg.setups = setupReps
	plain, err := measure(name, cfg, nil, chk)
	if err != nil {
		return nil, err
	}
	rec := newRecord(name, cfg, traced, plain)
	if traced {
		t := newTracer(scratchSpans)
		cfg.setups = 1
		quiet := newChecker(cfg.out) // the traced pass repeats the operations; count them once
		tm, err := measure(name, cfg, t, quiet)
		if err != nil {
			return nil, err
		}
		chk.failed += quiet.failed
		for k, n := range quiet.byKind {
			chk.byKind[k] += n
		}
		chk.same("untraced and traced pass", plain.counts, tm.counts)
		rec.addLayers(plain, tm)
		if len(t.log) > 0 {
			if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
				return nil, err
			}
			path := filepath.Join(cfg.outDir, "trace-"+name+".json")
			if err := t.write(path); err != nil {
				return nil, err
			}
			fmt.Fprintf(cfg.out, "%d spans written to %s\n", len(t.log), path)
		}
	}
	rec.Attempted, rec.Failed, rec.Failures = chk.attempted, chk.failed, chk.byKind
	return rec, nil
}

// metricValue is one reported number.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"` // behind a percentile or median
}

// stamp says what was measured and where.
type stamp struct {
	GitRev     string `json:"git_rev"`   // HEAD of the measured tree, "unknown" outside a git checkout
	GitDirty   bool   `json:"git_dirty"` // the tree had uncommitted changes
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// runRecord is one workload run as the result file keeps it.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Stamp     stamp                  `json:"stamp"`
	Ops       map[string]int         `json:"ops"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  map[string]int         `json:"failures,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	WholeRun  map[string]float64     `json:"whole_run_ms"` // p50 and tail over every operation: how the box ran, not what the program costs
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Counts    map[string]float64     `json:"counts"`
}

func newRecord(name string, cfg config, traced bool, m *measurement) *runRecord {
	rec := &runRecord{
		Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: traced,
		Stamp: readStamp(cfg.root), Ops: m.ops, Counts: m.counts,
		EndToEnd: map[string]metricValue{},
	}
	n := len(m.opMS)
	rec.EndToEnd["setup_s"] = metricValue{percentile(m.setup, 0), "s", len(m.setup)}
	rec.EndToEnd["op_ms_p50"] = metricValue{m.quiet(50), "ms", n}
	rec.EndToEnd["op_ms_tail"] = metricValue{m.quiet(m.tailPct), "ms", n}
	for _, d := range specific {
		if v, ok := m.specific[d.Name]; ok {
			rec.EndToEnd[d.Name] = metricValue{v, d.Unit, m.samples[d.Name]}
		}
	}
	rec.WholeRun = map[string]float64{"p50": percentile(m.opMS, 50), "tail": percentile(m.opMS, m.tailPct)}
	rec.Ops["tail_percentile_x10"] = int(m.tailPct * 10)
	rec.Ops["window"] = m.window
	if m.window > 0 && n >= 2*m.window {
		n = m.window
	}
	rec.Ops["samples_beyond_tail"] = beyond(n, m.tailPct)
	return rec
}

// addLayers fills the per-layer metrics of a traced run: every name of
// the list, zero where the workload bypasses the layer.
func (rec *runRecord) addLayers(plain, traced *measurement) {
	rec.PerLayer = map[string]metricValue{}
	for _, d := range perLayer() {
		v := traced.layers[d.Name]
		if e2e, ok := strings.CutPrefix(d.Name, "e2e."); ok {
			v = plain.specific[e2e]
		}
		rec.PerLayer[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if base := plain.quiet(50); base > 0 {
		overhead := traced.quiet(50)/base - 1
		if plain.workload == "figures" {
			// A traced figures pass is one child process per figure.
			overhead = traced.layers["experiments.sum_s"]*1e3/base - 1
		}
		rec.PerLayer["trace.overhead_share"] = metricValue{Value: overhead, Unit: "share"}
	}
	rec.Ops["trace_root_ns"] = int(traced.rootUS * 1e3)
	rec.Ops["trace_parts_ns"] = int(traced.partsUS * 1e3)
}

func readStamp(root string) stamp {
	st := stamp{
		GitRev: "unknown", GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	git := func(args ...string) (string, error) {
		out, err := exec.Command("git", append([]string{"-C", root}, args...)...).Output()
		return strings.TrimSpace(string(out)), err
	}
	if rev, err := git("rev-parse", "HEAD"); err == nil {
		st.GitRev = rev
		if changes, err := git("status", "--porcelain"); err == nil {
			st.GitDirty = changes != ""
		}
	}
	return st
}

// print writes the record for a reader: every metric by name and unit.
func (rec *runRecord) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed %d  %d s  GOMAXPROCS %d of %d cpus  %s %s", rec.Workload, rec.Seed, rec.Seconds,
		rec.Stamp.GOMAXPROCS, rec.Stamp.NumCPU, rec.Stamp.GoVersion, rec.Stamp.GitRev)
	if rec.Stamp.GitDirty {
		fmt.Fprint(w, " (dirty)")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "   ops: %s\n", sortedInts(rec.Ops))
	alias := opAliases[rec.Workload]
	for _, d := range endToEnd() {
		v, ok := rec.EndToEnd[d.Name]
		if d.Name == "failed_share" {
			v, ok = metricValue{Value: rec.failedShare(), Unit: d.Unit}, true
		}
		if !ok {
			continue
		}
		fmt.Fprintf(w, "   %-22s %14.6g %-6s", d.Name, v.Value, v.Unit)
		if v.Samples > 0 {
			fmt.Fprintf(w, " n=%d", v.Samples)
		}
		if a, ok := alias[d.Name]; ok {
			fmt.Fprintf(w, "  (%s)", a)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "   over the whole run: p50 %.6g ms, tail %.6g ms\n", rec.WholeRun["p50"], rec.WholeRun["tail"])
	fmt.Fprintf(w, "   attempted %d, failed %d %v\n", rec.Attempted, rec.Failed, rec.Failures)
	if rec.PerLayer == nil {
		return
	}
	for _, d := range perLayer() {
		if v := rec.PerLayer[d.Name]; v.Value != 0 {
			fmt.Fprintf(w, "   %-34s %14.6g %s\n", d.Name, v.Value, v.Unit)
		}
	}
	if root := rec.Ops["trace_root_ns"]; root > 0 {
		fmt.Fprintf(w, "   root span %d ns, self times of its parts sum to %d ns (%.4f of it)\n",
			root, rec.Ops["trace_parts_ns"], float64(rec.Ops["trace_parts_ns"])/float64(root))
	}
}

func (rec *runRecord) failedShare() float64 {
	if rec.Attempted == 0 {
		return 0
	}
	return float64(rec.Failed) / float64(rec.Attempted)
}

// opAliases says what the universal metric names measure on each
// workload, in the words of the issue that defined the benchmark.
var opAliases = map[string]map[string]string{
	"figures":    {"op_ms_p50": "figures_s x1000: one pass of -figure all", "op_ms_tail": "the same"},
	"slo-step":   {"op_ms_p50": "one load period: 120 simulated control seconds", "op_ms_tail": "p90 of the same"},
	"node-batch": {"op_ms_p50": "interval_us_p50 /1000: one RunIteration", "op_ms_tail": "interval_us_p99 /1000"},
	"node-slo":   {"op_ms_p50": "interval_us_p50 /1000: one RunIteration", "op_ms_tail": "interval_us_p99 /1000"},
	"fleet-http": {"op_ms_p50": "round_ms_p50: a converged Coordinator.Step, the mean of a budget cycle's six", "op_ms_tail": "round_ms_p90"},
	"tree-1024":  {"op_ms_p50": "round_ms_p50: a converged SimTree.Step, the mean of a budget cycle's six", "op_ms_tail": "round_ms_p90"},
}

func sortedInts(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	return strings.Join(parts, " ")
}
