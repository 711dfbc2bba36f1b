package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/platform"
	"repro/internal/units"
)

// The tests run every in-process workload at a fraction of its size:
// fewer operations, and for the two control-plane workloads a smaller
// fleet and tree. The benchmark itself never shrinks a topology.
const (
	testIntervals = 300
	testWarmup    = 100
	testRounds    = 40
	testNodes     = 4
	testLeaves    = 64
	testRows      = 4
)

func testConfig(seed int64) config {
	return config{seed: seed, seconds: 1, root: "..", setups: 1, out: io.Discard}
}

// small measures one scaled-down pass of an in-process workload.
func small(t *testing.T, name string, seed int64, traced bool) (*measurement, *checker) {
	t.Helper()
	cfg := testConfig(seed)
	chk := newChecker(io.Discard)
	var tr *tracer
	if traced {
		tr = newTracer(scratchSpans)
	}
	var mm *measurement
	var err error
	switch name {
	case "node-batch":
		mm, err = runNode(name, nodeBatchSpec(seed), testIntervals, testWarmup, cfg, tr, chk)
	case "node-slo":
		mm, err = runNode(name, nodeSLOSpec(seed), testIntervals, testWarmup, cfg, tr, chk)
	case "slo-step":
		mm, err = runSLOStep(1, cfg, tr, chk)
	case "fleet-http":
		build := func(tr *tracer) (*room, error) { return buildFleet(seed, testNodes, tr) }
		mm, err = runRoom(name, build, testRounds, cfg, tr, chk)
	case "tree-1024":
		build := func(tr *tracer) (*room, error) { return buildTree(seed, testLeaves, testRows, tr) }
		mm, err = runRoom(name, build, testRounds, cfg, tr, chk)
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if chk.failed != 0 {
		t.Errorf("%s seed %d: %d violations %v", name, seed, chk.failed, chk.byKind)
	}
	return mm, chk
}

// TestDeterminism: the same seed gives identical simulated statistics
// and counts, traced or not, and another seed changes them.
func TestDeterminism(t *testing.T) {
	for _, name := range inProcess {
		t.Run(name, func(t *testing.T) {
			a, _ := small(t, name, 1, false)
			b, _ := small(t, name, 1, false)
			traced, _ := small(t, name, 1, true)
			other, _ := small(t, name, 2, false)
			chk := newChecker(io.Discard)
			chk.same("two untraced passes", a.counts, b.counts)
			chk.same("untraced and traced", a.counts, traced.counts)
			if chk.failed != 0 || len(a.counts) == 0 {
				t.Errorf("seed 1 did not repeat: %v\n%v\n%v", a.counts, b.counts, traced.counts)
			}
			for _, k := range []string{"svc_p99_sim_ms", "slo_miss_share"} {
				if a.specific[k] != b.specific[k] {
					t.Errorf("%s: %v then %v on one seed", k, a.specific[k], b.specific[k])
				}
			}
			chk = newChecker(io.Discard)
			chk.same("seed 1 and seed 2", a.counts, other.counts)
			if chk.failed == 0 {
				t.Errorf("seed 2 changed no count: %v", other.counts)
			}
		})
	}
}

// TestTraceDecomposes: in every traced workload the self times of a
// root span's parts sum to the root, and the wrappers leave the layers'
// own paths in place — the device still sweeps in batches and counts
// the reads the sampler's own counter saw.
func TestTraceDecomposes(t *testing.T) {
	for _, name := range inProcess {
		t.Run(name, func(t *testing.T) {
			mm, _ := small(t, name, 1, true)
			if mm.rootUS <= 0 || math.Abs(mm.partsUS-mm.rootUS) > 0.05*mm.rootUS {
				t.Errorf("root span %.3f us, parts sum to %.3f us", mm.rootUS, mm.partsUS)
			}
			if _, isNode := mm.wrapper["msr.reads"]; !isNode {
				if mm.layers["cluster.report_us"] <= 0 {
					t.Errorf("no report spans: %v", mm.layers)
				}
				return
			}
			if mm.wrapper["msr.batches"] == 0 {
				t.Error("the device wrapper never took the ReadBatch path")
			}
			perInterval := mm.wrapper["msr.reads"] / mm.wrapper["intervals"]
			if perInterval != mm.layers["msr.reads"] || perInterval == 0 {
				t.Errorf("wrapper read %v registers an interval, per-layer says %v", perInterval, mm.layers["msr.reads"])
			}
		})
	}
}

// TestPolicyWrapperExplains: a wrapped policy is still a core.Explainer
// with the wrapped policy's reasons.
func TestPolicyWrapperExplains(t *testing.T) {
	spec := nodeSLOSpec(1)
	pol, err := core.NewFrequencyShares(spec.chip, spec.specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var wrapped core.Policy = &tracedPolicy{Policy: pol, t: newTracer(16)}
	ex, ok := wrapped.(core.Explainer)
	if !ok {
		t.Fatal("the policy wrapper is no core.Explainer")
	}
	wrapped.Initial()
	if got := ex.LastReasons(); len(got) == 0 || got[0] != core.ReasonInitial {
		t.Errorf("reasons after Initial: %v", got)
	}
}

// TestViolationsAreCounted injects one violation of each kind and
// expects each counted, none fatal.
func TestViolationsAreCounted(t *testing.T) {
	var out bytes.Buffer
	chk := newChecker(&out)
	chk.err(1, "RunIteration", errors.New("injected"))
	chk.caps(2, 100.02, 100)
	chk.conservation(3, ledger.Summary{
		TotalUJ: 10, UnattributedUJ: 5, Apps: []ledger.AppTotal{{TotalUJ: 4}},
	})
	chk.figures(4, "injected output", []byte("a"), []byte("b"))
	chk.same("injected", map[string]float64{"svc.completed": 1}, map[string]float64{"svc.completed": 2})

	// A room whose leaves ignore every budget: each shrink goes
	// unenforced and leaves the caps over the committed budget.
	budget := units.Watts(100)
	stuck := &room{
		full: 100, low: 80, grants: new(atomic.Int64),
		advance: func() {},
		step:    func(context.Context) error { return nil },
		set:     func(_ context.Context, b units.Watts) error { budget = b; return nil },
		budget:  func() units.Watts { return budget },
		capSum:  func() units.Watts { return 100 },
	}
	stuck.drive(context.Background(), 1, nil, chk)

	for _, kind := range []string{failError, failOvercommit, failLedger, failFigures, failNondetermined, failUnenforced} {
		if chk.byKind[kind] == 0 {
			t.Errorf("a %s violation went uncounted: %v", kind, chk.byKind)
		}
	}
	if !strings.Contains(out.String(), "violation unenforced at op") {
		t.Errorf("violations are printed with their op id; got:\n%s", out.String())
	}
	// Healthy values count nothing.
	clean := newChecker(io.Discard)
	clean.err(1, "x", nil)
	clean.caps(1, 100.005, 100)
	clean.conservation(1, ledger.Summary{TotalUJ: 9, UnattributedUJ: 5, Apps: []ledger.AppTotal{{TotalUJ: 4}}})
	clean.figures(1, "x", []byte("a"), []byte("a"))
	if clean.failed != 0 {
		t.Errorf("healthy values counted as violations: %v", clean.byKind)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in metrics.go.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(gatedWorkloads) {
		t.Fatalf("%d workloads, want %d", len(file.Workloads), len(gatedWorkloads))
	}
	for i, w := range file.Workloads {
		if w.Name != gatedWorkloads[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q with a why of %d characters", i, w.Name, len(w.Why))
		}
	}
	check := func(what string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", what, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: %+v, want %s %s %s", what, i, g, d.Name, d.Unit, d.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound %v, want %v", what, d.Name, g.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", file.EndToEnd, universal, true)
	check("per_layer", file.PerLayer, perLayer(), false)
	if file.RunSeconds < 1 || file.RunSeconds > 60 || len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", file.RunSeconds, file.Paths)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "sim_ms_per_s", Better: "higher", Bound: 0.10}
	abs := metricDef{Name: "slo_miss_share", Better: "lower", AbsBound: 0.03}
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{80, 120, 100, 70, 130}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"within the bound", lower, steady, []float64{105, 106, 104, 105, 105}, verdictOK},
		{"beyond the bound", lower, steady, []float64{115, 116, 114, 115, 115}, verdictRegressed},
		{"better", lower, steady, []float64{50, 51, 49, 50, 50}, verdictOK},
		{"spread wider than the bound", lower, noisy, []float64{101, 99, 100, 102, 98}, verdictUnresolved},
		{"noisy but every run better", lower, noisy, []float64{60, 61, 59, 60, 62}, verdictOK},
		{"higher is better, fell", higher, steady, []float64{85, 86, 84, 85, 85}, verdictRegressed},
		{"higher is better, rose", higher, steady, []float64{120, 121, 119, 120, 120}, verdictOK},
		{"absolute bound held", abs, []float64{0.15}, []float64{0.17}, verdictOK},
		{"absolute bound broken", abs, []float64{0.15}, []float64{0.19}, verdictRegressed},
	} {
		if _, got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareSets: a breach makes compareSets report a regression, and
// differing counts on a shared seed are called out.
func TestCompareSets(t *testing.T) {
	run := func(p50, completed float64) *runRecord {
		return &runRecord{
			Workload: "node-slo", Seed: 1, Seconds: 1, Attempted: 10,
			EndToEnd: map[string]metricValue{"op_ms_p50": {Value: p50, Unit: "ms"}},
			Counts:   map[string]float64{"svc.completed": completed},
		}
	}
	base := &resultSet{Runs: []*runRecord{run(1, 7)}}
	var out bytes.Buffer
	if compareSets(&out, base, &resultSet{Runs: []*runRecord{run(1.05, 7)}}) {
		t.Errorf("5 %% slower counted as a regression:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "identical on every seed") {
		t.Errorf("equal counts not reported:\n%s", out.String())
	}
	out.Reset()
	if !compareSets(&out, base, &resultSet{Runs: []*runRecord{run(1.5, 8)}}) {
		t.Errorf("50 %% slower not counted as a regression:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "DIFFER") || !strings.Contains(out.String(), "1.5000") {
		t.Errorf("differing counts or the ratio missing:\n%s", out.String())
	}
}

// TestQuietPercentile: a stretch of slow operations moves the
// percentile of the whole run and leaves the quietest window's alone.
func TestQuietPercentile(t *testing.T) {
	var xs []float64
	for i := 0; i < 400; i++ {
		x := 1 + float64(i%10)/100 // 1.00 .. 1.09 in every ten
		if i < 250 {
			x *= 1.3 // the box ran slow for the first five eighths
		}
		xs = append(xs, x)
	}
	if got := quietPercentile(xs, 50, 100); math.Abs(got-1.045) > 1e-9 {
		t.Errorf("quiet p50 %v, want 1.045", got)
	}
	if got := quietPercentile(xs, 50, 0); got < 1.3 {
		t.Errorf("p50 of the whole run %v, want it in the slow stretch", got)
	}
	if got, want := quietPercentile(xs[:150], 90, 100), percentile(xs[:150], 90); got != want {
		t.Errorf("fewer than two windows: %v, want the whole run's %v", got, want)
	}
	if got := quietPercentile([]float64{9, 7}, 100, 1); got != 7 {
		t.Errorf("two passes, window of one: %v, want the quicker, 7", got)
	}
}

func TestPercentileAndUnion(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if median(xs) != 3 || percentile(xs, 100) != 5 || percentile(xs, 0) != 1 || percentile(xs, 75) != 4 {
		t.Errorf("percentiles of 1..5: p50 %v p100 %v p0 %v p75 %v", median(xs), percentile(xs, 100), percentile(xs, 0), percentile(xs, 75))
	}
	spans := []span{
		{Layer: lyReport, Start: 0, End: 10}, {Layer: lyReport, Start: 5, End: 12},
		{Layer: lyGrant, Start: 20, End: 25}, {Layer: lyHTTP, Start: 0, End: 100},
	}
	got := unionNS(spans, func(s span) bool { return s.Layer != lyHTTP })
	if got != 17 {
		t.Errorf("union of [0,10] [5,12] [20,25] is %d, want 17", got)
	}
}

// TestTracerFoldsRounds: a converged round's self time is the round
// less the union of its fan-out.
func TestTracerFoldsRounds(t *testing.T) {
	tr := newTracer(8)
	tr.begin(1)
	at := func(l layer, start, end time.Duration) {
		tr.buf[tr.n.Add(1)-1] = span{Layer: l, Start: int64(start), End: int64(end)}
	}
	at(lyReport, 0, 30)
	at(lyReport, 10, 40)
	at(lyGrant, 50, 60)
	at(lyRound, 0, 100)
	tr.end(true)
	if tr.rounds != 1 || tr.fanoutWall != 50 || tr.roundSelf != 50 || tr.reportMax != 30 {
		t.Errorf("rounds %d fan-out %d self %d slowest report %d", tr.rounds, tr.fanoutWall, tr.roundSelf, tr.reportMax)
	}
}

// TestSpecsValidate: every seed gives node specs their chips accept.
func TestSpecsValidate(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, s := range []nodeSpec{nodeBatchSpec(seed), nodeSLOSpec(seed), sloStepSpec(seed)} {
			if err := s.chip.Validate(); err != nil {
				t.Error(err)
			}
			if len(s.specs) != s.chip.NumCores {
				t.Errorf("%s: %d specs for %d cores", s.chip.Name, len(s.specs), s.chip.NumCores)
			}
		}
	}
	if nodeBatchSpec(1).chip.Sockets() != 2 || platform.Ryzen().NumCores != 8 {
		t.Error("node-batch wants a two-socket node, slo-step an eight-core Ryzen")
	}
}
