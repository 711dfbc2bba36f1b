package bench

import (
	"bytes"
	"strings"
	"testing"
)

func baseline() *File {
	f := NewFile("coordinator", false)
	f.Entries = []Entry{
		{Name: "coordinator_tick/nodes=4", Config: map[string]int{"nodes": 4},
			NsPerOp: 1_000_000, AllocsPerOp: 500, BytesPerOp: 64_000,
			Phases: map[string]float64{"report": 800_000, "plan": 5_000, "grant": 150_000}},
		{Name: "coordinator_tick/nodes=16", Config: map[string]int{"nodes": 16},
			NsPerOp: 2_000_000, AllocsPerOp: 2_000, BytesPerOp: 256_000},
		{Name: "coordinator_tick/nodes=64", Config: map[string]int{"nodes": 64},
			NsPerOp: 6_000_000, AllocsPerOp: 8_000, BytesPerOp: 1_000_000},
	}
	return f
}

func TestFileRoundTrip(t *testing.T) {
	f := baseline()
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || got.Name != "coordinator" || len(got.Entries) != 3 {
		t.Fatalf("read back %+v", got)
	}
	// Entries come back sorted by name (stable diffs).
	if got.Entries[0].Name != "coordinator_tick/nodes=16" {
		t.Errorf("entries not sorted: %q first", got.Entries[0].Name)
	}
	if got.Entries[1].Phases["report"] != 800_000 {
		t.Errorf("phases lost: %+v", got.Entries[1].Phases)
	}

	// A future schema is refused, not misread.
	if _, err := Read(strings.NewReader(`{"schema":"padbench/v2","entries":[]}`)); err == nil {
		t.Fatal("foreign schema accepted")
	}
}

// The acceptance check for the CI gate: a 20%+ injected regression on
// one entry must fail the comparison, even though every other entry is
// unchanged (so calibration cannot wash it out).
func TestCompareFailsInjectedRegression(t *testing.T) {
	base := baseline()
	cand := baseline()
	cand.Entries[1].NsPerOp *= 1.25 // nodes=16: 25% slower

	regs, err := Compare(base, cand, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 {
		t.Fatalf("regressions = %+v, want exactly the injected one", regs)
	}
	if regs[0].Name != "coordinator_tick/nodes=16" || regs[0].Metric != "ns/op" {
		t.Fatalf("flagged %+v", regs[0])
	}

	// Just inside the threshold passes.
	cand = baseline()
	cand.Entries[1].NsPerOp *= 1.15
	if regs, _ := Compare(base, cand, CompareOptions{}); len(regs) != 0 {
		t.Fatalf("15%% growth flagged: %+v", regs)
	}
}

// A uniformly slower machine calibrates away; the same slowdown applied
// absolutely fails. This is what lets CI runners of different speeds
// share one committed baseline.
func TestCompareCalibratesMachineSpeed(t *testing.T) {
	base := baseline()
	cand := baseline()
	for i := range cand.Entries {
		cand.Entries[i].NsPerOp *= 1.8 // every entry: a slower runner
	}
	if regs, _ := Compare(base, cand, CompareOptions{}); len(regs) != 0 {
		t.Fatalf("uniform slowdown flagged: %+v", regs)
	}
	if regs, _ := Compare(base, cand, CompareOptions{Absolute: true}); len(regs) != 3 {
		t.Fatalf("absolute mode missed the slowdown: %+v", regs)
	}

	// A real regression on top of the uniform slowdown is still caught.
	cand.Entries[2].NsPerOp *= 1.5
	regs, _ := Compare(base, cand, CompareOptions{})
	if len(regs) != 1 || regs[0].Name != cand.Entries[2].Name {
		t.Fatalf("regression under calibration: %+v", regs)
	}

	// A faster machine never loosens the bound: a regression that still
	// beats the old absolute numbers is caught relative to the fleet.
	cand = baseline()
	for i := range cand.Entries {
		cand.Entries[i].NsPerOp *= 0.5
	}
	cand.Entries[0].NsPerOp *= 1.6 // 0.8× baseline absolute, 60% off the new fleet
	if regs, _ := Compare(base, cand, CompareOptions{}); len(regs) != 0 {
		// scale clamps at 1, so 0.8× baseline is within the old bound —
		// this documents the clamp rather than asserting a flag.
		t.Fatalf("sub-baseline entry flagged: %+v", regs)
	}
}

func TestCompareAllocsAndMissing(t *testing.T) {
	base := baseline()
	cand := baseline()
	cand.Entries[0].AllocsPerOp = cand.Entries[0].AllocsPerOp*1.3 + 20
	regs, _ := Compare(base, cand, CompareOptions{})
	if len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("alloc regression: %+v", regs)
	}

	// Small absolute alloc flips on tiny benchmarks stay quiet.
	cand = baseline()
	cand.Entries[0].AllocsPerOp += 5
	if regs, _ := Compare(base, cand, CompareOptions{}); len(regs) != 0 {
		t.Fatalf("alloc noise flagged: %+v", regs)
	}

	// Dropping an entry from the candidate is loud, never silent...
	cand = baseline()
	cand.Entries = cand.Entries[:2]
	regs, _ = Compare(base, cand, CompareOptions{})
	if len(regs) != 1 || regs[0].Metric != "missing" {
		t.Fatalf("dropped entry: %+v", regs)
	}
	// ...unless the candidate is a smoke run, which is a subset by design.
	cand.Smoke = true
	if regs, _ := Compare(base, cand, CompareOptions{}); len(regs) != 0 {
		t.Fatalf("smoke subset flagged: %+v", regs)
	}

	// Mixed schemas refuse to compare.
	cand = baseline()
	cand.Schema = "padbench/v2"
	if _, err := Compare(base, cand, CompareOptions{}); err == nil {
		t.Fatal("schema mismatch accepted")
	}
}

// TestTrajectorySmoke actually runs the smallest benchmark of each
// trajectory, so the generation path (node fleet construction, tracer
// phase extraction, histogram readback) is exercised by `go test`.
func TestTrajectorySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	ents, err := CoordinatorTrajectory(true)
	if err != nil {
		t.Fatal(err)
	}
	// Each smoke size runs bare and ledgered.
	if want := 2 * len(coordinatorSmokeNodes); len(ents) != want {
		t.Fatalf("coordinator smoke entries = %d, want %d", len(ents), want)
	}
	sawLedger := false
	for _, e := range ents {
		if e.NsPerOp <= 0 || e.Config["nodes"] == 0 {
			t.Errorf("entry %+v", e)
		}
		if e.Config["ledger"] == 1 {
			sawLedger = true
		}
		for _, ph := range []string{"report", "plan", "grant"} {
			if e.Phases[ph] <= 0 {
				t.Errorf("%s: phase %q missing (%v)", e.Name, ph, e.Phases)
			}
		}
	}
	if !sawLedger {
		t.Error("coordinator smoke never ran the ledgered variant")
	}

	hents, err := HierarchyTrajectory(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(hents) != len(hierSmokeSizes) {
		t.Fatalf("hierarchy smoke entries = %d, want %d", len(hents), len(hierSmokeSizes))
	}
	for i, e := range hents {
		if e.NsPerOp <= 0 || e.Config["leaves"] != hierSmokeSizes[i][0] || e.Config["rows"] != hierSmokeSizes[i][1] {
			t.Errorf("entry %+v", e)
		}
		for _, ph := range []string{"round_building", "round_row"} {
			if e.Phases[ph] <= 0 {
				t.Errorf("%s: phase %q missing (%v)", e.Name, ph, e.Phases)
			}
		}
	}

	lents, err := LoopTrajectory(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(lents) != len(loopSmokeCores) {
		t.Fatalf("loop smoke entries = %d, want %d", len(lents), len(loopSmokeCores))
	}
	sawMultiSocket := false
	for i, e := range lents {
		if e.NsPerOp <= 0 || e.Config["cores"] != loopSmokeCores[i] {
			t.Errorf("entry %+v", e)
		}
		if e.Config["cores"] > benchSocketCores {
			sawMultiSocket = true
		}
		// The steady-state loop invariant the CI gate enforces, checked at
		// the source too so a regression fails fast in `go test`.
		if e.AllocsPerOp != 0 {
			t.Errorf("%s: allocs/op = %v, want 0", e.Name, e.AllocsPerOp)
		}
		for _, ph := range []string{"sample", "decide", "actuate"} {
			if e.Phases[ph] <= 0 {
				t.Errorf("%s: phase %q missing (%v)", e.Name, ph, e.Phases)
			}
		}
	}
	if !sawMultiSocket {
		t.Error("loop smoke never reached a multi-socket machine")
	}

	for _, fam := range []struct {
		family string
		run    func(bool) ([]Entry, error)
	}{{"svc_tick", SvcTrajectory}, {"svc_telemetry", SvcTelemetryTrajectory}} {
		family := fam.family
		sents, err := fam.run(true)
		if err != nil {
			t.Fatal(err)
		}
		if len(sents) != len(svcTickSmokeCores) {
			t.Fatalf("%s smoke entries = %d, want %d", family, len(sents), len(svcTickSmokeCores))
		}
		for i, e := range sents {
			if e.NsPerOp <= 0 || e.Config["cores"] != svcTickSmokeCores[i] || e.Config["services"] == 0 ||
				!strings.HasPrefix(e.Name, family+"/") {
				t.Errorf("entry %+v", e)
			}
			// The service model shares the control loop's cadence: zero-alloc.
			if e.AllocsPerOp != 0 || !zeroAllocGated(e.Name) {
				t.Errorf("%s: allocs/op = %v, gated %v; want 0 under the gate", e.Name, e.AllocsPerOp, zeroAllocGated(e.Name))
			}
		}
	}

	slents, err := SLOLoopTrajectory(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(slents) != len(svcTickSmokeCores) {
		t.Fatalf("slo loop smoke entries = %d, want %d", len(slents), len(svcTickSmokeCores))
	}
	for i, e := range slents {
		if e.NsPerOp <= 0 || e.Config["cores"] != svcTickSmokeCores[i] {
			t.Errorf("entry %+v", e)
		}
		if e.AllocsPerOp != 0 {
			t.Errorf("%s: allocs/op = %v, want 0", e.Name, e.AllocsPerOp)
		}
		for _, ph := range []string{"sample", "decide", "actuate"} {
			if e.Phases[ph] <= 0 {
				t.Errorf("%s: phase %q missing (%v)", e.Name, ph, e.Phases)
			}
		}
	}

	gents, err := LedgerTrajectory(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(gents) != len(ledgerSmokeApps) {
		t.Fatalf("ledger smoke entries = %d, want %d", len(gents), len(ledgerSmokeApps))
	}
	for i, e := range gents {
		if e.NsPerOp <= 0 || e.Config["apps"] != ledgerSmokeApps[i] {
			t.Errorf("entry %+v", e)
		}
		// The ledger rides the 1 ms control loop: zero-alloc, and cheap
		// enough that attribution can never become the loop's long pole.
		if e.AllocsPerOp != 0 {
			t.Errorf("%s: allocs/op = %v, want 0", e.Name, e.AllocsPerOp)
		}
	}
}

// The zero-alloc gate is absolute: a loop_iteration entry with any
// allocations fails the comparison regardless of threshold, slack, or
// what the baseline recorded — including entries the baseline has never
// seen.
func TestCompareZeroAllocGate(t *testing.T) {
	base := baseline()
	base.Entries = append(base.Entries, Entry{
		Name: "loop_iteration/cores=10", Config: map[string]int{"cores": 10},
		NsPerOp: 4_000, AllocsPerOp: 0, BytesPerOp: 0,
	})
	cand := baseline()
	cand.Entries = append(cand.Entries, Entry{
		Name: "loop_iteration/cores=10", Config: map[string]int{"cores": 10},
		NsPerOp: 4_000, AllocsPerOp: 1, BytesPerOp: 64,
	})

	regs, err := Compare(base, cand, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "allocs/op (zero-alloc gate)" || regs[0].Limit != 0 {
		t.Fatalf("gate did not trip: %+v", regs)
	}

	// Even a brand-new configuration absent from the baseline is gated.
	cand.Entries = append(cand.Entries, Entry{
		Name: "loop_iteration/cores=512", Config: map[string]int{"cores": 512},
		NsPerOp: 100_000, AllocsPerOp: 3,
	})
	regs, _ = Compare(base, cand, CompareOptions{})
	if len(regs) != 2 {
		t.Fatalf("unmatched entry escaped the gate: %+v", regs)
	}

	// Zero allocs passes; the slack that forgives small alloc flips
	// elsewhere must not apply here.
	cand = baseline()
	cand.Entries = append(cand.Entries, Entry{
		Name: "loop_iteration/cores=10", AllocsPerOp: 0, NsPerOp: 4_000,
	})
	if regs, _ := Compare(base, cand, CompareOptions{}); len(regs) != 0 {
		t.Fatalf("clean candidate flagged: %+v", regs)
	}
}

func TestShapeWarnings(t *testing.T) {
	base := baseline()
	cand := baseline()
	if w := ShapeWarnings(base, cand); len(w) != 0 {
		t.Fatalf("same shape warned: %v", w)
	}
	cand.NumCPU = base.NumCPU * 8
	cand.GOMAXPROCS = base.GOMAXPROCS * 8
	w := ShapeWarnings(base, cand)
	if len(w) != 2 {
		t.Fatalf("8x CPU/GOMAXPROCS gap: warnings = %v", w)
	}
	cand = baseline()
	cand.GOARCH = "arm64"
	if w := ShapeWarnings(base, cand); len(w) != 1 {
		t.Fatalf("arch mismatch: warnings = %v", w)
	}
	// Warnings never turn into failures: Compare stays clean.
	if regs, _ := Compare(base, cand, CompareOptions{}); len(regs) != 0 {
		t.Fatalf("shape mismatch failed the gate: %+v", regs)
	}
}
