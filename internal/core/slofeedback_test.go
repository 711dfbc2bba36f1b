package core

import (
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/units"
)

func sloSpecs(apiShares, batchShares units.Shares) []AppSpec {
	return []AppSpec{
		{Name: "api", Core: 0, Shares: apiShares},
		{Name: "api", Core: 1, Shares: apiShares},
		{Name: "gcc", Core: 2, Shares: batchShares},
	}
}

func sloSnapshot(chip platform.Chip, limit, power units.Watts, services ...ServiceSLO) Snapshot {
	s := Snapshot{Limit: limit, PackagePower: power, Services: services}
	for core := 0; core < 3; core++ {
		name := "api"
		if core == 2 {
			name = "gcc"
		}
		s.Apps = append(s.Apps, AppState{
			Spec: AppSpec{Name: name, Core: core, Shares: 10},
			Freq: chip.Freq.Nom, IPS: 1e9,
		})
	}
	return s
}

func TestSLOFeedbackValidation(t *testing.T) {
	chip := platform.Skylake()
	specs := sloSpecs(10, 10)
	target := []SLOTarget{{Service: "api", P99: 50 * time.Millisecond}}
	cases := []SLOConfig{
		{}, // no targets
		{Targets: []SLOTarget{{Service: "", P99: time.Millisecond}}},      // empty name
		{Targets: []SLOTarget{{Service: "api"}}},                          // zero p99
		{Targets: append(append([]SLOTarget(nil), target...), target...)}, // duplicate
		{Targets: []SLOTarget{{Service: "ghost", P99: time.Millisecond}}}, // matches nothing
	}
	for i, cfg := range cases {
		if _, err := NewSLOFeedback(chip, specs, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := NewSLOFeedback(chip, []AppSpec{{Name: "api", Core: 0}}, SLOConfig{Targets: target}); err == nil {
		t.Error("specs without shares accepted")
	}
	p, err := NewSLOFeedback(chip, specs, SLOConfig{Targets: target})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "slo-feedback" {
		t.Errorf("name %q", p.Name())
	}
}

// TestSLOFallbackMatchesFrequencyShares: without service telemetry the
// policy must behave exactly like frequency shares, flagged as such.
func TestSLOFallbackMatchesFrequencyShares(t *testing.T) {
	chip := platform.Skylake()
	specs := sloSpecs(20, 10)
	p, err := NewSLOFeedback(chip, specs, SLOConfig{Targets: []SLOTarget{{Service: "api", P99: 50 * time.Millisecond}}})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := NewFrequencyShares(chip, specs, ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	aInit, bInit := p.Initial(), fs.Initial()
	if len(aInit) != len(bInit) {
		t.Fatalf("initial action counts differ: %d vs %d", len(aInit), len(bInit))
	}
	for i := range aInit {
		if aInit[i] != bInit[i] {
			t.Errorf("initial action %d: %+v vs %+v", i, aInit[i], bInit[i])
		}
	}
	powers := []units.Watts{60, 44, 38, 35, 52, 41}
	for step, pw := range powers {
		snap := sloSnapshot(chip, 40, pw)
		got, want := p.Update(snap), fs.Update(snap)
		if len(got) != len(want) {
			t.Fatalf("step %d: action counts differ: %d vs %d", step, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("step %d action %d: %+v vs %+v", step, i, got[i], want[i])
			}
		}
		rs := p.LastReasons()
		if len(rs) == 0 || rs[0] != ReasonSLOFallback {
			t.Errorf("step %d: reasons %v lack leading %s", step, rs, ReasonSLOFallback)
		}
	}
}

// TestSLOBoostsViolatingService: a service over its p99 objective pulls
// frequency from the batch pool.
func TestSLOBoostsViolatingService(t *testing.T) {
	chip := platform.Skylake()
	// Low interactive shares so the initial distribution leaves the
	// serving cores well below their ceiling.
	p, err := NewSLOFeedback(chip, sloSpecs(10, 50), SLOConfig{Targets: []SLOTarget{{Service: "api", P99: 50 * time.Millisecond}}})
	if err != nil {
		t.Fatal(err)
	}
	p.Initial()
	before := p.Targets()
	snap := sloSnapshot(chip, 40, 40, ServiceSLO{Name: "api", P50: 0.04, P90: 0.08, P99: 0.120, Target: 0.05})
	acts := p.Update(snap)
	if len(acts) == 0 {
		t.Fatal("no actions despite a 2.4× p99 violation")
	}
	after := p.Targets()
	if !(after[0] > before[0] && after[1] > before[1]) {
		t.Errorf("interactive targets did not rise: %v -> %v", before, after)
	}
	if !(after[2] < before[2]) {
		t.Errorf("batch target did not pay: %v -> %v", before[2], after[2])
	}
	found := false
	for _, r := range p.LastReasons() {
		if r == ReasonSLOBoost {
			found = true
		}
	}
	if !found {
		t.Errorf("reasons %v lack %s", p.LastReasons(), ReasonSLOBoost)
	}
	// Repeated violation keeps boosting until the ceiling.
	for i := 0; i < 200; i++ {
		p.Update(snap)
	}
	final := p.Targets()
	if final[0] < after[0] {
		t.Errorf("sustained violation lowered the serving target: %v -> %v", after[0], final[0])
	}
}

// TestSLORelaxReturnsHeadroom: a service far under its objective cedes
// frequency back to batch.
func TestSLORelaxReturnsHeadroom(t *testing.T) {
	chip := platform.Skylake()
	p, err := NewSLOFeedback(chip, sloSpecs(50, 10), SLOConfig{Targets: []SLOTarget{{Service: "api", P99: 100 * time.Millisecond}}})
	if err != nil {
		t.Fatal(err)
	}
	p.Initial()
	before := p.Targets()
	snap := sloSnapshot(chip, 40, 40, ServiceSLO{Name: "api", P50: 0.002, P90: 0.004, P99: 0.010, Target: 0.1})
	p.Update(snap)
	after := p.Targets()
	if !(after[0] < before[0]) {
		t.Errorf("interactive target did not relax: %v -> %v", before, after)
	}
	if !(after[2] >= before[2]) {
		t.Errorf("batch target should not fall on relax: %v -> %v", before[2], after[2])
	}
	found := false
	for _, r := range p.LastReasons() {
		if r == ReasonSLORelax {
			found = true
		}
	}
	if !found {
		t.Errorf("reasons %v lack %s", p.LastReasons(), ReasonSLORelax)
	}
}

// TestSLOAntiWindup: with serving cores pinned at their ceiling and the
// SLO still missed, the integral must hold (conditional integration)
// and the decision must read saturated.
func TestSLOAntiWindup(t *testing.T) {
	chip := platform.Skylake()
	p, err := NewSLOFeedback(chip, sloSpecs(50, 50), SLOConfig{Targets: []SLOTarget{{Service: "api", P99: 10 * time.Millisecond}}})
	if err != nil {
		t.Fatal(err)
	}
	p.Initial() // equal shares: everything starts at its ceiling
	snap := sloSnapshot(chip, 40, 40, ServiceSLO{Name: "api", P99: 0.05, Target: 0.01})
	for i := 0; i < 500; i++ {
		p.Update(snap)
	}
	for _, ig := range p.integ {
		if ig > 2 || ig < -2 {
			t.Errorf("integral escaped its clamp: %v", p.integ)
		}
	}
	found := false
	for _, r := range p.LastReasons() {
		if r == ReasonSLOSaturated {
			found = true
		}
	}
	if !found {
		t.Errorf("reasons %v lack %s under a hopeless SLO", p.LastReasons(), ReasonSLOSaturated)
	}
}

// TestSLOCapBeatsSLO: when batch is already at its floor and power still
// exceeds the limit, the interactive pool must shed too.
func TestSLOCapBeatsSLO(t *testing.T) {
	chip := platform.Skylake()
	p, err := NewSLOFeedback(chip, sloSpecs(50, 10), SLOConfig{Targets: []SLOTarget{{Service: "api", P99: time.Millisecond}}})
	if err != nil {
		t.Fatal(err)
	}
	p.Initial()
	// Massive sustained overshoot with a violated SLO: the controller
	// wants to boost but the cap must win.
	snap := sloSnapshot(chip, 20, 60, ServiceSLO{Name: "api", P99: 0.05, Target: 0.001})
	for i := 0; i < 300; i++ {
		p.Update(snap)
	}
	tg := p.Targets()
	sum := float64(tg[0] + tg[1] + tg[2])
	floor := 3 * float64(chip.Freq.Min)
	if sum > floor*1.05 {
		t.Errorf("sustained 3× overshoot left Σtargets at %v, want pinned near the floor %v", sum, floor)
	}
}

// TestSLODeadbandHolds: on-objective services with power in the deadband
// produce no actions.
func TestSLODeadbandHolds(t *testing.T) {
	chip := platform.Skylake()
	p, err := NewSLOFeedback(chip, sloSpecs(20, 10), SLOConfig{Targets: []SLOTarget{{Service: "api", P99: 50 * time.Millisecond}}})
	if err != nil {
		t.Fatal(err)
	}
	p.Initial()
	snap := sloSnapshot(chip, 40, 40, ServiceSLO{Name: "api", P99: 0.049, Target: 0.05})
	if acts := p.Update(snap); acts != nil {
		t.Errorf("deadband update emitted %d actions", len(acts))
	}
	rs := p.LastReasons()
	wantMet, wantHold := false, false
	for _, r := range rs {
		if r == ReasonSLOMet {
			wantMet = true
		}
		if r == ReasonWithinDeadband {
			wantHold = true
		}
	}
	if !wantMet || !wantHold {
		t.Errorf("reasons %v, want both %s and %s", rs, ReasonWithinDeadband, ReasonSLOMet)
	}
}

// TestSLOTargetFromSnapshotWins: a live target stamped by the daemon
// overrides the constructor-time objective.
func TestSLOTargetFromSnapshotWins(t *testing.T) {
	chip := platform.Skylake()
	p, err := NewSLOFeedback(chip, sloSpecs(10, 50), SLOConfig{Targets: []SLOTarget{{Service: "api", P99: time.Second}}})
	if err != nil {
		t.Fatal(err)
	}
	p.Initial()
	before := p.Targets()
	// Constructor goal (1s) is comfortably met, but the live target
	// (20ms) is violated: the live one must drive a boost.
	snap := sloSnapshot(chip, 40, 40, ServiceSLO{Name: "api", P99: 0.080, Target: 0.020})
	p.Update(snap)
	after := p.Targets()
	if !(after[0] > before[0]) {
		t.Errorf("live target ignored: %v -> %v", before, after)
	}
}

// TestSLOFeedbackUpdateZeroAlloc: the decide path allocates nothing in
// steady state — the property daemon.TestAllocProbeSLO holds for the
// whole loop.
func TestSLOFeedbackUpdateZeroAlloc(t *testing.T) {
	chip := platform.Skylake()
	p, err := NewSLOFeedback(chip, sloSpecs(20, 10), SLOConfig{Targets: []SLOTarget{{Service: "api", P99: 50 * time.Millisecond}}})
	if err != nil {
		t.Fatal(err)
	}
	p.Initial()
	snaps := []Snapshot{
		sloSnapshot(chip, 40, 47, ServiceSLO{Name: "api", P99: 0.08, Target: 0.05}),
		sloSnapshot(chip, 40, 33, ServiceSLO{Name: "api", P99: 0.01, Target: 0.05}),
		sloSnapshot(chip, 40, 40),
		sloSnapshot(chip, 40, 40, ServiceSLO{Name: "api", P99: 0.05, Target: 0.05}),
	}
	for _, s := range snaps {
		p.Update(s)
	}
	i := 0
	n := testing.AllocsPerRun(400, func() {
		p.Update(snaps[i%len(snaps)])
		i++
	})
	if n != 0 {
		t.Errorf("allocs per Update = %v, want 0", n)
	}
}
