package core

import (
	"math"
	"testing"

	"repro/internal/platform"
	"repro/internal/units"
)

func skySpecs2() []AppSpec {
	return []AppSpec{
		{Name: "leela", Core: 0, Shares: 90, BaselineIPS: 2e9},
		{Name: "cactusBSSN", Core: 1, Shares: 10, BaselineIPS: 1.5e9},
	}
}

func freqOf(actions []Action, core int) units.Hertz {
	for _, a := range actions {
		if a.Core == core {
			return a.Freq
		}
	}
	return -1
}

func parked(actions []Action, core int) bool {
	for _, a := range actions {
		if a.Core == core {
			return a.Park
		}
	}
	return false
}

func TestFrequencySharesConstructor(t *testing.T) {
	sky := platform.Skylake()
	if _, err := NewFrequencyShares(sky, nil, ShareConfig{}); err == nil {
		t.Error("empty specs accepted")
	}
	bad := skySpecs2()
	bad[0].Shares = 0
	if _, err := NewFrequencyShares(sky, bad, ShareConfig{}); err == nil {
		t.Error("zero shares accepted")
	}
	oob := skySpecs2()
	oob[0].Core = 99
	if _, err := NewFrequencyShares(sky, oob, ShareConfig{}); err == nil {
		t.Error("core beyond chip accepted")
	}
	badChip := sky
	badChip.NumCores = 0
	if _, err := NewFrequencyShares(badChip, skySpecs2(), ShareConfig{}); err == nil {
		t.Error("invalid chip accepted")
	}
}

func TestFrequencySharesInitialProportions(t *testing.T) {
	p, err := NewFrequencyShares(platform.Skylake(), skySpecs2(), ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	actions := p.Initial()
	if p.Name() != "frequency-shares" {
		t.Errorf("Name = %q", p.Name())
	}
	f0, f1 := freqOf(actions, 0), freqOf(actions, 1)
	// Highest-share app at its ceiling (2 apps active: 3.0 GHz bin).
	if f0 != 3000*units.MHz {
		t.Errorf("high-share initial = %v, want 3 GHz", f0)
	}
	// Low-share app at 10/90 of max, floored at Min (800 MHz > 333 MHz).
	if f1 != 800*units.MHz {
		t.Errorf("low-share initial = %v, want the 800 MHz floor", f1)
	}
}

func TestFrequencySharesOverLimitWithdrawsProportionally(t *testing.T) {
	specs := []AppSpec{
		{Name: "a", Core: 0, Shares: 50},
		{Name: "b", Core: 1, Shares: 50},
	}
	p, err := NewFrequencyShares(platform.Skylake(), specs, ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p.Initial()
	before := p.Targets()
	p.Update(Snapshot{Limit: 50, PackagePower: 60, Apps: []AppState{
		{Spec: specs[0], Freq: before[0]},
		{Spec: specs[1], Freq: before[1]},
	}})
	after := p.Targets()
	if !(after[0] < before[0] && after[1] < before[1]) {
		t.Errorf("targets did not drop: %v -> %v", before, after)
	}
	// Equal shares: equal withdrawal.
	d0, d1 := before[0]-after[0], before[1]-after[1]
	if math.Abs(float64(d0-d1)) > 1 {
		t.Errorf("unequal withdrawal: %v vs %v", d0, d1)
	}
}

func TestFrequencySharesUnderLimitGrowsAndSaturates(t *testing.T) {
	specs := []AppSpec{
		{Name: "a", Core: 0, Shares: 90},
		{Name: "b", Core: 1, Shares: 10},
	}
	sky := platform.Skylake()
	p, err := NewFrequencyShares(sky, specs, ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p.Initial()
	// App a is already at its ceiling: all growth must flow to b
	// (min-funding revocation).
	before := p.Targets()
	p.Update(Snapshot{Limit: 85, PackagePower: 40})
	after := p.Targets()
	if after[0] != before[0] {
		t.Errorf("saturated app target moved: %v -> %v", before[0], after[0])
	}
	if after[1] <= before[1] {
		t.Errorf("unsaturated app did not grow: %v -> %v", before[1], after[1])
	}
}

func TestFrequencySharesDeadband(t *testing.T) {
	p, err := NewFrequencyShares(platform.Skylake(), skySpecs2(), ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p.Initial()
	if got := p.Update(Snapshot{Limit: 50, PackagePower: 49.8}); got != nil {
		t.Errorf("deadband update returned actions: %v", got)
	}
}

func TestFrequencySharesTargetsNeverLeaveRange(t *testing.T) {
	sky := platform.Skylake()
	p, err := NewFrequencyShares(sky, skySpecs2(), ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p.Initial()
	// Hammer with extreme snapshots.
	for i := 0; i < 100; i++ {
		limit := units.Watts(20 + i%60)
		power := units.Watts(100 - i%90)
		p.Update(Snapshot{Limit: limit, PackagePower: power})
		for _, f := range p.Targets() {
			if f < sky.Freq.Min || f > sky.Freq.Max() {
				t.Fatalf("target out of range: %v", f)
			}
		}
	}
}

func TestFrequencySharesUpdateWithoutInitial(t *testing.T) {
	p, err := NewFrequencyShares(platform.Skylake(), skySpecs2(), ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Update before Initial must self-initialise, not panic.
	actions := p.Update(Snapshot{Limit: 50, PackagePower: 80})
	if len(actions) == 0 {
		t.Error("no actions")
	}
}

func TestFrequencySharesRyzenClustering(t *testing.T) {
	ryz := platform.Ryzen()
	specs := []AppSpec{
		{Name: "a", Core: 0, Shares: 100}, {Name: "b", Core: 1, Shares: 80},
		{Name: "c", Core: 2, Shares: 60}, {Name: "d", Core: 3, Shares: 40},
		{Name: "e", Core: 4, Shares: 20}, {Name: "f", Core: 5, Shares: 10},
	}
	p, err := NewFrequencyShares(ryz, specs, ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	actions := p.Initial()
	set := make(map[units.Hertz]bool)
	for _, a := range actions {
		set[a.Freq] = true
	}
	if len(set) > 3 {
		t.Errorf("Ryzen actions use %d P-states, want <= 3", len(set))
	}
}

func TestPerformanceSharesRequiresBaselines(t *testing.T) {
	specs := skySpecs2()
	specs[1].BaselineIPS = 0
	if _, err := NewPerformanceShares(platform.Skylake(), specs, ShareConfig{}); err == nil {
		t.Error("missing baseline accepted")
	}
}

func TestPerformanceSharesInitial(t *testing.T) {
	p, err := NewPerformanceShares(platform.Skylake(), skySpecs2(), ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	actions := p.Initial()
	tg := p.Targets()
	if math.Abs(tg[0]-1.0) > 1e-9 {
		t.Errorf("high-share target = %v, want 1.0", tg[0])
	}
	if math.Abs(tg[1]-10.0/90) > 1e-9 {
		t.Errorf("low-share target = %v, want 1/9", tg[1])
	}
	if f := freqOf(actions, 0); f != 3000*units.MHz {
		t.Errorf("high-share initial freq = %v", f)
	}
}

func TestPerformanceSharesTranslationTracksMeasurement(t *testing.T) {
	specs := []AppSpec{
		{Name: "a", Core: 0, Shares: 50, BaselineIPS: 2e9},
		{Name: "b", Core: 1, Shares: 50, BaselineIPS: 2e9},
	}
	p, err := NewPerformanceShares(platform.Skylake(), specs, ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p.Initial()
	// App a overshoots its performance target (norm 1.0 vs target after
	// withdrawal), app b undershoots; in the deadband the translation must
	// still move a down and b up.
	snap := Snapshot{
		Limit: 50, PackagePower: 50,
		Apps: []AppState{
			{Spec: specs[0], Freq: 2 * units.GHz, IPS: 2e9},   // norm 1.0
			{Spec: specs[1], Freq: 2 * units.GHz, IPS: 0.8e9}, // norm 0.4
		},
	}
	// Force equal targets of 0.7 by construction: withdraw from initial.
	p.targets = []float64{0.7, 0.7}
	actions := p.Update(snap)
	fa, fb := freqOf(actions, 0), freqOf(actions, 1)
	if fa >= 2*units.GHz {
		t.Errorf("overshooting app frequency did not drop: %v", fa)
	}
	if fb <= 2*units.GHz {
		t.Errorf("undershooting app frequency did not rise: %v", fb)
	}
}

func TestPerformanceSharesTargetsStayInRange(t *testing.T) {
	p, err := NewPerformanceShares(platform.Skylake(), skySpecs2(), ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p.Initial()
	for i := 0; i < 200; i++ {
		p.Update(Snapshot{Limit: 40, PackagePower: units.Watts(20 + i%50)})
		for _, tg := range p.Targets() {
			if tg < minNormPerf-1e-9 || tg > 1+1e-9 {
				t.Fatalf("target out of range: %v", tg)
			}
		}
	}
}

func TestPowerSharesRequiresPerCorePower(t *testing.T) {
	if _, err := NewPowerShares(platform.Skylake(), skySpecs2(), ShareConfig{}); err == nil {
		t.Error("Skylake accepted for power shares")
	}
	if _, err := NewPowerShares(platform.Ryzen(), skySpecs2(), ShareConfig{}); err != nil {
		t.Errorf("Ryzen rejected: %v", err)
	}
}

func TestPowerSharesInitialProportions(t *testing.T) {
	ryz := platform.Ryzen()
	specs := []AppSpec{
		{Name: "a", Core: 0, Shares: 70},
		{Name: "b", Core: 1, Shares: 30},
	}
	p, err := NewPowerShares(ryz, specs, ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	actions := p.InitialForLimit(50)
	tg := p.Targets()
	if tg[0] <= tg[1] {
		t.Errorf("targets not ordered by shares: %v", tg)
	}
	// Budget excludes uncore and idle cores.
	budget := 50 - float64(ryz.Power.UncorePower) - 6*float64(ryz.Power.IdleCorePower)
	if got := float64(tg[0] + tg[1]); got > budget+1e-6 {
		t.Errorf("targets %v exceed budget %v", got, budget)
	}
	if f := freqOf(actions, 0); f <= freqOf(actions, 1) {
		t.Errorf("frequencies not ordered: %v vs %v", f, freqOf(actions, 1))
	}
}

func TestPowerSharesTranslationFeedback(t *testing.T) {
	ryz := platform.Ryzen()
	specs := []AppSpec{
		{Name: "a", Core: 0, Shares: 50},
		{Name: "b", Core: 1, Shares: 50},
	}
	p, err := NewPowerShares(ryz, specs, ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p.InitialForLimit(50)
	tg := p.Targets()
	snap := Snapshot{
		Limit: 50, PackagePower: 50,
		Apps: []AppState{
			// App a draws double its limit, app b half.
			{Spec: specs[0], Freq: 2 * units.GHz, Power: tg[0] * 2},
			{Spec: specs[1], Freq: 2 * units.GHz, Power: tg[1] / 2},
		},
	}
	actions := p.Update(snap)
	fa, fb := freqOf(actions, 0), freqOf(actions, 1)
	if fa >= 2*units.GHz {
		t.Errorf("over-budget app frequency did not drop: %v", fa)
	}
	if fb <= 2*units.GHz {
		t.Errorf("under-budget app frequency did not rise: %v", fb)
	}
}

func TestPriorityConstructor(t *testing.T) {
	sky := platform.Skylake()
	hp := []AppSpec{{Name: "h", Core: 0, HighPriority: true}}
	if _, err := NewPriority(sky, hp, PriorityConfig{Limit: 50}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if _, err := NewPriority(sky, hp, PriorityConfig{}); err == nil {
		t.Error("zero limit accepted")
	}
	lpOnly := []AppSpec{{Name: "l", Core: 0}}
	if _, err := NewPriority(sky, lpOnly, PriorityConfig{Limit: 50}); err == nil {
		t.Error("no-HP config accepted")
	}
}

func prioritySpecs(nHP, nLP int) []AppSpec {
	specs := make([]AppSpec, 0, nHP+nLP)
	for i := 0; i < nHP; i++ {
		specs = append(specs, AppSpec{Name: "hp", Core: i, HighPriority: true})
	}
	for i := 0; i < nLP; i++ {
		specs = append(specs, AppSpec{Name: "lp", Core: nHP + i})
	}
	return specs
}

func TestPriorityInitialParksLP(t *testing.T) {
	sky := platform.Skylake()
	p, err := NewPriority(sky, prioritySpecs(3, 7), PriorityConfig{Limit: 40})
	if err != nil {
		t.Fatal(err)
	}
	actions := p.Initial()
	// 3 HP active: 4-core turbo bin (2.8 GHz).
	if f := freqOf(actions, 0); f != 2800*units.MHz {
		t.Errorf("HP initial = %v, want 2.8 GHz", f)
	}
	for core := 3; core < 10; core++ {
		if !parked(actions, core) {
			t.Errorf("LP core %d not parked initially", core)
		}
	}
	if p.lpActive > 0 {
		t.Error("LPRunning true initially")
	}
}

func TestPriorityOverLimitThrottlesLPBeforeHP(t *testing.T) {
	sky := platform.Skylake()
	p, err := NewPriority(sky, prioritySpecs(2, 2), PriorityConfig{Limit: 50})
	if err != nil {
		t.Fatal(err)
	}
	p.Initial()
	// Force LP running at some speed.
	p.lpActive = len(p.lp)
	p.lpFreq = 1500 * units.MHz
	hpBefore := p.hpFreq
	p.Update(Snapshot{Limit: 50, PackagePower: 60})
	if p.lpFreq >= 1500*units.MHz || p.lpFreq < sky.Freq.Min {
		t.Errorf("LP freq = %v, want a downward move within range", p.lpFreq)
	}
	if p.hpFreq != hpBefore {
		t.Error("HP throttled while LP had headroom")
	}
	// Drive LP to the floor, then one more over-limit parks the class.
	p.lpFreq = sky.Freq.Min
	p.Update(Snapshot{Limit: 50, PackagePower: 60})
	if p.lpActive > 0 {
		t.Error("LP not starved at floor under over-limit")
	}
	// With LP starved, HP finally throttles.
	p.Update(Snapshot{Limit: 50, PackagePower: 60})
	if p.hpFreq >= hpBefore {
		t.Error("HP did not throttle after LP starved")
	}
}

func TestPriorityUnderLimitRaisesHPThenStartsLP(t *testing.T) {
	sky := platform.Skylake()
	p, err := NewPriority(sky, prioritySpecs(2, 2), PriorityConfig{Limit: 85})
	if err != nil {
		t.Fatal(err)
	}
	p.Initial()
	p.hpFreq = 2 * units.GHz
	p.Update(Snapshot{Limit: 85, PackagePower: 30})
	if p.hpFreq <= 2*units.GHz || p.hpFreq > p.hpCeiling() {
		t.Errorf("HP freq = %v, want an upward move toward the ceiling", p.hpFreq)
	}
	if p.lpActive > 0 {
		t.Error("LP started before HP reached ceiling")
	}
	// HP at ceiling with huge residual: LP class wakes at the floor.
	p.hpFreq = p.hpCeiling()
	p.Update(Snapshot{Limit: 85, PackagePower: 30})
	if p.lpActive == 0 {
		t.Fatal("LP not started despite residual")
	}
	if p.lpFreq != sky.Freq.Min {
		t.Errorf("LP started at %v, want floor", p.lpFreq)
	}
	// Next iteration raises LP.
	p.Update(Snapshot{Limit: 85, PackagePower: 40})
	if p.lpFreq <= sky.Freq.Min || p.lpFreq > p.lpCeiling() {
		t.Errorf("LP freq = %v, want a raise within range", p.lpFreq)
	}
}

func TestPriorityDoesNotStartLPWithoutHeadroom(t *testing.T) {
	sky := platform.Skylake()
	p, err := NewPriority(sky, prioritySpecs(3, 7), PriorityConfig{Limit: 40})
	if err != nil {
		t.Fatal(err)
	}
	p.Initial()
	p.hpFreq = p.hpCeiling()
	// Residual of 4 W cannot cover 7 LP cores plus the HP turbo-bin loss.
	p.Update(Snapshot{Limit: 40, PackagePower: 36})
	if p.lpActive > 0 {
		t.Error("LP started without sufficient residual")
	}
}

func TestPriorityActionCoverage(t *testing.T) {
	p, err := NewPriority(platform.Skylake(), prioritySpecs(2, 3), PriorityConfig{Limit: 50})
	if err != nil {
		t.Fatal(err)
	}
	actions := p.Initial()
	if len(actions) != 5 {
		t.Fatalf("actions = %d, want one per app", len(actions))
	}
	seen := make(map[int]bool)
	for _, a := range actions {
		seen[a.Core] = true
	}
	for core := 0; core < 5; core++ {
		if !seen[core] {
			t.Errorf("no action for core %d", core)
		}
	}
}
