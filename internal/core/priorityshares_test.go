package core

import (
	"slices"
	"testing"

	"repro/internal/platform"
	"repro/internal/units"
)

func prioritySharesSpecs() []AppSpec {
	return []AppSpec{
		{Name: "hpBig", Core: 0, Shares: 90, HighPriority: true},
		{Name: "hpSmall", Core: 1, Shares: 30, HighPriority: true},
		{Name: "lpBig", Core: 2, Shares: 60},
		{Name: "lpSmall", Core: 3, Shares: 20},
	}
}

func TestPrioritySharesConstructor(t *testing.T) {
	sky := platform.Skylake()
	if _, err := NewPriorityShares(sky, prioritySharesSpecs(), PriorityConfig{Limit: 50}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if _, err := NewPriorityShares(sky, prioritySharesSpecs(), PriorityConfig{}); err == nil {
		t.Error("zero limit accepted")
	}
	noShares := prioritySharesSpecs()
	noShares[0].Shares = 0
	if _, err := NewPriorityShares(sky, noShares, PriorityConfig{Limit: 50}); err == nil {
		t.Error("zero shares accepted")
	}
	lpOnly := []AppSpec{{Name: "l", Core: 0, Shares: 1}}
	if _, err := NewPriorityShares(sky, lpOnly, PriorityConfig{Limit: 50}); err == nil {
		t.Error("no-HP config accepted")
	}
}

func TestPrioritySharesInitial(t *testing.T) {
	sky := platform.Skylake()
	p, err := NewPriorityShares(sky, prioritySharesSpecs(), PriorityConfig{Limit: 50})
	if err != nil {
		t.Fatal(err)
	}
	actions := p.Initial()
	if p.Name() != "priority+shares" {
		t.Errorf("Name = %q", p.Name())
	}
	// Within the HP class, frequency follows shares: the 90-share app at
	// its ceiling (2 active cores -> 3.0 GHz), the 30-share app at a third.
	fBig, fSmall := freqOf(actions, 0), freqOf(actions, 1)
	if fBig != 3000*units.MHz {
		t.Errorf("high-share HP initial = %v, want 3 GHz", fBig)
	}
	if fSmall != 1000*units.MHz {
		t.Errorf("low-share HP initial = %v, want 1 GHz (30/90 of max)", fSmall)
	}
	// LP parked.
	if !parked(actions, 2) || !parked(actions, 3) {
		t.Error("LP not parked initially")
	}
}

func TestPrioritySharesLPPaysFirst(t *testing.T) {
	sky := platform.Skylake()
	p, err := NewPriorityShares(sky, prioritySharesSpecs(), PriorityConfig{Limit: 50})
	if err != nil {
		t.Fatal(err)
	}
	p.Initial()
	// Force LP running with headroom.
	p.lpActive = 2
	p.lpLevel = 0.5
	hpBefore := slices.Clone(p.classTargets(p.hp, p.hpLevel))
	lpBefore := slices.Clone(p.classTargets(p.lp[:2], p.lpLevel))
	p.Update(Snapshot{Limit: 50, PackagePower: 60})
	hpAfter := slices.Clone(p.classTargets(p.hp, p.hpLevel))
	lpAfter := slices.Clone(p.classTargets(p.lp[:2], p.lpLevel))
	if hpAfter[0] != hpBefore[0] || hpAfter[1] != hpBefore[1] {
		t.Error("HP throttled while LP had headroom")
	}
	if !(lpAfter[0] < lpBefore[0] || lpAfter[1] < lpBefore[1]) {
		t.Error("LP did not pay")
	}
	// At the LP floor, the class starves before HP pays.
	p.lpLevel = 0
	p.Update(Snapshot{Limit: 50, PackagePower: 60})
	if p.lpActive != 0 {
		t.Errorf("LPActive = %d, want starved", p.lpActive)
	}
	// Then HP pays.
	p.Update(Snapshot{Limit: 50, PackagePower: 60})
	hpFinal := slices.Clone(p.classTargets(p.hp, p.hpLevel))
	if hpFinal[0] >= hpAfter[0] {
		t.Error("HP did not throttle after LP starved")
	}
}

func TestPrioritySharesWithinClassOrdering(t *testing.T) {
	// Under any snapshot sequence, within-class frequencies stay ordered
	// by shares.
	sky := platform.Skylake()
	p, err := NewPriorityShares(sky, prioritySharesSpecs(), PriorityConfig{Limit: 45})
	if err != nil {
		t.Fatal(err)
	}
	p.Initial()
	powers := []units.Watts{60, 50, 44, 40, 35, 47, 43, 52, 41, 38}
	for i := 0; i < 60; i++ {
		actions := p.Update(Snapshot{Limit: 45, PackagePower: powers[i%len(powers)]})
		if freqOf(actions, 0) < freqOf(actions, 1) {
			t.Fatalf("HP ordering inverted: %v < %v", freqOf(actions, 0), freqOf(actions, 1))
		}
		if p.lpActive == 2 && !parked(actions, 2) && !parked(actions, 3) {
			if freqOf(actions, 2) < freqOf(actions, 3) {
				t.Fatalf("LP ordering inverted: %v < %v", freqOf(actions, 2), freqOf(actions, 3))
			}
		}
	}
}

// With equal shares everywhere, the composed policy devolves to the plain
// priority policy's class behaviour (Section 4.1's observation).
func TestPrioritySharesEqualSharesDevolves(t *testing.T) {
	sky := platform.Skylake()
	specs := prioritySpecs(2, 2)
	for i := range specs {
		specs[i].Shares = 50
	}
	p, err := NewPriorityShares(sky, specs, PriorityConfig{Limit: 85})
	if err != nil {
		t.Fatal(err)
	}
	actions := p.Initial()
	if freqOf(actions, 0) != freqOf(actions, 1) {
		t.Errorf("equal-share HP apps diverged: %v vs %v", freqOf(actions, 0), freqOf(actions, 1))
	}
	// Grow LP with a huge residual; both LP apps track together.
	p.Update(Snapshot{Limit: 85, PackagePower: 20})
	p.Update(Snapshot{Limit: 85, PackagePower: 25})
	actions = p.Update(Snapshot{Limit: 85, PackagePower: 35})
	if p.lpActive == 2 {
		if freqOf(actions, 2) != freqOf(actions, 3) {
			t.Errorf("equal-share LP apps diverged: %v vs %v", freqOf(actions, 2), freqOf(actions, 3))
		}
	}
}

func TestPrioritySharesRyzenClusters(t *testing.T) {
	ryz := platform.Ryzen()
	specs := []AppSpec{
		{Name: "a", Core: 0, Shares: 100, HighPriority: true},
		{Name: "b", Core: 1, Shares: 60, HighPriority: true},
		{Name: "c", Core: 2, Shares: 40, HighPriority: true},
		{Name: "d", Core: 3, Shares: 25, HighPriority: true},
		{Name: "e", Core: 4, Shares: 10, HighPriority: true},
	}
	p, err := NewPriorityShares(ryz, specs, PriorityConfig{Limit: 50})
	if err != nil {
		t.Fatal(err)
	}
	actions := p.Initial()
	set := make(map[units.Hertz]bool)
	for _, a := range actions {
		if !a.Park {
			set[a.Freq] = true
		}
	}
	if len(set) > 3 {
		t.Errorf("Ryzen actions use %d P-states, want <= 3", len(set))
	}
}
