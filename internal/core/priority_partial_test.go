package core

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/units"
)

func TestPartialLPStarvesOneAtATime(t *testing.T) {
	sky := platform.Skylake()
	p, err := NewPriority(sky, prioritySpecs(2, 4), PriorityConfig{Limit: 50, PartialLP: true})
	if err != nil {
		t.Fatal(err)
	}
	p.Initial()
	p.lpActive = 4
	p.lpFreq = sky.Freq.Min
	// Over the limit with LP at the floor: exactly one LP app parks.
	p.Update(Snapshot{Limit: 50, PackagePower: 55})
	if p.lpActive != 3 {
		t.Errorf("LPActive = %d, want 3", p.lpActive)
	}
	// The classic policy would have parked the whole class.
	classic, err := NewPriority(sky, prioritySpecs(2, 4), PriorityConfig{Limit: 50})
	if err != nil {
		t.Fatal(err)
	}
	classic.Initial()
	classic.lpActive = 4
	classic.lpFreq = sky.Freq.Min
	classic.Update(Snapshot{Limit: 50, PackagePower: 55})
	if classic.lpActive != 0 {
		t.Errorf("classic LPActive = %d, want 0", classic.lpActive)
	}
}

func TestPartialLPGrowsOneAtATime(t *testing.T) {
	sky := platform.Skylake()
	p, err := NewPriority(sky, prioritySpecs(2, 4), PriorityConfig{Limit: 85, PartialLP: true})
	if err != nil {
		t.Fatal(err)
	}
	p.Initial()
	p.hpFreq = p.hpCeiling()
	p.Update(Snapshot{Limit: 85, PackagePower: 30})
	if p.lpActive != 1 {
		t.Errorf("LPActive after first grow = %d, want 1", p.lpActive)
	}
	p.hpFreq = p.hpCeiling() // occupancy changed the ceiling
	p.Update(Snapshot{Limit: 85, PackagePower: 35})
	if p.lpActive != 2 {
		t.Errorf("LPActive after second grow = %d, want 2", p.lpActive)
	}
}

func TestPartialActionsParkTail(t *testing.T) {
	sky := platform.Skylake()
	p, err := NewPriority(sky, prioritySpecs(2, 3), PriorityConfig{Limit: 50, PartialLP: true})
	if err != nil {
		t.Fatal(err)
	}
	p.Initial()
	p.lpActive = 2
	actions := p.actions()
	// LP cores are 2, 3, 4; the first two run, the last parks.
	if parked(actions, 2) || parked(actions, 3) {
		t.Error("running LP cores parked")
	}
	if !parked(actions, 4) {
		t.Error("tail LP core not parked")
	}
}

// Closed-loop contrast at 40 W with 3 HP / 7 LP: the classic policy starves
// everything and boosts HP turbo; partial mode runs some LP at the cost of
// the HP turbo bin — the trade the paper describes.
func TestPartialVsClassicTradeoff(t *testing.T) {
	// This is exercised end-to-end in the experiments package
	// (ConsolidationStudy); here we verify the policy-level invariant that
	// partial mode never reports more active LP apps than exist and never
	// goes negative, across a noisy snapshot sequence.
	sky := platform.Skylake()
	p, err := NewPriority(sky, prioritySpecs(3, 7), PriorityConfig{Limit: 40, PartialLP: true})
	if err != nil {
		t.Fatal(err)
	}
	p.Initial()
	powers := []units.Watts{60, 55, 45, 38, 35, 42, 39, 36, 41, 37, 44, 33, 38, 40, 39}
	for i := 0; i < 100; i++ {
		p.Update(Snapshot{Limit: 40, PackagePower: powers[i%len(powers)]})
		if p.lpActive < 0 || p.lpActive > 7 {
			t.Fatalf("LPActive out of range: %d", p.lpActive)
		}
	}
}
