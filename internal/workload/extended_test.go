package workload

import (
	"testing"

	"repro/internal/units"
)

func TestExtendedProfilesValid(t *testing.T) {
	for _, p := range extendedProfiles {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestExtendedLookup(t *testing.T) {
	for _, want := range extendedProfiles {
		p, err := ByName(want.Name)
		if err != nil {
			t.Errorf("ByName(%q): %v", want.Name, err)
		}
		if p.Name != want.Name {
			t.Errorf("ByName(%q) returned %q", want.Name, p.Name)
		}
	}
}

func TestExtendedDisjointFromSubset(t *testing.T) {
	subset := make(map[string]bool)
	for _, n := range Names() {
		subset[n] = true
	}
	for _, p := range extendedProfiles {
		if subset[p.Name] {
			t.Errorf("%s appears in both the paper subset and the extension", p.Name)
		}
	}
}

func TestExtendedClassAssignments(t *testing.T) {
	// mcf is the canonical memory-bound integer benchmark; namd the
	// canonical core-bound FP one.
	mcf := MustByName("mcf")
	namd := MustByName("namd")
	lo, hi := 1*units.GHz, 3*units.GHz
	if sensitivity(mcf, lo, hi) >= sensitivity(namd, lo, hi) {
		t.Error("mcf should be less frequency-sensitive than namd")
	}
	// bwaves and x264 carry the AVX licence.
	for _, n := range []string{"bwaves", "x264", "wrf"} {
		if !MustByName(n).AVX {
			t.Errorf("%s should be AVX", n)
		}
	}
}

func TestPaperSubsetUnchanged(t *testing.T) {
	if got := len(SPEC2017()); got != 11 {
		t.Errorf("paper subset = %d profiles, must stay 11", got)
	}
	if got := len(Names()); got != 11 {
		t.Errorf("Names() = %d, must stay 11", got)
	}
}
