package sim

import (
	"testing"
	"time"

	"repro/internal/msr"
	"repro/internal/platform"
)

// TestPerSocketEnergyDomains loads one socket of a two-socket package
// and checks the RAPL domains stay separate: the busy socket accumulates
// more energy than the idle one, the package total is their sum, and the
// energy MSR read through a CPU reports that CPU's own socket domain.
func TestPerSocketEnergyDomains(t *testing.T) {
	chip := platform.MultiSocket(platform.Skylake(), 2)
	m, err := New(chip)
	if err != nil {
		t.Fatal(err)
	}
	cps := chip.CoresPerSocket()
	// All work on socket 0; socket 1 idles (uncore + idle core power only).
	for i := 0; i < cps; i++ {
		pin(t, m, "gcc", i)
	}
	m.Run(100 * time.Millisecond)

	e0, e1 := m.energySocket[0], m.energySocket[1]
	if e0 <= 0 || e1 <= 0 {
		t.Fatalf("socket energy: %v, %v; both domains must accumulate", e0, e1)
	}
	if e0 <= e1 {
		t.Fatalf("busy socket %v <= idle socket %v", e0, e1)
	}
	if got, want := m.PackageEnergy(), e0+e1; got != want {
		t.Fatalf("package energy %v != socket sum %v", got, want)
	}

	// The MSR view mirrors the domains: cpu 0 reads socket 0's counter,
	// a cpu on the second socket reads socket 1's, and they differ.
	dev := m.Device()
	c0, err := dev.Read(0, msr.PkgEnergyStatus)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := dev.Read(cps, msr.PkgEnergyStatus)
	if err != nil {
		t.Fatal(err)
	}
	if c0 == c1 {
		t.Fatalf("energy MSR identical across sockets (%d); domains are shared", c0)
	}
	if c0 <= c1 {
		t.Fatalf("busy socket counter %d <= idle socket counter %d", c0, c1)
	}
}
