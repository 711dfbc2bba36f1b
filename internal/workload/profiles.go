package workload

import (
	"fmt"
)

// The SPEC CPU2017 rate-1 subset the paper evaluates (Section 3.1), plus the
// cpuburn power virus used in the latency-sensitive experiments. The
// parameters are calibrated to the qualitative classes the paper reports,
// not to absolute SPEC scores:
//
//   - gcc and leela are low demand (LD); cactusBSSN, cam4, lbm and imagick
//     are high demand (HD);
//   - lbm, imagick and cam4 use AVX: they are the power outliers of
//     Figures 2-3 and are capped at the platform's AVX licence frequency
//     (which makes their performance saturate below max frequency);
//   - omnetpp and lbm are memory-bound: large frequency-insensitive stall;
//   - exchange2 and povray are core-bound: near-linear scaling with
//     frequency.
//
// MemStall is in seconds per instruction. TotalInstructions are scaled so
// runs complete in minutes of virtual time at nominal frequency.
var specProfiles = []Profile{
	{
		Name: "lbm", BaseCPI: 0.90, MemStall: 0.55e-9, Activity: 1.45, AVX: true,
		TotalInstructions: 2.4e11,
	},
	{
		Name: "cactusBSSN", BaseCPI: 1.10, MemStall: 0.20e-9, Activity: 1.30,
		TotalInstructions: 3.0e11,
		Phases: []Phase{
			{Instructions: 4e9, CPIMult: 1.00, ActivityMult: 1.00},
			{Instructions: 1e9, CPIMult: 1.10, ActivityMult: 1.05},
		},
	},
	{
		Name: "povray", BaseCPI: 0.80, MemStall: 0.01e-9, Activity: 1.05,
		TotalInstructions: 4.2e11,
	},
	{
		Name: "imagick", BaseCPI: 0.75, MemStall: 0.02e-9, Activity: 1.50, AVX: true,
		TotalInstructions: 4.5e11,
	},
	{
		Name: "cam4", BaseCPI: 1.00, MemStall: 0.12e-9, Activity: 1.40, AVX: true,
		TotalInstructions: 3.2e11,
		Phases: []Phase{
			{Instructions: 6e9, CPIMult: 1.00, ActivityMult: 1.00},
			{Instructions: 2e9, CPIMult: 1.15, ActivityMult: 0.95},
		},
	},
	{
		Name: "gcc", BaseCPI: 0.95, MemStall: 0.10e-9, Activity: 0.85,
		TotalInstructions: 3.8e11,
		Phases: []Phase{
			{Instructions: 5e9, CPIMult: 1.00, ActivityMult: 1.00},
			{Instructions: 2e9, CPIMult: 1.08, ActivityMult: 1.02},
		},
	},
	{
		Name: "exchange2", BaseCPI: 0.85, MemStall: 0.02e-9, Activity: 0.88,
		TotalInstructions: 4.6e11,
	},
	{
		Name: "deepsjeng", BaseCPI: 0.95, MemStall: 0.06e-9, Activity: 0.90,
		TotalInstructions: 4.0e11,
	},
	{
		Name: "leela", BaseCPI: 1.05, MemStall: 0.05e-9, Activity: 0.80,
		TotalInstructions: 3.6e11,
		Phases: []Phase{
			{Instructions: 3e9, CPIMult: 0.97, ActivityMult: 1.00},
			{Instructions: 3e9, CPIMult: 1.04, ActivityMult: 1.00},
		},
	},
	{
		Name: "perlbench", BaseCPI: 1.00, MemStall: 0.08e-9, Activity: 0.92,
		TotalInstructions: 3.9e11,
	},
	{
		Name: "omnetpp", BaseCPI: 1.30, MemStall: 0.45e-9, Activity: 0.82,
		TotalInstructions: 2.2e11,
	},
}

// CPUBurn is the cpuburn power virus: maximal switching activity, purely
// core-bound, AVX-heavy. It exists only to draw power (Figures 5, 12, 13).
var CPUBurn = Profile{
	Name: "cpuburn", BaseCPI: 0.60, MemStall: 0, Activity: 2.00, AVX: true,
	TotalInstructions: 1e12,
}

// SPEC2017 returns the paper's 11-benchmark subset, in the paper's order.
// The returned slice is a copy; callers may modify it.
func SPEC2017() []Profile {
	out := make([]Profile, len(specProfiles))
	copy(out, specProfiles)
	return out
}

// Names returns the names of the SPEC2017 subset in order.
func Names() []string {
	out := make([]string, len(specProfiles))
	for i, p := range specProfiles {
		out[i] = p.Name
	}
	return out
}

// ByName returns the named profile. Recognized names are the paper's
// SPEC2017 subset ("gcc" also answers to "cpugcc", as the paper uses both),
// the extended SPEC2017 benchmarks, and "cpuburn".
func ByName(name string) (Profile, error) {
	if name == "cpugcc" {
		name = "gcc"
	}
	if name == CPUBurn.Name {
		return CPUBurn, nil
	}
	for _, p := range specProfiles {
		if p.Name == name {
			return p, nil
		}
	}
	for _, p := range extendedProfiles {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown profile %q", name)
}

// MustByName is ByName for static tables; it panics on unknown names.
func MustByName(name string) Profile {
	p, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}
