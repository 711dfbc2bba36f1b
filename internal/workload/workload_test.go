package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/units"
)

func TestAllProfilesValid(t *testing.T) {
	for _, p := range SPEC2017() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	if err := CPUBurn.Validate(); err != nil {
		t.Errorf("cpuburn: %v", err)
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	good := MustByName("gcc")
	cases := []struct {
		name string
		mut  func(*Profile)
	}{
		{"no name", func(p *Profile) { p.Name = "" }},
		{"zero CPI", func(p *Profile) { p.BaseCPI = 0 }},
		{"negative stall", func(p *Profile) { p.MemStall = -1 }},
		{"zero activity", func(p *Profile) { p.Activity = 0 }},
		{"zero instructions", func(p *Profile) { p.TotalInstructions = 0 }},
		{"bad phase", func(p *Profile) { p.Phases = []Phase{{Instructions: 0, CPIMult: 1, ActivityMult: 1}} }},
	}
	for _, c := range cases {
		p := good
		c.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, n := range Names() {
		if _, err := ByName(n); err != nil {
			t.Errorf("ByName(%q): %v", n, err)
		}
	}
	if p, err := ByName("cpugcc"); err != nil || p.Name != "gcc" {
		t.Errorf("cpugcc alias broken: %v %v", p.Name, err)
	}
	if _, err := ByName("cpuburn"); err != nil {
		t.Errorf("cpuburn lookup: %v", err)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestSPEC2017CopyIsolated(t *testing.T) {
	a := SPEC2017()
	a[0].Name = "mutated"
	b := SPEC2017()
	if b[0].Name == "mutated" {
		t.Error("SPEC2017 returns shared backing array")
	}
}

func TestIPSMonotoneInFrequency(t *testing.T) {
	for _, p := range SPEC2017() {
		prev := 0.0
		for f := 800 * units.MHz; f <= 3*units.GHz; f += 100 * units.MHz {
			ips := p.IPS(f)
			if ips <= prev {
				t.Errorf("%s: IPS not increasing at %v", p.Name, f)
			}
			prev = ips
		}
	}
}

func TestIPSZeroFrequency(t *testing.T) {
	p := MustByName("gcc")
	if p.IPS(0) != 0 {
		t.Error("IPS(0) should be 0")
	}
}

func TestMemoryBoundSaturates(t *testing.T) {
	lbm := MustByName("lbm")
	exch := MustByName("exchange2")
	lo, hi := 1*units.GHz, 3*units.GHz
	sLbm := sensitivity(lbm, lo, hi)
	sExch := sensitivity(exch, lo, hi)
	if sLbm >= sExch {
		t.Errorf("lbm sensitivity %.3f should be below exchange2 %.3f", sLbm, sExch)
	}
	if sExch < 0.9 {
		t.Errorf("exchange2 should be near frequency-proportional, got %.3f", sExch)
	}
	if sLbm > 0.65 {
		t.Errorf("lbm should saturate, got sensitivity %.3f", sLbm)
	}
}

// sensitivity is IPS(hi)/IPS(lo) over hi/lo: 1 core-bound, lo/hi memory-bound.
func sensitivity(p Profile, lo, hi units.Hertz) float64 {
	return (p.IPS(hi) / p.IPS(lo)) / (float64(hi) / float64(lo))
}

// The profiles' activity factors put the paper's high-demand applications
// above the subset's median and its low-demand ones at or below it.
func TestDemandClasses(t *testing.T) {
	var acts []float64
	for _, p := range SPEC2017() {
		acts = append(acts, p.Activity)
	}
	sort.Float64s(acts)
	median := acts[len(acts)/2]
	for n, hd := range map[string]bool{"lbm": true, "cactusBSSN": true, "imagick": true, "cam4": true,
		"gcc": false, "leela": false, "omnetpp": false, "deepsjeng": false} {
		if got := MustByName(n).Activity > median; got != hd {
			t.Errorf("%s: high demand %v, want %v", n, got, hd)
		}
	}
}

func TestAVXFlags(t *testing.T) {
	avx := map[string]bool{"lbm": true, "imagick": true, "cam4": true}
	for _, p := range SPEC2017() {
		if p.AVX != avx[p.Name] {
			t.Errorf("%s: AVX = %v, want %v", p.Name, p.AVX, avx[p.Name])
		}
	}
	if !CPUBurn.AVX {
		t.Error("cpuburn should be AVX")
	}
}

func TestRuntimeScalesDownWithFrequency(t *testing.T) {
	// gcc is nearly core-bound: doubling frequency should nearly halve its
	// runtime, the inverse of its IPS, but not quite (memory stall).
	p := MustByName("gcc")
	ratio := p.IPS(2*units.GHz) / p.IPS(1*units.GHz)
	if ratio < 1.5 || ratio > 2.0 {
		t.Errorf("gcc runtime ratio = %.2f, want within (1.5, 2.0)", ratio)
	}
}

func TestInstanceAdvanceAccounting(t *testing.T) {
	p := MustByName("exchange2")
	in := NewInstance(p)
	f := 2 * units.GHz
	got := in.Advance(f, time.Second)
	want := p.IPS(f)
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("Advance retired %g, want %g", got, want)
	}
	if in.TotalInstructions() != got {
		t.Errorf("TotalInstructions = %g, want %g", in.TotalInstructions(), got)
	}
}

func TestInstanceRestartsOnCompletion(t *testing.T) {
	p := MustByName("gcc")
	p.TotalInstructions = 1e9
	p.Phases = nil
	in := NewInstance(p)
	f := 2 * units.GHz
	// Run long enough for several completions.
	for i := 0; i < 10; i++ {
		in.Advance(f, time.Second)
	}
	expectRuns := int(p.IPS(f) * 10 / 1e9)
	if in.RunsCompleted() < expectRuns-1 || in.RunsCompleted() > expectRuns+1 {
		t.Errorf("RunsCompleted = %d, want about %d", in.RunsCompleted(), expectRuns)
	}
	if in.Progress() < 0 || in.Progress() >= 1 {
		t.Errorf("Progress = %v, want [0,1)", in.Progress())
	}
}

func TestInstancePhaseCycling(t *testing.T) {
	p := Profile{
		Name: "phasey", BaseCPI: 1, Activity: 1, TotalInstructions: 1e12,
		Phases: []Phase{
			{Instructions: 1e9, CPIMult: 1.0, ActivityMult: 1.0},
			{Instructions: 1e9, CPIMult: 2.0, ActivityMult: 1.5},
		},
	}
	in := NewInstance(p)
	f := 1 * units.GHz
	if in.CurrentCPI() != 1.0 {
		t.Fatalf("initial CPI = %v", in.CurrentCPI())
	}
	// Phase 0 lasts exactly 1s at 1 GHz and CPI 1.
	in.Advance(f, time.Second)
	if in.CurrentCPI() != 2.0 || in.CurrentActivity() != 1.5 {
		t.Errorf("after phase 0: CPI=%v act=%v, want 2.0/1.5", in.CurrentCPI(), in.CurrentActivity())
	}
	// Phase 1 lasts 2s at 1 GHz and CPI 2.
	in.Advance(f, 2*time.Second)
	if in.CurrentCPI() != 1.0 {
		t.Errorf("phase train did not cycle: CPI=%v", in.CurrentCPI())
	}
}

func TestInstanceAdvanceCrossesBoundaries(t *testing.T) {
	// One big Advance spanning several phase and run boundaries must retire
	// the same instructions as many small Advances.
	p := Profile{
		Name: "boundary", BaseCPI: 1, Activity: 1, TotalInstructions: 3e8,
		Phases: []Phase{
			{Instructions: 1e8, CPIMult: 1.0, ActivityMult: 1.0},
			{Instructions: 1e8, CPIMult: 1.5, ActivityMult: 1.0},
		},
	}
	f := 1 * units.GHz
	big := NewInstance(p)
	bigRet := big.Advance(f, 5*time.Second)

	small := NewInstance(p)
	var smallRet float64
	for i := 0; i < 5000; i++ {
		smallRet += small.Advance(f, time.Millisecond)
	}
	if math.Abs(bigRet-smallRet)/bigRet > 1e-6 {
		t.Errorf("big step retired %g, small steps %g", bigRet, smallRet)
	}
	if big.RunsCompleted() != small.RunsCompleted() {
		t.Errorf("runs: big %d, small %d", big.RunsCompleted(), small.RunsCompleted())
	}
}

func TestInstanceReset(t *testing.T) {
	in := NewInstance(MustByName("leela"))
	in.Advance(2*units.GHz, 5*time.Second)
	in.Reset()
	if in.TotalInstructions() != 0 || in.Progress() != 0 ||
		in.RunsCompleted() != 0 || in.CurrentCPI() != in.Profile.BaseCPI*in.Profile.Phases[0].CPIMult {
		t.Error("Reset did not clear state")
	}
}

func TestAdvanceZeroDuration(t *testing.T) {
	in := NewInstance(MustByName("gcc"))
	if got := in.Advance(2*units.GHz, 0); got != 0 {
		t.Errorf("Advance(0) = %g", got)
	}
	if got := in.Advance(2*units.GHz, -time.Second); got != 0 {
		t.Errorf("Advance(-1s) = %g", got)
	}
}

// Property: synthetic profiles are always valid and instruction accounting
// is conserved across arbitrary step sizes.
func TestSyntheticProperties(t *testing.T) {
	prop := func(seed int64, stepsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Synthetic("syn", rng)
		if p.Validate() != nil {
			return false
		}
		in := NewInstance(p)
		steps := int(stepsRaw)%20 + 1
		var total float64
		for i := 0; i < steps; i++ {
			dt := time.Duration(rng.Intn(500)+1) * time.Millisecond
			total += in.Advance(2*units.GHz, dt)
		}
		return math.Abs(total-in.TotalInstructions()) <= 1e-6*total+1e-3
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGccVsCam4DemandOrdering(t *testing.T) {
	// The motivating example: gcc is low demand, cam4 high demand.
	gcc, cam4 := MustByName("gcc"), MustByName("cam4")
	if gcc.Activity >= cam4.Activity {
		t.Errorf("gcc activity %v should be below cam4 %v", gcc.Activity, cam4.Activity)
	}
	if !cam4.AVX || gcc.AVX {
		t.Error("cam4 should be AVX, gcc not")
	}
}
