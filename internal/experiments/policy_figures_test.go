package experiments

import (
	"math"
	"testing"

	"repro/internal/units"
)

func TestFigure7Shape(t *testing.T) {
	res, err := Figure7()
	if err != nil {
		t.Fatal(err)
	}
	cell := func(mix string, limit units.Watts, kind PolicyKind) PriorityCell {
		for _, c := range res.Cells {
			if c.Mix == mix && c.Limit == limit && c.Policy == kind {
				return c
			}
		}
		t.Fatalf("missing cell %s/%v/%s", mix, limit, kind)
		return PriorityCell{}
	}
	// At 85 W everything runs under the priority policy.
	if c := cell("5H 5L", 85, PriorityPol); c.LPStarved || c.LPNorm <= 0 {
		t.Errorf("85 W starved LP: %+v", c)
	}
	// At 40 W with many HP apps, LP is starved and HP keeps most of its
	// standalone performance.
	c40 := cell("7H 3L", 40, PriorityPol)
	if !c40.LPStarved {
		t.Error("7H 3L at 40 W did not starve LP")
	}
	if c40.HPNorm < 0.5 {
		t.Errorf("7H 3L HP norm = %.3f, too low", c40.HPNorm)
	}
	// Opportunistic scaling: with only 3 HP apps at 40 W, the HP class
	// runs *faster* than at 85 W where all 10 cores are busy.
	h40 := cell("3H 7L", 40, PriorityPol)
	h85 := cell("3H 7L", 85, PriorityPol)
	if !h40.LPStarved {
		t.Error("3H 7L at 40 W should starve LP")
	}
	if h40.HPFreq <= h85.HPFreq {
		t.Errorf("no opportunistic boost: HP %v at 40 W vs %v at 85 W", h40.HPFreq, h85.HPFreq)
	}
	// RAPL makes no class distinction: HP and LP frequencies match.
	r := cell("5H 5L", 40, RAPL)
	if math.Abs(float64(r.HPFreq-r.LPFreq)) > 1e8 {
		t.Errorf("RAPL differentiated classes: %v vs %v", r.HPFreq, r.LPFreq)
	}
	// The priority policy protects HP far better than RAPL at 40 W.
	p := cell("5H 5L", 40, PriorityPol)
	if p.HPNorm <= r.HPNorm {
		t.Errorf("priority HP norm %.3f not above RAPL's %.3f", p.HPNorm, r.HPNorm)
	}
}

func TestFigure8Shape(t *testing.T) {
	res, err := Figure8()
	if err != nil {
		t.Fatal(err)
	}
	cell := func(mix string, limit units.Watts) PriorityCell {
		for _, c := range res.Cells {
			if c.Mix == mix && c.Limit == limit && c.Policy == PriorityPol {
				return c
			}
		}
		t.Fatalf("missing cell %s/%v", mix, limit)
		return PriorityCell{}
	}
	// At 40 W every mix with an LP class starves it.
	for _, mix := range []string{"6H 2L", "4H 4L", "2H 6L"} {
		if c := cell(mix, 40); !c.LPStarved {
			t.Errorf("%s at 40 W did not starve LP", mix)
		}
	}
	// At 85 W the 4H 4L mix runs its LP class.
	if c := cell("4H 4L", 85); c.LPStarved {
		t.Error("4H 4L at 85 W starved LP")
	}
	// Per-core power is measured on Ryzen: HP power must be positive.
	if c := cell("4H 4L", 50); c.HPPower <= 0 {
		t.Errorf("no per-core power on Ryzen: %+v", c)
	}
	// Package power respects the limit.
	for _, c := range res.Cells {
		if c.Package > c.Limit*1.08 {
			t.Errorf("%s at %v: package %v over limit", c.Mix, c.Limit, c.Package)
		}
	}
}

func TestFigure9Shape(t *testing.T) {
	res, err := Figure9()
	if err != nil {
		t.Fatal(err)
	}
	cell := func(ld units.Shares, limit units.Watts, kind PolicyKind) ShareCell {
		for _, c := range res.Cells {
			if c.LDShare == ld && c.Limit == limit && c.Policy == kind {
				return c
			}
		}
		t.Fatalf("missing cell %d/%v/%s", ld, limit, kind)
		return ShareCell{}
	}
	for _, kind := range []PolicyKind{FreqShares, PerfShares} {
		// Share ordering holds at 50 W: 90/10 puts LD on top, 10/90 HD.
		hi := cell(90, 50, kind)
		lo := cell(10, 50, kind)
		if hi.LDFreq <= hi.HDFreq {
			t.Errorf("%s 90/10: LD %v <= HD %v", kind, hi.LDFreq, hi.HDFreq)
		}
		if lo.LDFreq >= lo.HDFreq {
			t.Errorf("%s 10/90: LD %v >= HD %v", kind, lo.LDFreq, lo.HDFreq)
		}
		// The LD frequency fraction grows with the LD share.
		if hi.LDFreqFrac <= lo.LDFreqFrac {
			t.Errorf("%s: freq fraction not monotone: %.3f <= %.3f", kind, hi.LDFreqFrac, lo.LDFreqFrac)
		}
		// Low dynamic range: even at 10 shares the LD class keeps more
		// than 20%% of the frequency (800 MHz floor).
		if lo.LDFreqFrac < 0.2 {
			t.Errorf("%s: LD freq frac %.3f below the floor-imposed minimum", kind, lo.LDFreqFrac)
		}
		// Power is held at the limit.
		for _, limit := range []units.Watts{50, 40} {
			if c := cell(50, limit, kind); c.Package > limit*1.05 {
				t.Errorf("%s at %v: package %v over limit", kind, limit, c.Package)
			}
		}
	}
	// Frequency and performance shares give similar results (the paper's
	// key simplification argument): compare the 70/30 LD freq fraction.
	f := cell(70, 50, FreqShares)
	p := cell(70, 50, PerfShares)
	if math.Abs(f.LDFreqFrac-p.LDFreqFrac) > 0.15 {
		t.Errorf("freq vs perf shares diverge: %.3f vs %.3f", f.LDFreqFrac, p.LDFreqFrac)
	}
}

func TestFigure10Shape(t *testing.T) {
	res, err := Figure10()
	if err != nil {
		t.Fatal(err)
	}
	cell := func(ld units.Shares, limit units.Watts, kind PolicyKind) ShareCell {
		for _, c := range res.Cells {
			if c.LDShare == ld && c.Limit == limit && c.Policy == kind {
				return c
			}
		}
		t.Fatalf("missing cell %d/%v/%s", ld, limit, kind)
		return ShareCell{}
	}
	// Power shares track the power ratio at moderate ratios.
	for _, ratio := range []units.Shares{30, 50, 70} {
		c := cell(ratio, 50, PowerShares)
		want := float64(ratio) / 100
		if math.Abs(c.LDPowerFrac-want) > 0.15 {
			t.Errorf("power shares %d/50W: LD power frac %.3f, want ~%.2f", ratio, c.LDPowerFrac, want)
		}
	}
	// Power shares isolate performance worst: at equal shares, the LD app
	// gets much more performance than the HD app (equal power buys the
	// low-demand app more frequency).
	ps := cell(50, 50, PowerShares)
	if ps.LDNorm <= ps.HDNorm {
		t.Errorf("power shares should favour LD performance at equal shares: %.3f vs %.3f",
			ps.LDNorm, ps.HDNorm)
	}
	// Frequency shares at equal ratio give both classes the same
	// frequency.
	fs := cell(50, 50, FreqShares)
	if math.Abs(float64(fs.LDFreq-fs.HDFreq)) > 2e8 {
		t.Errorf("equal frequency shares diverged: %v vs %v", fs.LDFreq, fs.HDFreq)
	}
	// All policies respect the limit.
	for _, c := range res.Cells {
		if c.Package > c.Limit*1.08 {
			t.Errorf("%s %d/%v: package %v over limit", c.Policy, c.LDShare, c.Limit, c.Package)
		}
	}
}

func TestFigure11Shape(t *testing.T) {
	res, err := Figure11()
	if err != nil {
		t.Fatal(err)
	}
	get := func(set string, idx int, limit units.Watts, kind PolicyKind) RandomCell {
		for _, c := range res.Cells {
			if c.Set == set && c.AppIdx == idx && c.Limit == limit && c.Policy == kind {
				return c
			}
		}
		t.Fatalf("missing cell %s/%d/%v/%s", set, idx, limit, kind)
		return RandomCell{}
	}
	// Set A under frequency shares at 50 W: frequency ordered by shares.
	for i := 0; i < 4; i++ {
		lo := get("A", i, 50, FreqShares)
		hi := get("A", i+1, 50, FreqShares)
		if hi.Freq < lo.Freq-units.Hertz(50*units.MHz) {
			t.Errorf("set A freq not ordered by shares: app%d %v > app%d %v",
				i, lo.Freq, i+1, hi.Freq)
		}
	}
	// Set B's AVX applications saturate below the normal ceiling even at
	// 85 W (cam4 = app 3, lbm = app 4).
	for _, idx := range []int{3, 4} {
		c := get("B", idx, 85, FreqShares)
		if c.Freq > 1800*units.MHz {
			t.Errorf("set B AVX app %d at %v, should be licence-capped", idx, c.Freq)
		}
	}
	// With surplus power (85 W) the policy is work-conserving: min-funding
	// revocation raises every set-A app to the same ceiling, so there is no
	// frequency differentiation.
	spread := func(limit units.Watts, from, to int) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := from; i <= to; i++ {
			f := float64(get("A", i, limit, FreqShares).Freq)
			lo = math.Min(lo, f)
			hi = math.Max(hi, f)
		}
		return hi - lo
	}
	if s := spread(85, 0, 4); s > 5e7 {
		t.Errorf("85 W should be work-conserving (no spread), got %.0f Hz", s)
	}
	// Under pressure the shares differentiate; at 40 W the dynamic range
	// compresses versus 50 W for the middle apps (the paper's "little
	// change in performance for A1-A3" observation).
	if spread(50, 0, 4) <= 1e8 {
		t.Error("no differentiation at 50 W")
	}
	if spread(40, 1, 3) >= spread(50, 1, 3) {
		t.Errorf("mid-app spread should compress at 40 W: %.0f vs %.0f",
			spread(40, 1, 3), spread(50, 1, 3))
	}
}

func TestFigure12And13Shape(t *testing.T) {
	res, err := Figure12()
	if err != nil {
		t.Fatal(err)
	}
	cell := func(limit units.Watts, scenario string) LatencyCell {
		for _, c := range res.Cells {
			if c.Limit == limit && c.Scenario == scenario {
				return c
			}
		}
		t.Fatalf("missing cell %v/%s", limit, scenario)
		return LatencyCell{}
	}
	// The policy recovers latency: at the tightest limits, 90/10 frequency
	// shares beat RAPL.
	for _, limit := range []units.Watts{40, 35} {
		rapl := cell(limit, "rapl")
		pol := cell(limit, "freq-shares")
		if pol.Relative >= rapl.Relative {
			t.Errorf("at %v: policy relative %.2f not below RAPL %.2f",
				limit, pol.Relative, rapl.Relative)
		}
		// RAPL colocation hurts substantially at these limits.
		if rapl.Relative < 1.1 {
			t.Errorf("at %v: RAPL colocation ratio %.2f unexpectedly benign", limit, rapl.Relative)
		}
	}
	// Figure 13: under the policy, cpuburn runs far below websearch.
	for _, limit := range Figure12Limits {
		c := cell(limit, "freq-shares")
		if c.CpuburnFreq >= c.WebsearchFreq {
			t.Errorf("at %v: cpuburn %v not below websearch %v", limit, c.CpuburnFreq, c.WebsearchFreq)
		}
	}
	// The paper's unshown claim: "using performance shares provided
	// similar improvements in performance over RAPL".
	for _, limit := range []units.Watts{40, 35} {
		rapl := cell(limit, "rapl")
		perf := cell(limit, "perf-shares")
		freq := cell(limit, "freq-shares")
		if perf.Relative >= rapl.Relative {
			t.Errorf("at %v: perf shares relative %.2f not below RAPL %.2f",
				limit, perf.Relative, rapl.Relative)
		}
		if diff := perf.Relative - freq.Relative; diff > 0.25 || diff < -0.25 {
			t.Errorf("at %v: perf shares %.2f far from freq shares %.2f",
				limit, perf.Relative, freq.Relative)
		}
	}
	if f13 := res.FreqSeries(); len(f13.Cells) != len(Figure12Limits) {
		t.Errorf("Figure 13 cells = %d", len(f13.Cells))
	}
}
