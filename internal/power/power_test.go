package power

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func testCurve() VoltageCurve {
	return VoltageCurve{
		MinFreq: 800 * units.MHz,
		NomFreq: 2200 * units.MHz,
		MaxFreq: 3000 * units.MHz,
		MinV:    0.65,
		NomV:    1.00,
		MaxV:    1.25,
	}
}

func testModel() Model {
	return Model{
		Curve:         testCurve(),
		CoreCeff:      1.8e-9,
		CoreLeakage:   0.4,
		IdleCorePower: 0.05,
		UncorePower:   10,
	}
}

func TestCurveValidate(t *testing.T) {
	if err := testCurve().Validate(); err != nil {
		t.Fatalf("valid curve rejected: %v", err)
	}
	bad := testCurve()
	bad.NomFreq = 700 * units.MHz
	if err := bad.Validate(); err == nil {
		t.Error("non-increasing frequencies accepted")
	}
	bad = testCurve()
	bad.MaxV = 0.1
	if err := bad.Validate(); err == nil {
		t.Error("non-increasing voltages accepted")
	}
}

func TestVoltageEndpoints(t *testing.T) {
	c := testCurve()
	if got := c.VoltageAt(c.MinFreq); got != c.MinV {
		t.Errorf("V(min) = %v, want %v", got, c.MinV)
	}
	if got := c.VoltageAt(c.NomFreq); math.Abs(float64(got-c.NomV)) > 1e-12 {
		t.Errorf("V(nom) = %v, want %v", got, c.NomV)
	}
	if got := c.VoltageAt(c.MaxFreq); got != c.MaxV {
		t.Errorf("V(max) = %v, want %v", got, c.MaxV)
	}
	// Out-of-range clamps.
	if got := c.VoltageAt(100 * units.MHz); got != c.MinV {
		t.Errorf("V(below) = %v, want %v", got, c.MinV)
	}
	if got := c.VoltageAt(5 * units.GHz); got != c.MaxV {
		t.Errorf("V(above) = %v, want %v", got, c.MaxV)
	}
}

// The turbo segment must be steeper per hertz than the nominal segment:
// this is what produces the paper's observed power jump at the turbo
// threshold.
func TestTurboSegmentSteeper(t *testing.T) {
	c := testCurve()
	nomSlope := float64(c.NomV-c.MinV) / float64(c.NomFreq-c.MinFreq)
	turboSlope := float64(c.MaxV-c.NomV) / float64(c.MaxFreq-c.NomFreq)
	if turboSlope <= nomSlope {
		t.Errorf("turbo slope %g not steeper than nominal %g", turboSlope, nomSlope)
	}
}

func TestVoltageMonotone(t *testing.T) {
	c := testCurve()
	prop := func(a, b uint16) bool {
		fa := c.MinFreq + units.Hertz(a)*units.MHz/20
		fb := c.MinFreq + units.Hertz(b)*units.MHz/20
		if fa > fb {
			fa, fb = fb, fa
		}
		return c.VoltageAt(fa) <= c.VoltageAt(fb)+1e-12
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestModelValidate(t *testing.T) {
	if err := testModel().Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	bad := testModel()
	bad.CoreCeff = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero Ceff accepted")
	}
	bad = testModel()
	bad.UncorePower = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative uncore accepted")
	}
}

func TestCorePowerMonotoneInFreq(t *testing.T) {
	m := testModel()
	prev := units.Watts(-1)
	for f := m.Curve.MinFreq; f <= m.Curve.MaxFreq; f += 100 * units.MHz {
		p := m.CorePower(f, 1.0)
		if p <= prev {
			t.Fatalf("power not increasing at %v: %v <= %v", f, p, prev)
		}
		prev = p
	}
}

func TestCorePowerScalesWithActivity(t *testing.T) {
	m := testModel()
	f := 2 * units.GHz
	lo := m.CorePower(f, 0.8)
	hi := m.CorePower(f, 1.6)
	if hi <= lo {
		t.Errorf("activity scaling broken: %v <= %v", hi, lo)
	}
	// Dynamic component should scale linearly with activity.
	dynLo := lo - m.CoreLeakage
	dynHi := hi - m.CoreLeakage
	if math.Abs(float64(dynHi/dynLo)-2.0) > 1e-9 {
		t.Errorf("dynamic power ratio = %v, want 2", dynHi/dynLo)
	}
}

func TestCorePowerNegativeActivityClamped(t *testing.T) {
	m := testModel()
	if got := m.CorePower(2*units.GHz, -5); got != m.CoreLeakage {
		t.Errorf("negative activity power = %v, want leakage %v", got, m.CoreLeakage)
	}
}

// Cubic-ish growth: power at max frequency should be several times the power
// at min frequency even though frequency grows only ~3.75x, because voltage
// rises too (P ~ V^2 f).
func TestSuperlinearGrowth(t *testing.T) {
	m := testModel()
	pMin := m.CorePower(m.Curve.MinFreq, 1) - m.CoreLeakage
	pMax := m.CorePower(m.Curve.MaxFreq, 1) - m.CoreLeakage
	freqRatio := float64(m.Curve.MaxFreq / m.Curve.MinFreq)
	if float64(pMax/pMin) <= freqRatio {
		t.Errorf("power ratio %v not superlinear vs freq ratio %v", pMax/pMin, freqRatio)
	}
}

func TestPackageAggregation(t *testing.T) {
	m := testModel()
	draws := []CoreDraw{
		{Active: true, Freq: 2 * units.GHz, Activity: 1},
		{Active: true, Freq: 1 * units.GHz, Activity: 1.2},
		{Active: false},
	}
	want := m.UncorePower + m.CorePower(2*units.GHz, 1) +
		m.CorePower(1*units.GHz, 1.2) + m.IdleCorePower
	if got := m.Package(draws); math.Abs(float64(got-want)) > 1e-9 {
		t.Errorf("Package = %v, want %v", got, want)
	}
	if got := m.Package(nil); got != m.UncorePower {
		t.Errorf("empty package = %v, want uncore %v", got, m.UncorePower)
	}
}

func TestIdleCoresCheaperThanActive(t *testing.T) {
	m := testModel()
	idle := m.Package([]CoreDraw{{Active: false}})
	active := m.Package([]CoreDraw{{Active: true, Freq: m.Curve.MinFreq, Activity: 0.5}})
	if idle >= active {
		t.Errorf("idle %v should be cheaper than active %v", idle, active)
	}
}
