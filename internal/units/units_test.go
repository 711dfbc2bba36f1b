package units

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestHertzString(t *testing.T) {
	cases := []struct {
		f    Hertz
		want string
	}{
		{2200 * MHz, "2.20 GHz"},
		{800 * MHz, "800 MHz"},
		{25 * KHz, "25 kHz"},
		{400, "400 Hz"},
		{3.8 * GHz, "3.80 GHz"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("(%v).String() = %q, want %q", float64(c.f), got, c.want)
		}
	}
}

func TestQuantizeFloors(t *testing.T) {
	f := 2250 * MHz
	if got := f.Quantize(100 * MHz); got != 2200*MHz {
		t.Errorf("Quantize(100MHz) = %v, want 2200 MHz", got)
	}
	if got := f.Quantize(25 * MHz); got != 2250*MHz {
		t.Errorf("Quantize(25MHz) = %v, want 2250 MHz", got)
	}
}

func TestQuantizeZeroStep(t *testing.T) {
	f := 1234 * MHz
	if got := f.Quantize(0); got != f {
		t.Errorf("Quantize(0) = %v, want %v", got, f)
	}
	if got := f.QuantizeNearest(-1); got != f {
		t.Errorf("QuantizeNearest(-1) = %v, want %v", got, f)
	}
}

func TestQuantizeNearest(t *testing.T) {
	if got := (2260 * MHz).QuantizeNearest(100 * MHz); got != 2300*MHz {
		t.Errorf("QuantizeNearest = %v, want 2300 MHz", got)
	}
	if got := (2240 * MHz).QuantizeNearest(100 * MHz); got != 2200*MHz {
		t.Errorf("QuantizeNearest = %v, want 2200 MHz", got)
	}
}

// Property: quantized value is always a multiple of the step and never
// exceeds the input (for Quantize) nor deviates by more than step/2 (for
// QuantizeNearest).
func TestQuantizeProperties(t *testing.T) {
	prop := func(raw uint32) bool {
		f := Hertz(raw) * KHz
		step := 25 * MHz
		q := f.Quantize(step)
		if q > f {
			return false
		}
		if f-q >= step {
			return false
		}
		mult := float64(q) / float64(step)
		if math.Abs(mult-math.Round(mult)) > 1e-9 {
			return false
		}
		qn := f.QuantizeNearest(step)
		return math.Abs(float64(qn-f)) <= float64(step)/2+1e-6
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	if got := (3 * GHz).Clamp(800*MHz, 2200*MHz); got != 2200*MHz {
		t.Errorf("Clamp high = %v", got)
	}
	if got := (100 * MHz).Clamp(800*MHz, 2200*MHz); got != 800*MHz {
		t.Errorf("Clamp low = %v", got)
	}
	if got := (1 * GHz).Clamp(800*MHz, 2200*MHz); got != 1*GHz {
		t.Errorf("Clamp mid = %v", got)
	}
	if got := Watts(90).Clamp(20, 85); got != 85 {
		t.Errorf("Watts clamp = %v", got)
	}
}

func TestCycles(t *testing.T) {
	got := (2 * GHz).Cycles(500 * time.Millisecond)
	if got != 1e9 {
		t.Errorf("Cycles = %g, want 1e9", got)
	}
}

func TestEnergyPowerRoundTrip(t *testing.T) {
	w := Watts(50)
	j := w.Energy(2 * time.Second)
	if j != 100 {
		t.Fatalf("Energy = %v, want 100 J", j)
	}
	if back := j.Power(2 * time.Second); math.Abs(float64(back-w)) > 1e-12 {
		t.Errorf("Power round trip = %v, want %v", back, w)
	}
	if z := j.Power(0); z != 0 {
		t.Errorf("Power(0) = %v, want 0", z)
	}
}

func TestSharesFraction(t *testing.T) {
	if got := Shares(3).Fraction(4); got != 0.75 {
		t.Errorf("Fraction = %v, want 0.75", got)
	}
	if got := Shares(3).Fraction(0); got != 0 {
		t.Errorf("Fraction of zero total = %v, want 0", got)
	}
}

// Property: fractions across a share vector sum to ~1 when total is the sum.
func TestFractionSumsToOne(t *testing.T) {
	prop := func(a, b, c uint8) bool {
		ss := []Shares{Shares(a) + 1, Shares(b) + 1, Shares(c) + 1}
		total := ss[0] + ss[1] + ss[2]
		var sum float64
		for _, s := range ss {
			sum += s.Fraction(total)
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
