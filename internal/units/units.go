// Package units defines the physical quantities used throughout the power
// delivery simulator: frequency, power, energy, and voltage, plus the
// proportional-share type used by the policy engine.
//
// All quantities are float64 wrappers. Frequencies are carried in hertz,
// power in watts, energy in joules, and voltage in volts. Keeping distinct
// named types catches unit mix-ups at compile time (a recurring bug class in
// power-management code where MHz, kHz and P-state indices circulate
// together).
package units

import (
	"fmt"
	"math"
	"time"
)

// Hertz is a frequency in hertz.
type Hertz float64

// Convenience frequency constructors.
const (
	KHz Hertz = 1e3
	MHz Hertz = 1e6
	GHz Hertz = 1e9
)

// MHzF returns the frequency as a float64 count of megahertz.
func (f Hertz) MHzF() float64 { return float64(f) / 1e6 }

// GHzF returns the frequency as a float64 count of gigahertz.
func (f Hertz) GHzF() float64 { return float64(f) / 1e9 }

// String formats the frequency using the most natural SI prefix.
func (f Hertz) String() string {
	switch {
	case f >= GHz:
		return fmt.Sprintf("%.2f GHz", f.GHzF())
	case f >= MHz:
		return fmt.Sprintf("%.0f MHz", f.MHzF())
	case f >= KHz:
		return fmt.Sprintf("%.0f kHz", float64(f)/1e3)
	default:
		return fmt.Sprintf("%.0f Hz", float64(f))
	}
}

// Quantize rounds f down to an integer multiple of step. Hardware P-state
// interfaces only accept discrete frequency multipliers (100 MHz on Intel,
// 25 MHz on Ryzen), and rounding down keeps a requested budget feasible.
// A non-positive step returns f unchanged.
func (f Hertz) Quantize(step Hertz) Hertz {
	if step <= 0 {
		return f
	}
	n := math.Floor(float64(f) / float64(step))
	if n < 0 {
		n = 0
	}
	return Hertz(n) * step
}

// QuantizeNearest rounds f to the nearest integer multiple of step.
func (f Hertz) QuantizeNearest(step Hertz) Hertz {
	if step <= 0 {
		return f
	}
	n := math.Round(float64(f) / float64(step))
	if n < 0 {
		n = 0
	}
	return Hertz(n) * step
}

// Clamp restricts f to [lo, hi]. Callers must pass lo <= hi.
func (f Hertz) Clamp(lo, hi Hertz) Hertz {
	if f < lo {
		return lo
	}
	if f > hi {
		return hi
	}
	return f
}

// Cycles returns the number of clock cycles elapsed at frequency f over d.
func (f Hertz) Cycles(d time.Duration) float64 {
	return float64(f) * d.Seconds()
}

// Watts is a power draw in watts.
type Watts float64

// String formats the power in watts with two decimals.
func (w Watts) String() string { return fmt.Sprintf("%.2f W", float64(w)) }

// Energy returns the energy consumed drawing w for d.
func (w Watts) Energy(d time.Duration) Joules {
	return Joules(float64(w) * d.Seconds())
}

// Clamp restricts w to [lo, hi]. Callers must pass lo <= hi.
func (w Watts) Clamp(lo, hi Watts) Watts {
	if w < lo {
		return lo
	}
	if w > hi {
		return hi
	}
	return w
}

// Joules is an amount of energy in joules.
type Joules float64

// String formats the energy in joules with three decimals.
func (j Joules) String() string { return fmt.Sprintf("%.3f J", float64(j)) }

// Power returns the average power of consuming j over d. It reports zero for
// a non-positive duration rather than dividing by zero.
func (j Joules) Power(d time.Duration) Watts {
	s := d.Seconds()
	if s <= 0 {
		return 0
	}
	return Watts(float64(j) / s)
}

// Volts is an electric potential in volts.
type Volts float64

// String formats the voltage with three decimals.
func (v Volts) String() string { return fmt.Sprintf("%.3f V", float64(v)) }

// Shares is a proportional-share weight as used by lottery/stride-style
// proportional schedulers. Weights are relative: an application holding 3
// shares running beside one holding 1 share receives 3/4 of the resource.
type Shares int

// Fraction returns the fraction of the resource s represents out of total.
// It reports zero when total is non-positive.
func (s Shares) Fraction(total Shares) float64 {
	if total <= 0 {
		return 0
	}
	return float64(s) / float64(total)
}
