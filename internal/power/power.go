// Package power models processor power draw as a function of frequency,
// voltage, and workload activity.
//
// Dynamic power follows the classic CMOS relation P_dyn = C_eff * V^2 * f
// (the paper's Section 2.1). Voltage rises with frequency along a piecewise
// linear voltage/frequency curve whose slope steepens in the opportunistic
// (TurboBoost / XFR) range, which is what produces the ~5 W package-power
// jump the paper observes when workloads cross the turbo threshold
// (Figures 2 and 3). Static leakage per active core, an idle (C-state)
// residual, and a constant uncore term complete the package model.
package power

import (
	"fmt"

	"repro/internal/units"
)

// VoltageCurve is a two-segment piecewise-linear voltage/frequency curve.
// Below NomFreq the voltage scales gently; between NomFreq and MaxFreq
// (the turbo range) it scales steeply. Real voltage regulators follow the
// same shape: the last few hundred megahertz are bought with disproportionate
// voltage.
type VoltageCurve struct {
	MinFreq units.Hertz // lowest operating frequency
	NomFreq units.Hertz // nominal (non-turbo) ceiling
	MaxFreq units.Hertz // opportunistic-scaling ceiling
	MinV    units.Volts // voltage at MinFreq
	NomV    units.Volts // voltage at NomFreq
	MaxV    units.Volts // voltage at MaxFreq
}

// Validate reports whether the curve is well-formed: frequencies strictly
// increasing and voltages non-decreasing.
func (c VoltageCurve) Validate() error {
	if !(c.MinFreq > 0 && c.MinFreq < c.NomFreq && c.NomFreq <= c.MaxFreq) {
		return fmt.Errorf("power: voltage curve frequencies not increasing: min=%v nom=%v max=%v",
			c.MinFreq, c.NomFreq, c.MaxFreq)
	}
	if !(c.MinV > 0 && c.MinV <= c.NomV && c.NomV <= c.MaxV) {
		return fmt.Errorf("power: voltage curve voltages not increasing: %v %v %v",
			c.MinV, c.NomV, c.MaxV)
	}
	return nil
}

// VoltageAt returns the operating voltage for frequency f. Frequencies are
// clamped to the curve's range.
func (c VoltageCurve) VoltageAt(f units.Hertz) units.Volts {
	f = f.Clamp(c.MinFreq, c.MaxFreq)
	if f <= c.NomFreq {
		span := float64(c.NomFreq - c.MinFreq)
		if span <= 0 {
			return c.NomV
		}
		t := float64(f-c.MinFreq) / span
		return c.MinV + units.Volts(t)*(c.NomV-c.MinV)
	}
	span := float64(c.MaxFreq - c.NomFreq)
	if span <= 0 {
		return c.MaxV
	}
	t := float64(f-c.NomFreq) / span
	return c.NomV + units.Volts(t)*(c.MaxV-c.NomV)
}

// Model computes per-core and package power for a chip.
type Model struct {
	Curve VoltageCurve

	// CoreCeff is the effective switched capacitance (in farads) of one
	// core at workload activity factor 1.0. Workload profiles scale it via
	// their activity factor (AVX-heavy code switches more capacitance).
	CoreCeff float64

	// CoreLeakage is the static power of a powered, active (C0) core,
	// independent of frequency.
	CoreLeakage units.Watts

	// IdleCorePower is the residual draw of a core parked in a deep
	// C-state. Modern cores idle in the milliwatt range.
	IdleCorePower units.Watts

	// UncorePower is the constant package overhead: fabric, memory
	// controller, caches' static share.
	UncorePower units.Watts
}

// Validate reports whether the model's parameters are physically sensible.
func (m Model) Validate() error {
	if err := m.Curve.Validate(); err != nil {
		return err
	}
	if m.CoreCeff <= 0 {
		return fmt.Errorf("power: CoreCeff must be positive, got %g", m.CoreCeff)
	}
	if m.CoreLeakage < 0 || m.IdleCorePower < 0 || m.UncorePower < 0 {
		return fmt.Errorf("power: negative static power term")
	}
	return nil
}

// CorePower returns the draw of one active core running at frequency f with
// the given workload activity factor. Activity 1.0 corresponds to a typical
// integer workload; AVX-heavy code uses >1.
func (m Model) CorePower(f units.Hertz, activity float64) units.Watts {
	if activity < 0 {
		activity = 0
	}
	v := float64(m.Curve.VoltageAt(f))
	dyn := m.CoreCeff * activity * v * v * float64(f)
	return units.Watts(dyn) + m.CoreLeakage
}

// Package sums a package's power: uncore plus each core's contribution.
// Each entry of draws is one core; idle cores (Active=false) contribute the
// C-state residual.
func (m Model) Package(draws []CoreDraw) units.Watts {
	total := m.UncorePower
	for _, d := range draws {
		if d.Active {
			total += m.CorePower(d.Freq, d.Activity)
		} else {
			total += m.IdleCorePower
		}
	}
	return total
}

// CoreDraw describes one core's state for package power aggregation.
type CoreDraw struct {
	Active   bool
	Freq     units.Hertz
	Activity float64
}
