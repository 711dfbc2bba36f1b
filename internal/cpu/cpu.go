// Package cpu models the per-core frequency machinery of a modern x86
// processor: discrete P-states, per-core DVFS with vendor-specific
// quantisation, opportunistic scaling (TurboBoost / Precision Boost + XFR)
// granted by active-core count, AVX frequency licences, C-state idling, and
// the architectural counters (APERF, MPERF, instructions retired, energy)
// that supervisory software samples.
//
// A core's requests live with the simulator's per-core record; this package
// holds the frequency domain the simulator arbitrates a core's effective
// frequency over (the request, the power limiter's clamp, the AVX licence
// and the turbo grant, as real hardware arbitrates between the OS's P-state
// request and its own limits) and the counters it charges.
package cpu

import (
	"fmt"
	"time"

	"repro/internal/units"
)

// TurboBin is one row of a turbo table: with at most MaxActive cores in C0,
// cores may run up to Normal (non-AVX) or AVX (AVX licence) frequency.
type TurboBin struct {
	MaxActive int
	Normal    units.Hertz
	AVX       units.Hertz
}

// FreqSpec describes a chip's frequency domain.
type FreqSpec struct {
	Min  units.Hertz // lowest P-state frequency
	Nom  units.Hertz // nominal (guaranteed all-core, non-AVX) frequency
	Step units.Hertz // P-state quantisation (100 MHz Intel, 25 MHz Ryzen)

	// Turbo is the opportunistic-scaling table, sorted by ascending
	// MaxActive. The last bin must cover the full core count; its Normal
	// value is the all-core ceiling. An empty table disables turbo: the
	// ceiling is Nom at any occupancy.
	Turbo []TurboBin
}

// Validate reports whether the spec is well-formed.
func (s FreqSpec) Validate() error {
	if !(s.Min > 0 && s.Min < s.Nom) {
		return fmt.Errorf("cpu: Min %v must be positive and below Nom %v", s.Min, s.Nom)
	}
	if s.Step <= 0 {
		return fmt.Errorf("cpu: Step must be positive, got %v", s.Step)
	}
	prev := 0
	for i, b := range s.Turbo {
		if b.MaxActive <= prev {
			return fmt.Errorf("cpu: turbo bin %d not ascending by MaxActive", i)
		}
		prev = b.MaxActive
		if b.Normal < s.Nom {
			return fmt.Errorf("cpu: turbo bin %d normal ceiling %v below nominal %v", i, b.Normal, s.Nom)
		}
		if b.AVX <= 0 || b.AVX > b.Normal {
			return fmt.Errorf("cpu: turbo bin %d AVX ceiling %v invalid", i, b.AVX)
		}
	}
	return nil
}

// Max returns the chip's absolute maximum frequency (the single-core turbo
// ceiling), or Nom without a turbo table.
func (s FreqSpec) Max() units.Hertz {
	if len(s.Turbo) == 0 {
		return s.Nom
	}
	return s.Turbo[0].Normal
}

// Ceiling returns the highest frequency grantable with activeCores cores in
// C0, for AVX or non-AVX code. Occupancy beyond the last bin uses the last
// bin (hardware treats the table as saturating).
func (s FreqSpec) Ceiling(activeCores int, avx bool) units.Hertz {
	if len(s.Turbo) == 0 {
		return s.Nom
	}
	bin := s.Turbo[len(s.Turbo)-1]
	for _, b := range s.Turbo {
		if activeCores <= b.MaxActive {
			bin = b
			break
		}
	}
	if avx {
		return bin.AVX
	}
	return bin.Normal
}

// Quantize snaps f to a valid P-state frequency within [Min, Max].
func (s FreqSpec) Quantize(f units.Hertz) units.Hertz {
	return f.Clamp(s.Min, s.Max()).Quantize(s.Step)
}

// Levels enumerates every valid frequency from Min to Max inclusive.
func (s FreqSpec) Levels() []units.Hertz {
	var out []units.Hertz
	for f := s.Min; f <= s.Max()+s.Step/2; f += s.Step {
		out = append(out, f)
	}
	return out
}

// Counters is a core's architectural counters, monotonically increasing:
// what a sampler reads through APERF, MPERF, the fixed instruction counter
// and the per-core energy status.
type Counters struct {
	APERF  float64      // cycles accumulated at effective frequency while in C0
	MPERF  float64      // cycles at nominal frequency while in C0
	Instr  float64      // instructions retired
	Energy units.Joules // core energy (per-core RAPL domain)
}

// Account charges one simulation step to the counters: the core ran at eff
// (0 while parked) for dt, retiring instr instructions and consuming
// energy. The caller steps every core by the same dt and multiplies it out
// once: sec is dt.Seconds() and nomCycles the nominal frequency's
// Cycles(dt).
func (c *Counters) Account(eff units.Hertz, nomCycles float64, dt time.Duration, sec float64, instr float64, energy units.Joules) {
	if dt <= 0 {
		return
	}
	if eff > 0 {
		// The conversion rounds the product before the add, so that no
		// target fuses the two: a simulator that adds a product it
		// recorded earlier adds the same bits.
		c.APERF += float64(float64(eff) * sec)
		c.MPERF += nomCycles
	}
	c.Instr += instr
	c.Energy += energy
}
