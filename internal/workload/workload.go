// Package workload models the applications the paper co-locates under a
// power cap.
//
// A Profile is an analytic stand-in for one SPEC CPU2017 rate-1 benchmark:
// instead of executing instructions it describes how the benchmark's
// performance and power respond to frequency, which is the only thing the
// paper's policies observe. Performance follows a two-term latency model
//
//	seconds/instruction = CPI/f + MemStall
//
// where the CPI term scales with core frequency and the memory-stall term
// does not (Section 2.1's observation that "the speed of memory and I/O does
// not change with frequency"). Power demand is expressed as an activity
// factor that scales the platform's effective switched capacitance; AVX
// code has a higher activity factor and is subject to the platform's AVX
// frequency licence (the paper's cam4/lbm/imagick outliers in Figures 1-3).
//
// An Instance is one running copy of a profile pinned to a core: it tracks
// executed instructions, phase position, and completion/restart counts.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/units"
)

// Phase modulates a profile's behaviour for a span of instructions. Phase
// trains let the simulator reproduce the paper's observation that
// performance shares are less stable than frequency shares because IPS
// moves with program phase (Section 6.2).
type Phase struct {
	Instructions float64 // length of the phase in instructions
	CPIMult      float64 // multiplies the profile's BaseCPI
	ActivityMult float64 // multiplies the profile's Activity
}

// Profile describes one application's frequency/power/performance behaviour.
type Profile struct {
	Name string

	// BaseCPI is the core-bound cycles-per-instruction of the workload.
	BaseCPI float64

	// MemStall is the frequency-insensitive seconds of stall per
	// instruction (memory, I/O). Larger values make the workload
	// memory-bound: its performance saturates as frequency rises.
	MemStall float64

	// Activity is the power activity factor relative to a typical integer
	// workload at 1.0. It scales the platform's effective capacitance.
	Activity float64

	// AVX marks workloads that execute wide vector instructions: they draw
	// more power and are capped at the platform's AVX licence frequency.
	AVX bool

	// TotalInstructions is the benchmark's instruction count for
	// run-to-completion experiments.
	TotalInstructions float64

	// Phases optionally modulates CPI and activity along the run. The
	// train cycles: after the last phase the first begins again. Empty
	// means uniform behaviour.
	Phases []Phase
}

// Validate reports whether the profile is well-formed.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile has no name")
	}
	if p.BaseCPI <= 0 {
		return fmt.Errorf("workload %s: BaseCPI must be positive, got %g", p.Name, p.BaseCPI)
	}
	if p.MemStall < 0 {
		return fmt.Errorf("workload %s: negative MemStall", p.Name)
	}
	if p.Activity <= 0 {
		return fmt.Errorf("workload %s: Activity must be positive, got %g", p.Name, p.Activity)
	}
	if p.TotalInstructions <= 0 {
		return fmt.Errorf("workload %s: TotalInstructions must be positive", p.Name)
	}
	for i, ph := range p.Phases {
		if ph.Instructions <= 0 || ph.CPIMult <= 0 || ph.ActivityMult <= 0 {
			return fmt.Errorf("workload %s: phase %d has non-positive parameter", p.Name, i)
		}
	}
	return nil
}

// IPS returns the profile's steady-state instructions per second at
// frequency f, ignoring phases (phase modulation applies per Instance).
func (p Profile) IPS(f units.Hertz) float64 {
	return ipsAt(f, p.BaseCPI, p.MemStall)
}

func ipsAt(f units.Hertz, cpi, memStall float64) float64 {
	if f <= 0 {
		return 0
	}
	spi := cpi/float64(f) + memStall
	if spi <= 0 {
		return 0
	}
	return 1 / spi
}

// Instance is one running copy of a profile.
type Instance struct {
	Profile Profile

	// Pin is the core the instance is pinned to, assigned by the
	// simulator.
	Pin int

	done      float64 // instructions executed in the current run
	phaseIdx  int
	phaseDone float64 // instructions executed within the current phase
	restarts  int
	totalInst float64 // instructions across all runs
	// moves counts the calls that advance or reset the instance, which
	// RetireSteady is not.
	moves uint64

	// ips is ipsAt(ipsF, ipsCPI, ipsStall), remembered by memoIPS.
	ipsF             units.Hertz
	ipsCPI, ipsStall float64
	ips              float64
}

// NewInstance returns a fresh instance of p.
func NewInstance(p Profile) *Instance {
	return &Instance{Profile: p}
}

// CurrentCPI returns the effective CPI in the current phase.
func (in *Instance) CurrentCPI() float64 {
	if len(in.Profile.Phases) == 0 {
		return in.Profile.BaseCPI
	}
	return in.Profile.BaseCPI * in.Profile.Phases[in.phaseIdx].CPIMult
}

// CurrentActivity returns the effective power activity factor in the current
// phase.
func (in *Instance) CurrentActivity() float64 {
	if len(in.Profile.Phases) == 0 {
		return in.Profile.Activity
	}
	return in.Profile.Activity * in.Profile.Phases[in.phaseIdx].ActivityMult
}

// memoIPS is IPS(f), recomputed only when f, the phase's CPI or the stall
// differ from what it last saw: execute asks every tick, and they move a
// few times a second. It compares its whole key on every call, so nothing
// has to remember to invalidate it.
func (in *Instance) memoIPS(f units.Hertz) float64 {
	cpi, stall := in.CurrentCPI(), in.Profile.MemStall
	if f != in.ipsF || cpi != in.ipsCPI || stall != in.ipsStall {
		in.ipsF, in.ipsCPI, in.ipsStall = f, cpi, stall
		in.ips = ipsAt(f, cpi, stall)
	}
	return in.ips
}

// Advance executes the instance at frequency f for dt and returns the number
// of instructions retired. When the run completes
// mid-step the instance restarts immediately (the paper's fixed-duration
// experiments keep every core loaded); RunsCompleted counts the
// wrap-arounds.
func (in *Instance) Advance(f units.Hertz, dt time.Duration) float64 {
	return in.AdvanceSec(f, dt.Seconds())
}

// AdvanceSec is Advance for a caller that has already converted its step to
// sec seconds. The simulator converts its tick once for all cores.
func (in *Instance) AdvanceSec(f units.Hertz, sec float64) float64 {
	in.moves++
	if sec <= 0 {
		return 0
	}
	p := &in.Profile
	// A tick that ends no phase and no run, the common one, is one
	// segment: execute's single pass without its loop, at the IPS memo's
	// value, its key checked here. A tick that reaches either boundary, or
	// finds the key moved, goes through execute before anything is added.
	untilRun := p.TotalInstructions - in.done
	cpi, untilPhase := p.BaseCPI, untilRun
	if len(p.Phases) > 0 {
		ph := &p.Phases[in.phaseIdx]
		cpi, untilPhase = cpi*ph.CPIMult, ph.Instructions-in.phaseDone
	}
	if f == in.ipsF && cpi == in.ipsCPI && p.MemStall == in.ipsStall && sec > 1e-15 && in.ips > 0 {
		if step := in.ips * sec; step < untilRun && step < untilPhase {
			in.retire(step)
			return step
		}
	}
	return in.execute(f, sec)
}

// execute runs the instruction/phase/run accounting for sec seconds of
// execution time at frequency f.
func (in *Instance) execute(f units.Hertz, sec float64) float64 {
	remaining := sec
	var retired float64
	for remaining > 1e-15 {
		ips := in.memoIPS(f)
		if ips <= 0 {
			break
		}
		// Instructions until the next boundary: phase end or run end.
		untilRun := in.Profile.TotalInstructions - in.done
		bound := untilRun
		if n := len(in.Profile.Phases); n > 0 {
			untilPhase := in.Profile.Phases[in.phaseIdx].Instructions - in.phaseDone
			if untilPhase < bound {
				bound = untilPhase
			}
		}
		step := ips * remaining
		if step >= bound {
			step = bound
			remaining -= bound / ips
		} else {
			remaining = 0
		}
		retired += step
		in.retire(step)
	}
	return retired
}

// SteadyTicks reports the instructions a tick of sec seconds at f retires
// on AdvanceSec's one-segment path, and how many such ticks in a row can
// be taken through RetireSteady before retire's phase-end or run-end test
// could fire. The count errs short; it is 0 when the IPS memo is not for
// f at the current phase, or the tick retires nothing.
func (in *Instance) SteadyTicks(f units.Hertz, sec float64) (step float64, ticks int) {
	p := &in.Profile
	cpi, end := p.BaseCPI, p.TotalInstructions
	room := end*(1-1e-12) - in.done
	if len(p.Phases) > 0 {
		ph := &p.Phases[in.phaseIdx]
		cpi *= ph.CPIMult
		end = max(end, ph.Instructions)
		room = min(room, ph.Instructions*(1-1e-12)-in.phaseDone)
	}
	if f != in.ipsF || cpi != in.ipsCPI || p.MemStall != in.ipsStall || !(sec > 1e-15) || !(in.ips > 0) {
		return 0, 0
	}
	step = in.ips * sec
	// Each add rounds by at most half an ulp of a value below end, and room
	// itself by half of one: n adds of step+ulp within room-ulp stay short
	// of both thresholds, and one tick less covers the division's rounding.
	ulp := math.Nextafter(end, math.Inf(1)) - end
	n := (room-ulp)/(step+ulp) - 1
	if !(n >= 1) {
		return step, 0
	}
	return step, int(min(n, 1<<30))
}

// RetireSteady counts step instructions into the run and the phase, the
// adds of AdvanceSec's one-segment path, for a tick SteadyTicks counted:
// one that turns neither over. It is not a move.
func (in *Instance) RetireSteady(step float64) {
	in.done += step
	in.totalInst += step
	in.phaseDone += step
}

// Moves counts the calls that moved the instance other than RetireSteady:
// every Advance, AdvanceSec and Reset.
func (in *Instance) Moves() uint64 { return in.moves }

// retire counts step instructions into the run and the phase, and turns
// either over once it is complete to within rounding.
func (in *Instance) retire(step float64) {
	in.RetireSteady(step)
	if n := len(in.Profile.Phases); n > 0 {
		phaseLen := in.Profile.Phases[in.phaseIdx].Instructions
		if in.phaseDone >= phaseLen*(1-1e-12) {
			in.phaseIdx = (in.phaseIdx + 1) % n
			in.phaseDone = 0
		}
	}
	if in.done >= in.Profile.TotalInstructions*(1-1e-12) {
		in.done = 0
		in.restarts++
	}
}

// RunsCompleted reports how many full runs the instance has finished.
func (in *Instance) RunsCompleted() int { return in.restarts }

// Progress reports the fraction [0,1) of the current run completed.
func (in *Instance) Progress() float64 {
	return in.done / in.Profile.TotalInstructions
}

// TotalInstructions reports instructions retired across all runs.
func (in *Instance) TotalInstructions() float64 { return in.totalInst }

// Reset returns the instance to its initial state.
func (in *Instance) Reset() {
	in.moves++
	in.done, in.phaseDone, in.totalInst = 0, 0, 0
	in.phaseIdx, in.restarts = 0, 0
}

// Synthetic returns a randomized but valid profile drawn from plausible
// ranges, for property tests and randomized experiments beyond the paper's
// fixed sets.
func Synthetic(name string, rng *rand.Rand) Profile {
	avx := rng.Float64() < 0.3
	act := 0.7 + rng.Float64()*0.5
	if avx {
		act += 0.4 + rng.Float64()*0.3
	}
	return Profile{
		Name:              name,
		BaseCPI:           0.6 + rng.Float64()*0.8,
		MemStall:          rng.Float64() * 0.5e-9,
		Activity:          act,
		AVX:               avx,
		TotalInstructions: 1e9 + rng.Float64()*9e9,
	}
}
