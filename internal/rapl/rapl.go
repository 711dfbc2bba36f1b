// Package rapl implements a Running Average Power Limit controller over the
// simulated chip, reproducing the hardware behaviour the paper measures in
// Section 3:
//
//   - the controller adjusts a single internal frequency cap to hold
//     package power at or below the programmed limit, stepping the cap by
//     at most one P-state every stepInterval on the instantaneous package
//     power, and raising it only with releaseMargin of headroom to spare;
//   - the cap descends from the top, so the *fastest* cores are throttled
//     first ("RAPL only reduces the frequency of the unconstrained core",
//     Figure 4) — cores already running slower, whether by user P-state
//     request or by AVX licence (cam4 in Figure 1), are unaffected until
//     the cap descends to their level;
//   - power freed by user-throttled cores is automatically available to
//     unconstrained cores, which the cap then allows to run faster
//     (Figure 4a).
//
// The controller knows nothing about priorities, which is precisely the
// paper's complaint: this package is the baseline the policy daemon is
// evaluated against.
package rapl

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cpu"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/units"
)

const (
	// stepInterval is how often the cap may move by one step. Together
	// with the frequency step count it bounds settling time.
	stepInterval = 2 * time.Millisecond

	// releaseMargin is extra headroom, as a fraction of the predicted
	// one-step power gain, required before the cap is raised: hysteresis.
	releaseMargin = 0.03
)

// Limiter is the RAPL power-capping state machine for one package.
type Limiter struct {
	spec cpu.FreqSpec

	limit   units.Watts   // 0 disables capping
	cap     units.Hertz   // current internal frequency cap
	last    units.Watts   // most recent instantaneous sample
	pending time.Duration // time since the cap last moved

	// Optional instrumentation; nil handles no-op.
	mThrottles *metrics.Counter
	mReleases  *metrics.Counter
	mCapMHz    *metrics.Gauge
	flight     *flight.Recorder
}

// Instrument registers the limiter's metrics on reg: throttle events (cap
// lowered one step), release events (cap raised), and the current cap in
// MHz. Safe to call with a nil registry.
func (l *Limiter) Instrument(reg *metrics.Registry) {
	l.mThrottles = reg.Counter("rapl_throttle_events_total", "RAPL cap step-downs (package power over the limit).")
	l.mReleases = reg.Counter("rapl_release_events_total", "RAPL cap step-ups (headroom regained under the limit).")
	l.mCapMHz = reg.Gauge("rapl_cap_mhz", "Current RAPL internal frequency cap in MHz.")
	l.mCapMHz.Set(l.cap.MHzF())
}

// Flight attaches the flight recorder: every cap step-down (throttle) and
// step-up (release) is logged with the new cap and the instantaneous
// package power. A nil recorder disables logging.
func (l *Limiter) Flight(rec *flight.Recorder) { l.flight = rec }

// recordCap logs one cap movement to the flight recorder.
func (l *Limiter) recordCap(kind flight.Kind) {
	l.flight.Record(flight.Event{
		Kind:   kind,
		Source: flight.SourceRAPL,
		Core:   -1,
		Value:  uint64(l.cap),
		Aux:    uint64(float64(l.last) * 1e6),
	})
}

// New returns a limiter for a chip with the given frequency spec. The cap
// starts fully open (at the chip's maximum frequency).
func New(spec cpu.FreqSpec) (*Limiter, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("rapl: %w", err)
	}
	return &Limiter{spec: spec, cap: spec.Max()}, nil
}

// SetLimit programs the package power limit; zero disables capping and
// fully opens the cap.
func (l *Limiter) SetLimit(w units.Watts) {
	if w < 0 {
		w = 0
	}
	l.limit = w
	if w == 0 {
		l.cap = l.spec.Max()
	}
}

// Limit reports the programmed limit (0 when disabled).
func (l *Limiter) Limit() units.Watts { return l.limit }

// Cap reports the current internal frequency cap. Callers combine it with
// per-core requests via cpu.FreqSpec.Effective.
func (l *Limiter) Cap() units.Hertz { return l.cap }

// Observe feeds one simulation step's package power into the controller and
// moves the cap at most one frequency step per stepInterval. It
// returns the cap in effect after the observation.
func (l *Limiter) Observe(pkg units.Watts, dt time.Duration) units.Hertz {
	if dt <= 0 {
		return l.cap
	}
	// A lying energy counter (fault injection, torn multi-register sample)
	// can hand the controller NaN, ±Inf, or a negative wattage. None of
	// these may move the cap — a zero-clamped negative would read as full
	// headroom and wrongly release — so hold the last sane sample instead.
	if f := float64(pkg); math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
		pkg = l.last
	}
	l.last = pkg
	if l.limit <= 0 {
		return l.cap
	}
	l.pending += dt
	if l.pending < stepInterval {
		return l.cap
	}
	l.pending = 0
	// The up/down decision uses the instantaneous sample: deciding on a
	// lagging windowed average while stepping every interval produces
	// large limit cycles (the cap keeps descending long after power has
	// fallen below the limit).
	if l.last > l.limit {
		if l.cap > l.spec.Min {
			l.cap -= l.spec.Step
			if l.cap < l.spec.Min {
				l.cap = l.spec.Min
			}
			l.mThrottles.Inc()
			l.mCapMHz.Set(l.cap.MHzF())
			l.recordCap(flight.KindRAPLThrottle)
		}
		return l.cap
	}
	// Release only when the predicted power cost of one step up still fits
	// under the limit; otherwise the cap bounces between two levels and the
	// high phase violates the limit. Package power scales roughly as
	// f^2.5 in the DVFS range (P ~ V^2 f with V linear in f), so one step
	// costs about last * 2.5 * step/cap.
	const freqExponent = 2.5
	if l.cap < l.spec.Max() {
		gain := l.last * units.Watts(freqExponent*float64(l.spec.Step)/float64(l.cap))
		if l.last+gain*units.Watts(1+releaseMargin) <= l.limit {
			l.cap += l.spec.Step
			if l.cap > l.spec.Max() {
				l.cap = l.spec.Max()
			}
			l.mReleases.Inc()
			l.mCapMHz.Set(l.cap.MHzF())
			l.recordCap(flight.KindRAPLRelease)
		}
	}
	return l.cap
}
