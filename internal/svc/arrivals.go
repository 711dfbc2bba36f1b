package svc

import (
	"fmt"
	"time"
)

// RatePoint is one breakpoint of a rate schedule's multiplier curve.
type RatePoint struct {
	At  time.Duration // offset within the period, ascending
	Mul float64       // multiplier applied to the base rate
}

// RateSchedule describes a time-varying open-loop arrival rate in
// requests per second. The base rate is shaped by a piecewise-linear
// multiplier curve that wraps modulo Period — the natural encoding of a
// diurnal load pattern compressed into a simulation-scale period. An
// empty curve means a constant Base.
type RateSchedule struct {
	Base   float64       // requests per second at multiplier 1.0
	Period time.Duration // curve period; required when Points are set
	Points []RatePoint   // multiplier breakpoints within [0, Period)
}

// ConstantRate is a flat schedule of r requests per second.
func ConstantRate(r float64) RateSchedule { return RateSchedule{Base: r} }

// Diurnal returns a day-like schedule compressed into period: a night
// trough at 35% of base, a midday shoulder at full base, and an evening
// peak at 115%. Experiments use it as the canonical open-loop load.
func Diurnal(base float64, period time.Duration) RateSchedule {
	return RateSchedule{
		Base:   base,
		Period: period,
		Points: []RatePoint{
			{At: 0, Mul: 0.35},
			{At: period * 25 / 100, Mul: 0.60},
			{At: period * 45 / 100, Mul: 1.00},
			{At: period * 60 / 100, Mul: 0.90},
			{At: period * 80 / 100, Mul: 1.15},
			{At: period * 95 / 100, Mul: 0.50},
		},
	}
}

// Validate reports whether the schedule is usable.
func (r RateSchedule) Validate() error {
	if r.Base < 0 {
		return fmt.Errorf("rate schedule: negative base rate %g", r.Base)
	}
	if len(r.Points) == 0 {
		return nil
	}
	if r.Period <= 0 {
		return fmt.Errorf("rate schedule: points without a positive period")
	}
	for i, p := range r.Points {
		if p.At < 0 || p.At >= r.Period {
			return fmt.Errorf("rate schedule: point %d offset %v outside [0, %v)", i, p.At, r.Period)
		}
		if i > 0 && p.At <= r.Points[i-1].At {
			return fmt.Errorf("rate schedule: point offsets not ascending at %d", i)
		}
		if p.Mul < 0 {
			return fmt.Errorf("rate schedule: point %d has negative multiplier", i)
		}
	}
	return nil
}

// At returns the arrival rate in requests per second at virtual time t,
// interpolating linearly between breakpoints and wrapping modulo the
// period. The evaluation allocates nothing.
func (r RateSchedule) At(t time.Duration) float64 {
	if len(r.Points) == 0 || r.Period <= 0 {
		return r.Base
	}
	tm := t % r.Period
	if tm < 0 {
		tm += r.Period
	}
	// Locate the segment [a, b) containing tm; the curve wraps from the
	// last breakpoint back to the first one a full period later.
	last := len(r.Points) - 1
	a, b := r.Points[last], r.Points[0]
	span := r.Period + b.At - a.At
	off := tm - a.At
	if off < 0 {
		off += r.Period
	}
	for i := 0; i < last; i++ {
		if r.Points[i].At <= tm && tm < r.Points[i+1].At {
			a, b = r.Points[i], r.Points[i+1]
			span = b.At - a.At
			off = tm - a.At
			break
		}
	}
	mul := a.Mul
	if span > 0 {
		mul += (b.Mul - a.Mul) * float64(off) / float64(span)
	}
	return r.Base * mul
}
