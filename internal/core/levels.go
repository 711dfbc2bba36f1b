package core

import "math"

// solveLevel finds the water level λ >= 0 such that the total allocation
//
//	Σ_i clamp(λ * base_i, lo_i, hi_i)
//
// equals want (clamped to the feasible range [Σlo, Σhi]). The share
// policies derive each application's resource target from a single level:
// target_i = clamp(λ·base_i, lo_i, hi_i) with base_i proportional to the
// application's shares. This *is* min-funding revocation in closed form —
// an application clamped at its cap (saturated) stops absorbing the
// resource and the level keeps rising for the others; under shortage the
// level falls and reclaims first from applications holding more than their
// proportional entitlement. Bases must be non-negative; bounds must
// satisfy 0 <= lo_i <= hi_i.
//
// The level returned is, bit for bit, the float a 64-sweep bisection of
// [0, λmax] returns (λmax: every target capped), found in a handful of
// evaluations of the total instead of ~53 sweeps:
//
//   - The total in float arithmetic is monotone non-decreasing in λ: each
//     product, each clamp and each left-to-right add is. So the
//     bisection's test total(mid) < want flips once on the floats of
//     [0, λmax], at the least float t where it fails (t = λmax if it never
//     does). The bisection keeps the flip inside its bracket, ends on the
//     adjacent floats pred(t) and t, and returns their midpoint rounded.
//   - Newton steps on the piecewise-linear total, kept inside the bracket
//     their evaluations narrow, land within a few floats of t (levelFlip);
//     a galloping and then a binary search over the float bit patterns,
//     which order like the positive floats, pin it.
//   - The one exception is a flip below λmax·2⁻⁸. There 64 sweeps may end
//     before the bracket is two adjacent floats, so the cap, not the flip,
//     decides the result, and the bisection itself runs (bisectLevel).
func solveLevel(bases, lo, hi []float64, want float64) float64 {
	var loSum, hiSum, baseSum, lmax float64
	for i, b := range bases {
		loSum += lo[i]
		hiSum += hi[i]
		if b > 0 {
			baseSum += b
			if l := hi[i] / b; l > lmax {
				lmax = l
			}
		}
	}
	if want <= loSum {
		return 0
	}
	if want >= hiSum {
		return lmax
	}
	t := levelFlip(bases, lo, hi, want, baseSum, lmax)
	if t > 0 && t >= lmax*0x1p-8 {
		return (math.Float64frombits(math.Float64bits(t)-1) + t) / 2
	}
	return bisectLevel(bases, lo, hi, want, lmax)
}

// newtonSteps caps levelFlip's Newton phase; a solve that has not closed
// in on the flip by then finishes with the binary search alone.
const newtonSteps = 16

// levelFlip returns the least float t in (0, lmax] at which the total
// reaches want, or lmax if it stays below want up to lmax.
func levelFlip(bases, lo, hi []float64, want, baseSum, lmax float64) float64 {
	// The total is below want at a; it reaches want at b, or b is lmax.
	a, b := 0.0, lmax
	x := want / baseSum // the level if no application were clamped
	near := false
	for i := 0; i < newtonSteps; i++ {
		if !(x > a && x < b) {
			if x = (a + b) / 2; !(x > a && x < b) {
				break // a and b are adjacent floats
			}
		}
		total, slope := levelSweep(x, bases, lo, hi)
		if total < want {
			a = x
		} else {
			b = x
		}
		// A zero slope makes the step infinite or NaN; the bracket test
		// above turns that into a bisection.
		step := (want - total) / slope
		x += step
		if math.Abs(step) <= x*0x1p-42 { // within ~2¹⁰ floats: gallop on
			near = true
			break
		}
	}
	below := func(k uint64) bool {
		total, _ := levelSweep(math.Float64frombits(k), bases, lo, hi)
		return total < want
	}
	ka, kb := math.Float64bits(a), math.Float64bits(b)
	if near {
		// Gallop from the Newton estimate, or from the bracket end it
		// fell on, until the flip is bracketed, doubling the stride each
		// probe.
		up := x <= a
		if x > a && x < b {
			k := math.Float64bits(x)
			if up = below(k); up {
				ka = k
			} else {
				kb = k
			}
		}
		if up {
			for step := uint64(1); kb-ka > step; step *= 2 {
				k := ka + step
				if !below(k) {
					kb = k
					break
				}
				ka = k
			}
		} else {
			for step := uint64(1); kb-ka > step; step *= 2 {
				k := kb - step
				if below(k) {
					ka = k
					break
				}
				kb = k
			}
		}
	}
	for kb-ka > 1 {
		k := ka + (kb-ka)/2
		if below(k) {
			ka = k
		} else {
			kb = k
		}
	}
	return math.Float64frombits(kb)
}

// levelSweep returns the total allocation at level x, summed as the
// bisection sums it, and the total's slope there: Σ base_i over the
// applications the level leaves unclamped.
func levelSweep(x float64, bases, lo, hi []float64) (total, slope float64) {
	lo, hi = lo[:len(bases)], hi[:len(bases)]
	for i, b := range bases {
		p := x * b
		v := p
		if v < lo[i] {
			v = lo[i]
		}
		if v > hi[i] {
			v = hi[i]
		}
		if v == p {
			slope += b
		}
		total += v
	}
	return total, slope
}

// bisectLevel is the 64-sweep bisection of [0, lmax] cut short at its
// fixed point: once the midpoint rounds onto an endpoint the sweep either
// leaves [a, b] as it is or collapses it onto mid, so every later midpoint
// — and the (a+b)/2 the 64th sweep would return — is that same mid.
func bisectLevel(bases, lo, hi []float64, want, lmax float64) float64 {
	a, b := 0.0, lmax
	for i := 0; i < 64; i++ {
		mid := (a + b) / 2
		if mid == a || mid == b {
			return mid
		}
		if total, _ := levelSweep(mid, bases, lo, hi); total < want {
			a = mid
		} else {
			b = mid
		}
	}
	return (a + b) / 2
}

// applyLevelInto materialises the per-application targets for a level
// into the caller-owned dst, which must have the same length as bases.
func applyLevelInto(dst []float64, level float64, bases, lo, hi []float64) {
	for i, b := range bases {
		v := level * b
		if v < lo[i] {
			v = lo[i]
		}
		if v > hi[i] {
			v = hi[i]
		}
		dst[i] = v
	}
}
