package core

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
// proportional entitlement.
//
// The total is monotone non-decreasing in λ, so bisection is exact. Bases
// must be positive; bounds must satisfy 0 <= lo_i <= hi_i.
//
// The bisection is the 64-sweep one cut short at its fixed point: once the
// midpoint rounds onto an endpoint (mid == a || mid == b, after ~53 halvings
// of a float64 interval) the sweep either leaves [a, b] as it is or collapses
// it onto mid, so every later midpoint — and the (a+b)/2 the 64th sweep
// would return — is that same mid. Returning it there is bit-identical.
func solveLevel(bases, lo, hi []float64, want float64) float64 {
	total := func(level float64) float64 {
		var t float64
		for i, b := range bases {
			v := level * b
			if v < lo[i] {
				v = lo[i]
			}
			if v > hi[i] {
				v = hi[i]
			}
			t += v
		}
		return t
	}
	var loSum, hiSum float64
	for i := range bases {
		loSum += lo[i]
		hiSum += hi[i]
	}
	if want <= loSum {
		return 0
	}
	// Upper bound on λ: every target capped.
	var lmax float64
	for i, b := range bases {
		if b <= 0 {
			continue
		}
		if l := hi[i] / b; l > lmax {
			lmax = l
		}
	}
	if want >= hiSum {
		return lmax
	}
	a, b := 0.0, lmax
	for i := 0; i < 64; i++ {
		mid := (a + b) / 2
		if mid == a || mid == b {
			return mid
		}
		if total(mid) < want {
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
