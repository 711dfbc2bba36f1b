package core

import "slices"

// WaterFill distributes a non-negative amount across recipients in
// proportion to their weights, capping each recipient at caps[i] and
// redistributing the capped recipients' residual share among the rest.
// This is the min-funding revocation step of the paper's redistribution
// function [Waldspurger 2002]: once an application saturates (cannot
// usefully absorb more of the resource), its portion is revoked and
// re-funded to the remaining applications in share proportion.
//
// The allocations are written into dst, grown only if its capacity is
// short, and returned; they satisfy 0 <= alloc[i] <= caps[i] and
// sum(alloc) == min(amount, sum(caps)) up to floating-point error.
// Recipients with non-positive weight receive nothing. WaterFill panics if
// the slice lengths differ (programmer error).
func WaterFill(dst []float64, amount float64, weights, caps []float64) []float64 {
	if len(weights) != len(caps) {
		panic("core: WaterFill slice lengths differ")
	}
	alloc := slices.Grow(dst[:0], len(weights))[:len(weights)]
	clear(alloc)
	if amount <= 0 {
		return alloc
	}
	// A saturated recipient's allocation is positive, so while the passes
	// run it is held negated: the sign marks who has left, without a slice
	// of flags beside the allocations.
	active := func(i int) bool { return weights[i] > 0 && caps[i] > 0 && alloc[i] >= 0 }
	nActive := 0
	for i := range weights {
		if active(i) {
			nActive++
		}
	}
	remaining := amount
	// Each pass either exhausts the amount or saturates at least one
	// recipient, so the loop runs at most len(weights)+1 times.
	for remaining > 1e-12 && nActive > 0 {
		var wsum float64
		for i, w := range weights {
			if active(i) {
				wsum += w
			}
		}
		if wsum <= 0 {
			break
		}
		saturatedThisPass := false
		// Distribute against a fixed snapshot of remaining so shares are
		// computed consistently within the pass.
		pass := remaining
		for i := range weights {
			if !active(i) {
				continue
			}
			give := pass * weights[i] / wsum
			room := caps[i] - alloc[i]
			if give >= room {
				give = room
				alloc[i] = -(alloc[i] + give)
				nActive--
				saturatedThisPass = true
			} else {
				alloc[i] += give
			}
			remaining -= give
		}
		if !saturatedThisPass {
			// Everyone took their full proportional slice: done.
			break
		}
	}
	for i, a := range alloc {
		if a < 0 {
			alloc[i] = -a
		}
	}
	return alloc
}
