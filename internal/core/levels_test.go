package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func totalAt(level float64, bases, lo, hi []float64) float64 {
	ts := make([]float64, len(bases))
	applyLevelInto(ts, level, bases, lo, hi)
	var t float64
	for _, v := range ts {
		t += v
	}
	return t
}

func TestSolveLevelExactProportional(t *testing.T) {
	bases := []float64{3, 1}
	lo := []float64{0, 0}
	hi := []float64{100, 100}
	level := solveLevel(bases, lo, hi, 40)
	ts := make([]float64, len(bases))
	applyLevelInto(ts, level, bases, lo, hi)
	if math.Abs(ts[0]-30) > 1e-6 || math.Abs(ts[1]-10) > 1e-6 {
		t.Errorf("targets = %v, want [30 10]", ts)
	}
}

func TestSolveLevelRevocation(t *testing.T) {
	// The high-share app caps at 10: its surplus must flow to the other.
	bases := []float64{3, 1}
	lo := []float64{0, 0}
	hi := []float64{10, 100}
	level := solveLevel(bases, lo, hi, 40)
	ts := make([]float64, len(bases))
	applyLevelInto(ts, level, bases, lo, hi)
	if ts[0] != 10 {
		t.Errorf("capped target = %v, want 10", ts[0])
	}
	if math.Abs(ts[1]-30) > 1e-6 {
		t.Errorf("re-funded target = %v, want 30", ts[1])
	}
}

// Withdrawing after revocation must reclaim from the over-entitled app
// first: this is the property the incremental scheme got wrong.
func TestSolveLevelWithdrawalReclaimsSurplusFirst(t *testing.T) {
	bases := []float64{3, 1}
	lo := []float64{0, 0}
	hi := []float64{10, 100}
	// At want=40, targets are [10, 30]: app 1 holds 3x its entitlement
	// relative to app 0. Shrinking to 25 must reduce app 1 only.
	level := solveLevel(bases, lo, hi, 25)
	ts := make([]float64, len(bases))
	applyLevelInto(ts, level, bases, lo, hi)
	if ts[0] != 10 {
		t.Errorf("app0 lost resource while app1 over-entitled: %v", ts)
	}
	if math.Abs(ts[1]-15) > 1e-6 {
		t.Errorf("app1 = %v, want 15", ts[1])
	}
	// Shrinking further to 12 finally cuts into app 0 (level below its
	// cap): proportionality is restored.
	level = solveLevel(bases, lo, hi, 12)
	applyLevelInto(ts, level, bases, lo, hi)
	if math.Abs(ts[0]-9) > 1e-6 || math.Abs(ts[1]-3) > 1e-6 {
		t.Errorf("proportional shrink = %v, want [9 3]", ts)
	}
}

func TestSolveLevelBoundsRespected(t *testing.T) {
	bases := []float64{1, 1}
	lo := []float64{5, 5}
	hi := []float64{8, 8}
	// Unreachably low want: floors bind.
	level := solveLevel(bases, lo, hi, 0)
	ts := make([]float64, len(bases))
	applyLevelInto(ts, level, bases, lo, hi)
	if ts[0] != 5 || ts[1] != 5 {
		t.Errorf("floor targets = %v", ts)
	}
	// Unreachably high want: caps bind.
	level = solveLevel(bases, lo, hi, 1000)
	applyLevelInto(ts, level, bases, lo, hi)
	if ts[0] != 8 || ts[1] != 8 {
		t.Errorf("cap targets = %v", ts)
	}
}

// Property: the solved level reproduces the wanted total within tolerance
// whenever it is feasible, and the total is monotone in the level.
func TestSolveLevelProperties(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		bases := make([]float64, n)
		lo := make([]float64, n)
		hi := make([]float64, n)
		var loSum, hiSum float64
		for i := 0; i < n; i++ {
			bases[i] = 0.1 + rng.Float64()*5
			lo[i] = rng.Float64() * 2
			hi[i] = lo[i] + rng.Float64()*10
			loSum += lo[i]
			hiSum += hi[i]
		}
		want := loSum + rng.Float64()*(hiSum-loSum)
		level := solveLevel(bases, lo, hi, want)
		got := totalAt(level, bases, lo, hi)
		if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			return false
		}
		// Monotonicity spot check.
		return totalAt(level*0.5, bases, lo, hi) <= got+1e-9 &&
			totalAt(level*2, bases, lo, hi) >= got-1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: targets from applyLevelInto always sit inside their bounds and are
// ordered by base (share) when bounds are shared.
func TestApplyLevelOrdering(t *testing.T) {
	prop := func(lvlRaw uint8, a, b, c uint8) bool {
		level := float64(lvlRaw) / 64
		bases := []float64{float64(a%20) + 1, float64(b%20) + 1, float64(c%20) + 1}
		lo := []float64{1, 1, 1}
		hi := []float64{50, 50, 50}
		ts := make([]float64, len(bases))
		applyLevelInto(ts, level, bases, lo, hi)
		for i := range ts {
			if ts[i] < lo[i] || ts[i] > hi[i] {
				return false
			}
			for j := range ts {
				if bases[i] < bases[j] && ts[i] > ts[j]+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
