package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/platform"
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

// levelInput is one water-level problem.
type levelInput struct {
	bases, lo, hi []float64
	want          float64
}

// levelInputs draws m problems of n apps. "random" mixes bases, floors and
// spans over one scale; "node-slo" is the SLO policy's batch pool, one
// share, one floor and one ceiling for every app; "fallback" puts the level
// far below λmax, where the solve hands over to the bisection.
func levelInputs(shape string, n, m int) []levelInput {
	rng := rand.New(rand.NewSource(int64(n)))
	chip := platform.ScaleSocket(platform.Skylake(), 32)
	out := make([]levelInput, m)
	for k := range out {
		in := levelInput{bases: make([]float64, n), lo: make([]float64, n), hi: make([]float64, n)}
		for i := range in.bases {
			switch shape {
			case "node-slo":
				in.bases[i] = float64(chip.Freq.Max())
				in.lo[i] = float64(chip.Freq.Min)
				in.hi[i] = float64(chip.Freq.Ceiling(32, false))
			default:
				in.bases[i] = 1e9 * (0.05 + rng.Float64())
				in.lo[i] = 1e9 * rng.Float64() * 0.4
				in.hi[i] = in.lo[i] + 1e9*rng.Float64()
			}
		}
		var loSum, hiSum float64
		for i := range in.bases {
			loSum += in.lo[i]
			hiSum += in.hi[i]
		}
		in.want = loSum + rng.Float64()*(hiSum-loSum)
		if shape == "fallback" {
			for i := range in.lo {
				in.lo[i] = 0
			}
			in.hi[0] = in.bases[0] * 0x1p30
			in.want = totalAt(0x1p10*(1+rng.Float64()), in.bases, in.lo, in.hi)
		}
		out[k] = in
	}
	return out
}

// TestSolveLevelAllocs holds the solve to no allocation at the node-slo
// batch pool's 8 apps and node-batch's 128, on every path.
func TestSolveLevelAllocs(t *testing.T) {
	for _, shape := range []string{"random", "node-slo", "fallback"} {
		for _, n := range []int{8, 128} {
			ins := levelInputs(shape, n, 16)
			i := 0
			allocs := testing.AllocsPerRun(100, func() {
				in := &ins[i%len(ins)]
				i++
				solveLevel(in.bases, in.lo, in.hi, in.want)
			})
			if allocs != 0 {
				t.Errorf("%s n=%d: %v allocs a solve, want 0", shape, n, allocs)
			}
		}
	}
}

// TestBisectionEndsOnTheFlip is why solveLevel falls back to the bisection
// only below λmax·2⁻⁸: for any flip t at or above it, the 64-sweep
// bisection of [0, λmax] ends on the adjacent floats pred(t), t (at most 61
// sweeps), while flips further down may need more than 64. The bisection
// here is run on the flip itself, so any λmax and t can be tried.
func TestBisectionEndsOnTheFlip(t *testing.T) {
	sweeps := func(lmax, flip float64) int {
		a, b := 0.0, lmax
		for i := 1; i <= 128; i++ {
			if mid := (a + b) / 2; mid < flip {
				a = mid
			} else {
				b = mid
			}
			if math.Float64bits(b)-math.Float64bits(a) <= 1 {
				return i
			}
		}
		return math.MaxInt
	}
	rng := rand.New(rand.NewSource(3))
	worst := func(shift int) int {
		w := 0
		for c := 0; c < 50000; c++ {
			lmax := math.Ldexp(1+rng.Float64(), rng.Intn(80)-40)
			switch c % 3 {
			case 0:
				lmax = math.Ldexp(1, rng.Intn(80)-40)
			case 1:
				lmax = math.Nextafter(lmax, 0)
			}
			floor := lmax * math.Ldexp(1, -shift)
			var flip float64
			switch c % 4 {
			case 0:
				flip = floor
			case 1:
				flip = floor + (lmax-floor)*rng.Float64()*rng.Float64()
			case 2:
				flip = math.Float64frombits(math.Float64bits(floor) + uint64(rng.Intn(1000)))
			default: // either side of the binade edge above the floor
				flip = math.Ldexp(1, math.Ilogb(floor)+1)
				if rng.Intn(2) == 0 {
					flip = math.Nextafter(flip, math.Inf(1))
				}
			}
			if flip >= floor && flip <= lmax {
				w = max(w, sweeps(lmax, flip))
			}
		}
		return w
	}
	if w := worst(8); w > 64 {
		t.Errorf("flips at or above λmax·2⁻⁸ took up to %d sweeps to end on the flip, want <= 64", w)
	}
	if w := worst(12); w <= 64 {
		t.Errorf("flips at λmax·2⁻¹² took at most %d sweeps; the fallback would never be needed", w)
	}
}

// levelSink keeps the benchmarked solves from being optimised away.
var levelSink float64

// BenchmarkSolveLevel times the solve and the 64-sweep reference on the
// shapes of levelInputs, at the node-slo batch pool's size, a 32-core
// chip's and node-batch's.
func BenchmarkSolveLevel(b *testing.B) {
	solvers := []struct {
		name  string
		solve func(bases, lo, hi []float64, want float64) float64
	}{{"solve", solveLevel}, {"ref", solveLevelRef}}
	for _, shape := range []string{"random", "node-slo"} {
		for _, n := range []int{8, 32, 128} {
			ins := levelInputs(shape, n, 64)
			for _, s := range solvers {
				b.Run(fmt.Sprintf("%s/n=%d/%s", shape, n, s.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := range b.N {
						in := &ins[i%len(ins)]
						levelSink = s.solve(in.bases, in.lo, in.hi, in.want)
					}
				})
			}
		}
	}
}
