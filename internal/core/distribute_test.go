package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestWaterFillProportional(t *testing.T) {
	alloc := WaterFill(nil, 100, []float64{3, 1}, []float64{1000, 1000})
	if math.Abs(alloc[0]-75) > 1e-9 || math.Abs(alloc[1]-25) > 1e-9 {
		t.Errorf("alloc = %v, want [75 25]", alloc)
	}
}

func TestWaterFillRespectsCapsAndRevokes(t *testing.T) {
	// First recipient caps at 10; its residual 65 flows to the second.
	alloc := WaterFill(nil, 100, []float64{3, 1}, []float64{10, 1000})
	if alloc[0] != 10 {
		t.Errorf("alloc[0] = %v, want cap 10", alloc[0])
	}
	if math.Abs(alloc[1]-90) > 1e-9 {
		t.Errorf("alloc[1] = %v, want 90 (revoked portion re-funded)", alloc[1])
	}
}

func TestWaterFillInsufficientCaps(t *testing.T) {
	alloc := WaterFill(nil, 100, []float64{1, 1}, []float64{10, 20})
	if alloc[0] != 10 || alloc[1] != 20 {
		t.Errorf("alloc = %v, want caps [10 20]", alloc)
	}
}

func TestWaterFillZeroAmountAndWeights(t *testing.T) {
	alloc := WaterFill(nil, 0, []float64{1, 2}, []float64{10, 10})
	if alloc[0] != 0 || alloc[1] != 0 {
		t.Errorf("zero amount alloc = %v", alloc)
	}
	alloc = WaterFill(nil, -5, []float64{1}, []float64{10})
	if alloc[0] != 0 {
		t.Errorf("negative amount alloc = %v", alloc)
	}
	// Zero-weight recipients get nothing even with cap room.
	alloc = WaterFill(nil, 10, []float64{0, 1}, []float64{10, 10})
	if alloc[0] != 0 || math.Abs(alloc[1]-10) > 1e-9 {
		t.Errorf("zero-weight alloc = %v", alloc)
	}
}

// A destination with room is reused whatever it held, and the result is
// what a fresh one gets.
func TestWaterFillReusesDestination(t *testing.T) {
	weights, caps := []float64{3, 0, 1, 2}, []float64{10, 5, 1000, 0}
	want := WaterFill(nil, 100, weights, caps)
	dst := []float64{-7, 42, math.NaN(), 1, 9}
	got := WaterFill(dst, 100, weights, caps)
	if &got[0] != &dst[0] {
		t.Error("destination with room not reused")
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("alloc[%d] = %v into a used destination, %v into a fresh one", i, got[i], want[i])
		}
	}
}

func TestWaterFillPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on mismatched lengths")
		}
	}()
	WaterFill(nil, 1, []float64{1}, []float64{1, 2})
}

// Properties: conservation (sum == min(amount, sum caps)), cap respect, and
// non-negativity, over random instances.
func TestWaterFillProperties(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		weights := make([]float64, n)
		caps := make([]float64, n)
		var capSum float64
		for i := 0; i < n; i++ {
			weights[i] = rng.Float64() * 5
			caps[i] = rng.Float64() * 20
			capSum += caps[i]
		}
		amount := rng.Float64() * 50
		alloc := WaterFill(nil, amount, weights, caps)
		var sum float64
		for i, a := range alloc {
			if a < -1e-12 || a > caps[i]+1e-9 {
				return false
			}
			sum += a
		}
		want := math.Min(amount, capSum)
		return math.Abs(sum-want) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: with ample caps the allocation is exactly share-proportional.
func TestWaterFillExactProportionality(t *testing.T) {
	prop := func(a, b, c uint8) bool {
		w := []float64{float64(a%50) + 1, float64(b%50) + 1, float64(c%50) + 1}
		caps := []float64{1e12, 1e12, 1e12}
		alloc := WaterFill(nil, 1000, w, caps)
		total := w[0] + w[1] + w[2]
		for i := range w {
			if math.Abs(alloc[i]-1000*w[i]/total) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestNormPerf(t *testing.T) {
	st := AppState{Spec: AppSpec{BaselineIPS: 2e9}, IPS: 1e9}
	if got := st.NormPerf(); got != 0.5 {
		t.Errorf("NormPerf = %v", got)
	}
	st.Spec.BaselineIPS = 0
	if got := st.NormPerf(); got != 0 {
		t.Errorf("NormPerf without baseline = %v", got)
	}
}

func TestValidateSpecs(t *testing.T) {
	good := []AppSpec{{Name: "a", Core: 0, Shares: 1}, {Name: "b", Core: 1, Shares: 2}}
	if err := validateSpecs(good, true); err != nil {
		t.Errorf("valid specs rejected: %v", err)
	}
	cases := []struct {
		name  string
		specs []AppSpec
	}{
		{"empty", nil},
		{"unnamed", []AppSpec{{Core: 0, Shares: 1}}},
		{"negative core", []AppSpec{{Name: "a", Core: -1, Shares: 1}}},
		{"duplicate core", []AppSpec{{Name: "a", Core: 0, Shares: 1}, {Name: "b", Core: 0, Shares: 1}}},
	}
	for _, c := range cases {
		if err := validateSpecs(c.specs, true); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	// Shares only checked when required.
	noShares := []AppSpec{{Name: "a", Core: 0}}
	if err := validateSpecs(noShares, false); err != nil {
		t.Errorf("needShares=false rejected: %v", err)
	}
	if err := validateSpecs(noShares, true); err == nil {
		t.Error("needShares=true accepted zero shares")
	}
	_ = units.Shares(0)
}
