package ledger

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// attributeSocketWalk is the reference attributeSocket is held to: the
// largest-remainder fix-up as a walk, one scan of the socket's apps per
// leftover microjoule. Same inputs, same ledger state, app for app; like
// attributeSocket it writes each app's lastUJ, zero when nothing is billed.
func attributeSocketWalk(l *Ledger, s int, uj uint64, cores []telemetry.CoreSample) uint64 {
	idx := l.sockApps[s]
	for _, ai := range idx {
		l.apps[ai].lastUJ = 0
	}
	if uj == 0 || len(idx) == 0 {
		return 0
	}
	var sumW float64
	for _, ai := range idx {
		sh := float64(l.apps[ai].spec.Shares)
		if sh <= 0 {
			sh = 1
		}
		w := sh * float64(cores[l.apps[ai].spec.Core].ActiveFreq)
		l.weights[ai] = w
		sumW += w
	}
	if sumW <= 0 {
		return 0
	}
	var sumBase uint64
	for _, ai := range idx {
		f := float64(uj) * (l.weights[ai] / sumW)
		b := uint64(f)
		l.baseUJ[ai] = b
		l.rem[ai] = f - float64(b)
		sumBase += b
	}
	for sumBase > uj {
		maxAt := idx[0]
		for _, ai := range idx {
			if l.baseUJ[ai] > l.baseUJ[maxAt] {
				maxAt = ai
			}
		}
		l.baseUJ[maxAt]--
		sumBase--
	}
	for left := uj - sumBase; left > 0; left-- {
		maxAt := -1
		for _, ai := range idx {
			if maxAt < 0 || l.rem[ai] > l.rem[maxAt] {
				maxAt = ai
			}
		}
		l.baseUJ[maxAt]++
		l.rem[maxAt]--
	}
	for _, ai := range idx {
		l.apps[ai].lastUJ += l.baseUJ[ai]
		l.apps[ai].totalUJ += l.baseUJ[ai]
	}
	return uj
}

// floorSum recomputes Σ floor(uj·wᵢ/Σw) the way attribution does, so the
// test can tell which fix-up branch a draw lands in.
func floorSum(l *Ledger, s int, uj uint64, cores []telemetry.CoreSample) (sum uint64, live bool) {
	var sumW float64
	w := make([]float64, 0, len(l.sockApps[s]))
	for _, ai := range l.sockApps[s] {
		sh := float64(l.apps[ai].spec.Shares)
		if sh <= 0 {
			sh = 1
		}
		w = append(w, sh*float64(cores[l.apps[ai].spec.Core].ActiveFreq))
		sumW += w[len(w)-1]
	}
	for _, wi := range w {
		sum += uint64(float64(uj) * (wi / sumW))
	}
	return sum, sumW > 0
}

// Selecting the leftover's largest remainders at once gives every app the
// microjoules the walk gives it — over seeded random shares and
// frequencies, idle cores and wholly idle sockets, energies from zero
// through fewer-microjoules-than-apps to past 2^53 (where float error
// makes the floors overshoot, or fall short by more than a lap), on
// sockets of 1, 2 and 64 apps.
func TestSelectionMatchesRemainderWalk(t *testing.T) {
	for _, perSocket := range []int{1, 2, 64} {
		t.Run(fmt.Sprintf("apps=%d", perSocket), func(t *testing.T) {
			chip := platform.MultiSocket(platform.ScaleSocket(platform.Skylake(), perSocket), 2)
			rng := rand.New(rand.NewSource(int64(perSocket)))
			apps := make([]core.AppSpec, chip.NumCores)
			for i := range apps {
				apps[i] = core.AppSpec{Name: fmt.Sprintf("a%d", i), Core: i, Shares: units.Shares(rng.Intn(100))} // 0 counts as 1
			}
			got, ref := newTestLedger(t, chip, apps, Config{}), newTestLedger(t, chip, apps, Config{})
			cores := make([]telemetry.CoreSample, chip.NumCores)
			var laps, overshoots, ties int
			for round := 0; round < 600; round++ {
				idle := rng.Float64()
				if round%50 == 0 {
					idle = 2 // every core asleep
				}
				for c := range cores {
					cores[c].ActiveFreq = 0
					if rng.Float64() >= idle*0.3 {
						cores[c].ActiveFreq = units.Hertz(8e8 + 1e8*float64(rng.Intn(30))) // few distinct weights: remainders tie
					}
				}
				var uj uint64
				switch rng.Intn(5) {
				case 0:
					uj = uint64(rng.Intn(2 * perSocket)) // zero, or fewer microjoules than apps
				case 1:
					uj = 1<<53 + uint64(rng.Int63n(1<<60))
				default:
					uj = uint64(rng.Int63n(400_000_000)) // up to 400 W over a second
				}
				for s := 0; s < chip.Sockets(); s++ {
					if sum, live := floorSum(got, s, uj, cores); live {
						switch {
						case sum > uj:
							overshoots++
						case uj-sum > uint64(perSocket):
							laps++
						case uj-sum > 1:
							ties++
						}
					}
					a, b := got.attributeSocket(s, uj, cores), attributeSocketWalk(ref, s, uj, cores)
					if a != b {
						t.Fatalf("round %d socket %d: attributed %d, walk %d", round, s, a, b)
					}
				}
				for i := range got.apps {
					if got.apps[i].totalUJ != ref.apps[i].totalUJ || got.apps[i].lastUJ != ref.apps[i].lastUJ {
						t.Fatalf("round %d uj %d: app %d got %d (last %d), walk %d (last %d)", round, uj, i,
							got.apps[i].totalUJ, got.apps[i].lastUJ, ref.apps[i].totalUJ, ref.apps[i].lastUJ)
					}
				}
			}
			if perSocket > 1 && (laps == 0 || overshoots == 0 || ties == 0) {
				t.Errorf("draws missed a fix-up branch: %d laps, %d overshoots, %d multi-leftover", laps, overshoots, ties)
			}
		})
	}
}
