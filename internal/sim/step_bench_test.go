package sim

import (
	"fmt"
	"testing"

	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/workload"
)

// BenchmarkStep times one tick with every core running a SPEC profile
// (phased and not, AVX and not) at requests spread over the P-state range,
// registry and flight recorder attached, after a warm-up that settles
// C-states and memos. ns/core is the tick's cost per core. The cores=N
// cases are a scaled Skylake socket running the SPEC mix; shape=node-batch
// is the 2×64-core node running the four batch profiles, as the
// benchmark's node-batch workload does.
//
//	go test -run '^$' -bench Step ./internal/sim
func BenchmarkStep(b *testing.B) {
	for _, n := range []int{8, 32, 128, 512} {
		b.Run(fmt.Sprintf("cores=%d", n), func(b *testing.B) {
			benchStep(b, platform.ScaleSocket(platform.Skylake(), n), workload.SPEC2017())
		})
	}
	b.Run("shape=node-batch", func(b *testing.B) {
		var batch []workload.Profile
		for _, name := range []string{"gcc", "cam4", "leela", "cactusBSSN"} {
			batch = append(batch, workload.MustByName(name))
		}
		benchStep(b, platform.MultiSocket(platform.ScaleSocket(platform.Skylake(), 64), 2), batch)
	})
}

func benchStep(b *testing.B, chip platform.Chip, profiles []workload.Profile) {
	m, err := New(chip, WithMetrics(metrics.NewRegistry()), WithFlightRecorder(flight.New(0)))
	if err != nil {
		b.Fatal(err)
	}
	levels := chip.Freq.Levels()
	for c := 0; c < chip.NumCores; c++ {
		if err := m.Pin(workload.NewInstance(profiles[c%len(profiles)]), c); err != nil {
			b.Fatal(err)
		}
		if err := m.SetRequest(c, levels[c%len(levels)]); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		m.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(chip.NumCores), "ns/core")
}
