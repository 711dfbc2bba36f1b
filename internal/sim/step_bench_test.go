package sim

import (
	"fmt"
	"testing"

	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/workload"
)

// BenchmarkStep times one tick of a scaled Skylake socket with every core
// running a SPEC profile (phased and not, AVX and not) at requests spread
// over the P-state range, registry and flight recorder attached, after a
// warm-up that settles C-states and memos. ns/core is the tick's cost per
// core.
//
//	go test -run '^$' -bench Step ./internal/sim
func BenchmarkStep(b *testing.B) {
	for _, n := range []int{8, 32, 128, 512} {
		b.Run(fmt.Sprintf("cores=%d", n), func(b *testing.B) {
			chip := platform.ScaleSocket(platform.Skylake(), n)
			m, err := New(chip, WithMetrics(metrics.NewRegistry()), WithFlightRecorder(flight.New(0)))
			if err != nil {
				b.Fatal(err)
			}
			profiles := workload.SPEC2017()
			levels := chip.Freq.Levels()
			for c := 0; c < n; c++ {
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
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/core")
		})
	}
}
