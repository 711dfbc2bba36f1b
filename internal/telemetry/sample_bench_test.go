package telemetry

import (
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// BenchmarkSample times one Sample — the per-register MSR sweeps, their
// flight-recorder commits, the per-socket package reads and the per-core
// classification — on a 32-core Skylake socket and on a 2×64-core Skylake
// package, every core running a SPEC profile at requests spread over the
// P-state range, after a warm-up. The machine steps one 1 ms tick between
// samples with the timer stopped, so each sample sees moving counters.
// ns/core is the sample's cost per core.
//
//	go test -run '^$' -bench Sample ./internal/telemetry
func BenchmarkSample(b *testing.B) {
	for _, c := range []struct {
		name string
		chip platform.Chip
	}{
		{"cores=32", platform.ScaleSocket(platform.Skylake(), 32)},
		{"cores=2x64", platform.MultiSocket(platform.ScaleSocket(platform.Skylake(), 64), 2)},
	} {
		b.Run(c.name, func(b *testing.B) {
			chip := c.chip
			m, err := sim.New(chip, sim.WithFlightRecorder(flight.New(0)))
			if err != nil {
				b.Fatal(err)
			}
			profiles := workload.SPEC2017()
			levels := chip.Freq.Levels()
			for i := 0; i < chip.NumCores; i++ {
				if err := m.Pin(workload.NewInstance(profiles[i%len(profiles)]), i); err != nil {
					b.Fatal(err)
				}
				if err := m.SetRequest(i, levels[i%len(levels)]); err != nil {
					b.Fatal(err)
				}
			}
			s, err := NewSampler(m.Device(), chip.NumCores, chip.Freq.Nom, chip.PerCorePower)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.SetSockets(chip.Sockets()); err != nil {
				b.Fatal(err)
			}
			if err := s.Prime(); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 1000; i++ {
				m.Step()
				if _, err := s.Sample(time.Millisecond); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m.Step()
				b.StartTimer()
				if _, err := s.Sample(time.Millisecond); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(chip.NumCores), "ns/core")
		})
	}
}
