package experiments

import (
	"time"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// DVFSRow is one frequency step of a DVFS sweep: the distribution of
// normalised runtime and package power across the SPEC2017 subset, plus
// energy efficiency (the mobile-systems metric the paper contrasts its
// power focus against — Section 2's framing).
type DVFSRow struct {
	Freq    units.Hertz
	Runtime stats.BoxPlot
	Power   stats.BoxPlot

	// EnergyPerInstr is the median nanojoules per instruction across the
	// subset: high at low frequency (static power amortised over few
	// instructions) and at high frequency (V² cost), with the
	// energy-optimal point in between.
	EnergyPerInstr float64

	// RuntimeByBench, PowerByBench and EPIByBench align with the result's
	// Benchmarks.
	RuntimeByBench []float64
	PowerByBench   []float64
	EPIByBench     []float64
}

// DVFSResult reproduces Figures 2 (Skylake) and 3 (Ryzen): the effect of
// DVFS P-states on runtime (normalised to the paper's reference frequency)
// and package power, per benchmark, with box-plot summaries.
type DVFSResult struct {
	Chip       string
	NormFreq   units.Hertz
	Benchmarks []string
	Rows       []DVFSRow
}

// Figure2 sweeps DVFS on Skylake (0.8-3.0 GHz in 200 MHz steps, runtime
// normalised to 2.2 GHz).
func Figure2() (DVFSResult, error) {
	return dvfsSweep(platform.Skylake(), 200*units.MHz)
}

// Figure3 sweeps DVFS on Ryzen (0.4-3.8 GHz in 200 MHz steps, runtime
// normalised to 3.0 GHz).
func Figure3() (DVFSResult, error) {
	return dvfsSweep(platform.Ryzen(), 200*units.MHz)
}

// dvfsSweep pins each benchmark alone on one core, sets every P-state in
// the sweep, and measures steady-state IPS and package power. Normalised
// runtime is the inverse of IPS normalised to the reference frequency.
func dvfsSweep(chip platform.Chip, step units.Hertz) (DVFSResult, error) {
	out := DVFSResult{
		Chip:       chip.Name,
		NormFreq:   chip.NormFreq,
		Benchmarks: workload.Names(),
	}
	var freqs []units.Hertz
	for f := chip.Freq.Min; f <= chip.Freq.Max(); f += step {
		freqs = append(freqs, f)
	}
	// Ensure the normalisation frequency is part of the sweep.
	hasNorm := false
	for _, f := range freqs {
		if f == chip.NormFreq {
			hasNorm = true
		}
	}
	if !hasNorm {
		freqs = append(freqs, chip.NormFreq)
	}

	// ips[bench][freq index], power likewise.
	ips := make([][]float64, len(out.Benchmarks))
	pwr := make([][]float64, len(out.Benchmarks))
	normIPS := make([]float64, len(out.Benchmarks))
	for bi, name := range out.Benchmarks {
		ips[bi] = make([]float64, len(freqs))
		pwr[bi] = make([]float64, len(freqs))
		for fi, f := range freqs {
			m, err := sim.New(chip, sim.WithTick(2*time.Millisecond))
			if err != nil {
				return DVFSResult{}, err
			}
			in := workload.NewInstance(workload.MustByName(name))
			if err := m.Pin(in, 0); err != nil {
				return DVFSResult{}, err
			}
			if err := m.SetRequest(0, f); err != nil {
				return DVFSResult{}, err
			}
			m.Run(time.Second)
			meter := NewMeter(m)
			m.Run(10 * time.Second)
			ms := meter.Measure()
			ips[bi][fi] = ms.Cores[0].IPS
			pwr[bi][fi] = float64(ms.PackagePower)
			if f == chip.NormFreq {
				normIPS[bi] = ms.Cores[0].IPS
			}
		}
	}

	for fi, f := range freqs {
		row := DVFSRow{
			Freq:           f,
			RuntimeByBench: make([]float64, len(out.Benchmarks)),
			PowerByBench:   make([]float64, len(out.Benchmarks)),
			EPIByBench:     make([]float64, len(out.Benchmarks)),
		}
		for bi := range out.Benchmarks {
			row.RuntimeByBench[bi] = normIPS[bi] / ips[bi][fi]
			row.PowerByBench[bi] = pwr[bi][fi]
			row.EPIByBench[bi] = pwr[bi][fi] / ips[bi][fi] * 1e9 // nJ/instr
		}
		row.Runtime = stats.Summarize(row.RuntimeByBench)
		row.Power = stats.Summarize(row.PowerByBench)
		row.EnergyPerInstr = stats.Percentile(row.EPIByBench, 50)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Tables renders the sweep as two tables (runtime and power box plots).
func (r DVFSResult) Tables() []trace.Table {
	rt := trace.Table{
		Title:  "Normalised runtime vs frequency, " + r.Chip + " (norm @ " + r.NormFreq.String() + ")",
		Header: []string{"MHz", "p1", "q1", "median", "q3", "p99"},
	}
	pw := trace.Table{
		Title:  "Package power (W) vs frequency, " + r.Chip,
		Header: []string{"MHz", "p1", "q1", "median", "q3", "p99", "median nJ/instr"},
	}
	for _, row := range r.Rows {
		rt.AddRow(trace.Hz(row.Freq), trace.F(row.Runtime.P1, 3), trace.F(row.Runtime.Q1, 3),
			trace.F(row.Runtime.Median, 3), trace.F(row.Runtime.Q3, 3), trace.F(row.Runtime.P99, 3))
		pw.AddRow(trace.Hz(row.Freq), trace.F(row.Power.P1, 2), trace.F(row.Power.Q1, 2),
			trace.F(row.Power.Median, 2), trace.F(row.Power.Q3, 2), trace.F(row.Power.P99, 2),
			trace.F(row.EnergyPerInstr, 2))
	}
	return []trace.Table{rt, pw}
}
