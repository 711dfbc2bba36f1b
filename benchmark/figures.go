package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// buildDir is where the benchmark keeps what it compiles, inside the
// checkout.
const buildDir = ".bench_build"

// buildExperiments compiles cmd/experiments from the checkout's source
// into buildDir and returns the binary's path.
func buildExperiments(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "experiments")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/experiments")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/experiments: %v\n%s", err, out)
	}
	return bin, nil
}

// runFigure runs the experiments binary for one -figure argument and
// returns its standard output and the host seconds it took.
func runFigure(bin, figure string) (out []byte, seconds float64, err error) {
	cmd := exec.Command(bin, "-figure", figure)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err = cmd.Run()
	seconds = time.Since(t0).Seconds()
	if err != nil {
		return nil, seconds, fmt.Errorf("experiments -figure %s: %v\n%s", figure, err, stderr.Bytes())
	}
	return stdout.Bytes(), seconds, nil
}

// runFigures measures the figures workload: passes of the built
// cmd/experiments -figure all, each held byte for byte against the
// commit's results/all_figures.txt. The seed has nothing to vary here:
// the paper's figures are one fixed input. Traced, the pass is taken
// apart instead — one child process per figure, which must add up to
// the same output — and the five paper policies are probed in process.
func runFigures(passes int, cfg config, traced bool, chk *checker) (*measurement, error) {
	mm := newMeasurement("figures")
	mm.ops["passes"] = passes
	want, err := os.ReadFile(filepath.Join(cfg.root, "results", "all_figures.txt"))
	if err != nil {
		return nil, err
	}
	var bin string
	setup := func() error {
		t0 := time.Now()
		if bin, err = buildExperiments(cfg.root); err != nil {
			return err
		}
		mm.setup = append(mm.setup, time.Since(t0).Seconds())
		return nil
	}
	for i := 0; i < cfg.setupsBefore(); i++ {
		if err := setup(); err != nil {
			return nil, err
		}
	}

	if !traced {
		for p := 0; p < passes; p++ {
			out, sec, err := runFigure(bin, "all")
			chk.attempted++
			chk.err(p, "figure pass", err)
			if err == nil {
				chk.figures(p, "the output of -figure all", out, want)
			}
			mm.opMS = append(mm.opMS, sec*1e3)
		}
		// A window of one pass: both timings are the quicker pass.
		mm.tailPct, mm.window = 100, 1
		mm.counts["figures.bytes"] = float64(len(want))
		for len(mm.setup) < cfg.setups {
			if err := setup(); err != nil {
				return nil, err
			}
		}
		return mm, nil
	}

	var all bytes.Buffer
	var sum float64
	for i, f := range figureNames {
		out, sec, err := runFigure(bin, f)
		chk.err(i, "figure "+f, err)
		all.Write(out)
		sum += sec
		mm.layers["experiments."+f+"_s"] = sec
	}
	chk.figures(0, "the output of the figures run one by one", all.Bytes(), want)
	mm.layers["experiments.sum_s"] = sum
	mm.opMS, mm.tailPct = []float64{sum * 1e3}, 100
	mm.counts["figures.bytes"] = float64(all.Len())
	if err := probePolicies(mm); err != nil {
		return nil, err
	}
	return mm, nil
}

// probePolicies replays each paper policy's Update over snapshots
// captured from an eight-app Ryzen node (the chip with per-core power,
// which power shares need) and reports the mean host microseconds of
// one Update.
func probePolicies(mm *measurement) error {
	chip := platform.Ryzen()
	m, err := sim.New(chip)
	if err != nil {
		return err
	}
	specs := make([]core.AppSpec, chip.NumCores)
	for c := range specs {
		p := workload.MustByName(batchNames[c%len(batchNames)])
		if err := m.Pin(workload.NewInstance(p), c); err != nil {
			return err
		}
		specs[c] = core.AppSpec{
			Name: p.Name, Core: c, Shares: units.Shares(10 + c%7), AVX: p.AVX,
			HighPriority: c < chip.NumCores/2, BaselineIPS: p.IPS(chip.Freq.Ceiling(1, p.AVX)),
		}
	}
	const limit units.Watts = 50
	policies := map[string]func() (core.Policy, error){
		"frequency-shares":   func() (core.Policy, error) { return core.NewFrequencyShares(chip, specs, core.ShareConfig{}) },
		"performance-shares": func() (core.Policy, error) { return core.NewPerformanceShares(chip, specs, core.ShareConfig{}) },
		"power-shares":       func() (core.Policy, error) { return core.NewPowerShares(chip, specs, core.ShareConfig{}) },
		"priority-shares": func() (core.Policy, error) {
			return core.NewPriorityShares(chip, specs, core.PriorityConfig{Limit: limit})
		},
		"priority": func() (core.Policy, error) { return core.NewPriority(chip, specs, core.PriorityConfig{Limit: limit}) },
	}

	// Capture: one second of the node under frequency shares.
	const captured = 1000
	var snaps []core.Snapshot
	pol, err := policies["frequency-shares"]()
	if err != nil {
		return err
	}
	d, err := daemon.New(daemon.Config{
		Chip: chip, Policy: pol, Apps: specs, Limit: limit, Interval: time.Millisecond,
		OnSnapshot: func(s core.Snapshot) {
			s.Apps = append([]core.AppState(nil), s.Apps...)
			snaps = append(snaps, s)
		},
	}, m.Device(), daemon.MachineActuator{M: m})
	if err != nil {
		return err
	}
	if err := d.AttachVirtual(m); err != nil {
		return err
	}
	m.Run(captured * time.Millisecond)
	if err := d.Err(); err != nil {
		return err
	}

	const laps = 20
	for _, name := range paperPolicies {
		p, err := policies[name]()
		if err != nil {
			return err
		}
		p.Initial()
		t0 := time.Now()
		for lap := 0; lap < laps; lap++ {
			for _, s := range snaps {
				p.Update(s)
			}
		}
		mm.layers["core.decide_us."+name] = float64(time.Since(t0)) / float64(laps*len(snaps)) / 1e3
	}
	return nil
}
