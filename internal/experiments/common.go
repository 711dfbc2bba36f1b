// Package experiments reproduces every table and figure of the paper's
// evaluation (Sections 1, 3 and 6). Each FigureN function builds the
// workload mix the paper describes, runs it on the simulated platform under
// the corresponding mechanism or policy, and returns the measured series;
// the result types render to text tables matching the figure's axes. The
// index in DESIGN.md maps each experiment to its modules and bench target.
package experiments

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/opconfig"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// Per-iteration trace output. When a directory is set via SetTraceDir,
// every daemon-driven run writes its control-interval time series there as
// run-NNN-<policy>.csv through trace.SnapshotWriter (the same buffered CSV
// powerd's -trace flag produces).
var (
	traceMu  sync.Mutex
	traceDir string
	traceSeq int
)

// SetTraceDir enables (non-empty) or disables (empty) per-run CSV traces.
func SetTraceDir(dir string) {
	traceMu.Lock()
	defer traceMu.Unlock()
	traceDir = dir
}

// withNode assembles a study's node and hands it to run. A policy-driven
// node writes its control-interval trace when a trace directory is set,
// ahead of the study's own OnSnapshot hook. A failed flush fails the run:
// it would silently truncate the trace.
func withNode(s node.Spec, run func(*node.Node) error) (err error) {
	if s.Policy != nil {
		traceMu.Lock()
		dir := traceDir
		traceSeq++
		seq := traceSeq
		traceMu.Unlock()
		if dir != "" {
			f, ferr := os.Create(filepath.Join(dir, fmt.Sprintf("run-%03d-%s.csv", seq, s.Policy.Name())))
			if ferr != nil {
				return fmt.Errorf("experiments: trace file: %w", ferr)
			}
			sw := trace.NewSnapshotWriter(f, s.Apps)
			defer func() {
				if cerr := sw.Close(); cerr != nil && err == nil {
					err = cerr
				}
			}()
			own := s.OnSnapshot
			s.OnSnapshot = func(snap core.Snapshot) {
				sw.Observe(snap)
				if own != nil {
					own(snap)
				}
			}
		}
	}
	n, err := node.New(s)
	if err != nil {
		return err
	}
	return run(n)
}

// CoreMeasure is one core's averages over a measurement window.
type CoreMeasure struct {
	MeanFreq units.Hertz
	IPS      float64
	Power    units.Watts
}

// Measure is a machine-wide measurement window.
type Measure struct {
	Duration     time.Duration
	PackagePower units.Watts
	Cores        []CoreMeasure
}

// Meter measures a machine over a window that opens when the meter is made
// and closes at Measure.
type Meter struct {
	m       *sim.Machine
	at0     time.Duration
	instr0  []float64
	energy0 []units.Joules
	pkg0    units.Joules
}

// NewMeter opens a measurement window at the machine's current time. It
// restarts the machine's MeanFreq, so a machine serves one meter at a time.
func NewMeter(m *sim.Machine) *Meter {
	n := m.Chip().NumCores
	mt := &Meter{
		m:       m,
		at0:     m.Now(),
		instr0:  make([]float64, n),
		energy0: make([]units.Joules, n),
		pkg0:    m.PackageEnergy(),
	}
	m.ResetMeanFreq()
	for i := range n {
		mt.instr0[i] = m.Counters(i).Instr
		mt.energy0[i] = m.CoreEnergy(i)
	}
	return mt
}

// Measure returns the averages over the window so far.
func (mt *Meter) Measure() Measure {
	d := mt.m.Now() - mt.at0
	sec := d.Seconds()
	out := Measure{
		Duration: d,
		Cores:    make([]CoreMeasure, len(mt.instr0)),
	}
	if sec <= 0 {
		return out
	}
	out.PackagePower = (mt.m.PackageEnergy() - mt.pkg0).Power(d)
	for i := range out.Cores {
		out.Cores[i] = CoreMeasure{
			MeanFreq: mt.m.MeanFreq(i),
			IPS:      (mt.m.Counters(i).Instr - mt.instr0[i]) / sec,
			Power:    (mt.m.CoreEnergy(i) - mt.energy0[i]).Power(d),
		}
	}
	return out
}

// PolicyKind selects the mechanism or policy of a run.
type PolicyKind string

// The mechanisms and policies the experiments compare.
const (
	RAPL        PolicyKind = "rapl"
	FreqShares  PolicyKind = "frequency-shares"
	PerfShares  PolicyKind = "performance-shares"
	PowerShares PolicyKind = "power-shares"
	PriorityPol PolicyKind = "priority"
)

// opconfigNames maps the studies' policy names onto the names
// opconfig.PolicyFor builds by.
var opconfigNames = map[string]string{
	string(FreqShares):  "frequency",
	"freq-shares":       "frequency",
	string(PerfShares):  "performance",
	"perf-shares":       "performance",
	string(PowerShares): "power",
	string(PriorityPol): "priority",
	"slo-feedback":      "slo-feedback",
}

// policyFor builds a study's policy by its display name.
func policyFor(name string, chip platform.Chip, specs []core.AppSpec, limit units.Watts, slos ...core.SLOTarget) (core.Policy, error) {
	n, ok := opconfigNames[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown policy %q", name)
	}
	return opconfig.PolicyFor(n, chip, specs, limit, slos...)
}

// RunConfig describes one co-location run.
type RunConfig struct {
	Chip      platform.Chip
	Names     []string           // one profile name per occupied core, in core order
	Profiles  []workload.Profile // optional: explicit profiles overriding name lookup
	Shares    []units.Shares     // share policies; nil otherwise
	HP        []bool             // priority policy; nil otherwise
	MaxFreqs  []units.Hertz      // optional per-app useful-frequency caps (Section 4.4)
	Baselines []float64          // optional explicit standalone baselines (per app)
	Policy    PolicyKind
	Limit     units.Watts
	Warmup    time.Duration // default 40 s
	Window    time.Duration // default 20 s
}

// profiles resolves the run's workload profiles, preferring the explicit
// list over name lookup.
func (c RunConfig) profiles() ([]workload.Profile, error) {
	if c.Profiles != nil {
		if len(c.Profiles) != len(c.Names) {
			return nil, fmt.Errorf("experiments: %d profiles for %d names", len(c.Profiles), len(c.Names))
		}
		return c.Profiles, nil
	}
	out := make([]workload.Profile, len(c.Names))
	for i, n := range c.Names {
		p, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// RunResult is one run's measurements.
type RunResult struct {
	Measure
	Parked []bool // per occupied core: starved at the end of the run
}

// Run executes one co-location run and measures the steady-state window.
func Run(cfg RunConfig) (RunResult, error) {
	specs, err := buildSpecs(cfg)
	if err != nil {
		return RunResult{}, err
	}
	var pol core.Policy
	if cfg.Policy != RAPL {
		if pol, err = policyFor(string(cfg.Policy), cfg.Chip, specs, cfg.Limit); err != nil {
			return RunResult{}, err
		}
	}
	return runWithPolicy(cfg, specs, pol)
}

// runWithPolicy executes a run under an explicitly constructed policy (nil
// for the RAPL baseline) — used by Run and by studies that need policy
// options the by-name builder does not expose (e.g. partial LP
// starvation). It runs the warmup, then measures the window. The specs
// come from buildSpecs, which has resolved the config's profiles.
func runWithPolicy(cfg RunConfig, specs []core.AppSpec, pol core.Policy) (res RunResult, err error) {
	if len(cfg.Names) == 0 || len(cfg.Names) > cfg.Chip.NumCores {
		return RunResult{}, fmt.Errorf("experiments: %d apps on a %d-core chip", len(cfg.Names), cfg.Chip.NumCores)
	}
	warmup, window := cmp.Or(cfg.Warmup, 40*time.Second), cmp.Or(cfg.Window, 20*time.Second)
	err = withNode(node.Spec{Chip: cfg.Chip, Apps: specs, Profiles: cfg.Profiles, Policy: pol, Limit: cfg.Limit}, func(n *node.Node) error {
		if err := n.Run(warmup); err != nil {
			return err
		}
		meter := NewMeter(n.M)
		if err := n.Run(window); err != nil {
			return err
		}
		res = RunResult{Measure: meter.Measure(), Parked: make([]bool, len(cfg.Names))}
		for i := range res.Parked {
			res.Parked[i] = n.M.Idle(i)
		}
		return nil
	})
	return res, err
}

// buildSpecs assembles policy app specs from a run config.
func buildSpecs(cfg RunConfig) ([]core.AppSpec, error) {
	profiles, err := cfg.profiles()
	if err != nil {
		return nil, err
	}
	specs := make([]core.AppSpec, len(cfg.Names))
	for i := range cfg.Names {
		p := profiles[i]
		specs[i] = core.AppSpec{
			Name: cfg.Names[i],
			Core: i,
			AVX:  p.AVX,
		}
		if cfg.Shares != nil {
			specs[i].Shares = cfg.Shares[i]
		}
		if cfg.HP != nil {
			specs[i].HighPriority = cfg.HP[i]
		}
		if cfg.MaxFreqs != nil {
			specs[i].MaxFreq = cfg.MaxFreqs[i]
		}
		if cfg.Policy == PerfShares {
			if cfg.Baselines != nil {
				specs[i].BaselineIPS = cfg.Baselines[i]
			} else {
				specs[i].BaselineIPS = StandaloneIPS(cfg.Chip, p.Name)
			}
		}
	}
	return specs, nil
}

// baselineKey caches standalone measurements per chip and profile.
type baselineKey struct {
	chip string
	app  string
}

var (
	baselineMu    sync.Mutex
	baselineCache = make(map[baselineKey]float64)
)

// StandaloneIPS measures (once, then caches) an application's standalone
// performance: one copy alone on the chip with no power limit, the paper's
// offline baseline for performance shares and for "standalone at 85 W"
// normalisation. Single-core occupancy grants full turbo, as on the real
// machines.
func StandaloneIPS(chip platform.Chip, name string) float64 {
	key := baselineKey{chip.Name, name}
	baselineMu.Lock()
	if v, ok := baselineCache[key]; ok {
		baselineMu.Unlock()
		return v
	}
	baselineMu.Unlock()

	must := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("experiments: standalone baseline: %v", err))
		}
	}
	m, err := sim.New(chip, sim.WithTick(time.Millisecond))
	must(err)
	p, err := workload.ByName(name)
	must(err)
	must(m.Pin(workload.NewInstance(p), 0))
	must(m.SetRequest(0, chip.Freq.Max()))
	m.Run(2 * time.Second)
	meter := NewMeter(m)
	m.Run(8 * time.Second)
	ips := meter.Measure().Cores[0].IPS

	baselineMu.Lock()
	baselineCache[key] = ips
	baselineMu.Unlock()
	return ips
}

// classMeans averages a measurement over the cores for which sel is true.
func classMeans(res RunResult, sel func(i int) bool) (freq units.Hertz, ips float64, power units.Watts, n int) {
	for i := range res.Parked {
		if !sel(i) {
			continue
		}
		cm := res.Cores[i]
		freq += cm.MeanFreq
		ips += cm.IPS
		power += cm.Power
		n++
	}
	if n > 0 {
		freq /= units.Hertz(n)
		ips /= float64(n)
		power /= units.Watts(n)
	}
	return freq, ips, power, n
}
