package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/platform"
	"repro/internal/svc"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// The SLO study's fixed scenario: an open-loop latency service on six
// Ryzen cores (the chip with per-core power measurement, so all five
// policies apply) replaying a diurnal arrival trace, colocated with two
// cpuburn batch cores, everything at equal per-core shares so static
// policies have no reason to favour the service. The budget is chosen
// so the equal-share water level leaves the serving cores too slow for
// the objective — the gap SLO feedback closes by draining the batch
// pool.
var (
	// SLOStudyLimit is the package budget of the headline comparison.
	SLOStudyLimit units.Watts = 35

	// SLOStudyTarget is the service's p99 objective.
	SLOStudyTarget = 65 * time.Millisecond

	// SLOSetpointMargin shrinks the controller's internal setpoint
	// below the declared objective. The PI loop's deadband tolerates
	// ±10% around its setpoint, so regulating to the objective itself
	// would let the tail settle just above it; regulating 15% inside
	// keeps the deadband's upper edge under the objective.
	SLOSetpointMargin = 0.85

	// SLOStudyPeriod is the compressed diurnal period.
	SLOStudyPeriod = 20 * time.Second

	// SLOStudyBaseRate is the diurnal base arrival rate (requests/s);
	// the evening peak reaches 115% of it.
	SLOStudyBaseRate = 300.0

	sloServiceCores = []int{0, 1, 2, 3, 4, 5}
	sloBatchCores   = []int{6, 7}
)

// SLOPolicies are the policies the study compares, feedback first.
var SLOPolicies = []string{
	"slo-feedback",
	"frequency-shares",
	"performance-shares",
	"power-shares",
	"priority",
}

// SLOCell is one policy's outcome under the diurnal open-loop load.
type SLOCell struct {
	Policy  string
	P50     float64 // seconds, over the full measurement window
	P90     float64
	P99     float64
	Target  float64 // seconds
	Met     bool    // P99 <= Target
	Rate    float64 // completions/s over the window
	Queue   int     // waiting requests at the end of the run
	SvcFreq units.Hertz
	BatFreq units.Hertz
	BatIPS  float64 // summed batch instructions/s
	Package units.Watts
}

// SLOStudyResult is the SLO-feedback vs static-policy comparison under
// a diurnal open-loop arrival process (the subsystem's headline
// experiment): at a budget where every static share policy leaves the
// service's p99 over its objective, the feedback policy trades batch
// frequency for serving frequency and meets it.
type SLOStudyResult struct {
	Limit  units.Watts
	Target time.Duration
	Cells  []SLOCell
}

// sloSetpoint is the controller's internal p99 setpoint.
func sloSetpoint() time.Duration {
	return time.Duration(float64(SLOStudyTarget) * SLOSetpointMargin)
}

// sloServiceConfig is the study's service: it replays a diurnal
// arrival trace materialised from the canonical rate curve, so every
// policy sees the identical open-loop arrival sequence.
func sloServiceConfig() (svc.Config, error) {
	span := 3 * SLOStudyPeriod // one warmup + two measured periods
	arrivals, err := svc.PoissonTrace(svc.Diurnal(SLOStudyBaseRate, SLOStudyPeriod), span, 1)
	if err != nil {
		return svc.Config{}, err
	}
	return svc.Config{
		Name:      "websearch",
		Cores:     sloServiceCores,
		Seed:      1,
		Arrivals:  svc.OpenTrace,
		Trace:     arrivals,
		SLO:       SLOStudyTarget,
		RecordAll: true,
	}, nil
}

// sloSpecsFor builds the run's app specs: equal shares everywhere, the
// service marked high priority for the priority policy's benefit.
func sloSpecsFor(chip platform.Chip) []core.AppSpec {
	specs := make([]core.AppSpec, 0, len(sloServiceCores)+len(sloBatchCores))
	for _, c := range sloServiceCores {
		specs = append(specs, core.AppSpec{
			Name: "websearch", Core: c, Shares: 50, HighPriority: true,
			BaselineIPS: svc.InteractiveProfile.IPS(chip.Freq.Ceiling(1, false)),
		})
	}
	for _, c := range sloBatchCores {
		specs = append(specs, core.AppSpec{
			Name: "cpuburn", Core: c, Shares: 50, AVX: true,
			BaselineIPS: workload.CPUBurn.IPS(chip.Freq.Ceiling(1, true)),
		})
	}
	return specs
}

// sloRun executes one policy for one warmup period plus two measured
// diurnal periods and reports the window's latency distribution.
func sloRun(policy string, limit units.Watts) (SLOCell, error) {
	chip := platform.Ryzen()
	scfg, err := sloServiceConfig()
	if err != nil {
		return SLOCell{}, err
	}
	specs := sloSpecsFor(chip)
	targets := []core.SLOTarget{{Service: "websearch", P99: sloSetpoint()}}
	pol, err := policyFor(policy, chip, specs, limit, targets...)
	if err != nil {
		return SLOCell{}, err
	}
	var s *svc.Service
	var ms Measure
	var done0 uint64
	err = withNode(node.Spec{
		Chip: chip, Apps: specs, Policy: pol, Limit: limit,
		Services: []svc.Config{scfg}, SLOTargets: targets,
	}, func(n *node.Node) error {
		s = n.Services.Service("websearch")
		if err := n.Run(SLOStudyPeriod); err != nil { // one warmup period
			return err
		}
		s.ResetStats()
		done0 = s.Completed()
		meter := NewMeter(n.M)
		if err := n.Run(2 * SLOStudyPeriod); err != nil { // two measured periods
			return err
		}
		ms = meter.Measure()
		return nil
	})
	if err != nil {
		return SLOCell{}, err
	}

	cell := SLOCell{
		Policy:  policy,
		P50:     s.LatencyPercentile(50),
		P90:     s.LatencyPercentile(90),
		P99:     s.LatencyPercentile(99),
		Target:  SLOStudyTarget.Seconds(),
		Rate:    float64(s.Completed()-done0) / (2 * SLOStudyPeriod).Seconds(),
		Queue:   s.QueueLen(),
		Package: ms.PackagePower,
	}
	cell.Met = cell.P99 > 0 && cell.P99 <= cell.Target
	var sf, bf units.Hertz
	for _, c := range sloServiceCores {
		sf += ms.Cores[c].MeanFreq
	}
	cell.SvcFreq = sf / units.Hertz(len(sloServiceCores))
	for _, c := range sloBatchCores {
		bf += ms.Cores[c].MeanFreq
		cell.BatIPS += ms.Cores[c].IPS
	}
	cell.BatFreq = bf / units.Hertz(len(sloBatchCores))
	return cell, nil
}

// SLOStudy runs every policy at the study budget.
func SLOStudy() (SLOStudyResult, error) {
	return SLOStudyAt(SLOStudyLimit)
}

// SLOStudyAt runs the comparison at an explicit budget.
func SLOStudyAt(limit units.Watts) (SLOStudyResult, error) {
	out := SLOStudyResult{Limit: limit, Target: SLOStudyTarget}
	for _, p := range SLOPolicies {
		cell, err := sloRun(p, limit)
		if err != nil {
			return SLOStudyResult{}, err
		}
		out.Cells = append(out.Cells, cell)
	}
	return out, nil
}

// Tables renders the result.
func (r SLOStudyResult) Tables() []trace.Table {
	tb := trace.Table{
		Title: fmt.Sprintf("SLO study: diurnal open-loop websearch (6 Ryzen cores) + cpuburn (2 cores), %v budget, p99 objective %v",
			r.Limit, r.Target),
		Header: []string{"policy", "p50 (ms)", "p90 (ms)", "p99 (ms)", "target (ms)", "met", "rate (req/s)", "svc MHz", "batch MHz", "batch GIPS", "pkg (W)"},
	}
	for _, c := range r.Cells {
		met := "MISSED"
		if c.Met {
			met = "met"
		}
		tb.AddRow(c.Policy,
			trace.F(c.P50*1000, 1), trace.F(c.P90*1000, 1), trace.F(c.P99*1000, 1),
			trace.F(c.Target*1000, 0), met, trace.F(c.Rate, 0),
			trace.Hz(c.SvcFreq), trace.Hz(c.BatFreq), trace.F(c.BatIPS/1e9, 2),
			trace.W(c.Package))
	}
	return []trace.Table{tb}
}
