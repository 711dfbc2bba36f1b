package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/units"
)

// Figure4Row is one (limit, throttle frequency) cell of the RAPL × per-core
// DVFS study.
type Figure4Row struct {
	Limit         units.Watts
	ThrottleReq   units.Hertz // requested frequency of the throttled half
	FreeFreq      units.Hertz // measured frequency of the unconstrained half
	ThrottledFreq units.Hertz // measured frequency of the throttled half
	FreeNorm      float64     // unconstrained performance vs all-free at 85 W
}

// Figure4Result reproduces Figure 4: copies of gcc on all Skylake cores,
// half unconstrained at the maximum request and half throttled to a fixed
// frequency, under descending RAPL limits. Two effects must appear: power
// saved by the throttled half speeds up the unconstrained half, and RAPL
// reduces only the unconstrained (fastest) cores' frequency.
type Figure4Result struct {
	Rows []Figure4Row
}

// Figure4Limits and Figure4Throttles are the sweep points.
var (
	Figure4Limits    = []units.Watts{85, 70, 60, 50, 40}
	Figure4Throttles = []units.Hertz{800 * units.MHz, 1200 * units.MHz, 1600 * units.MHz, 2000 * units.MHz, 2500 * units.MHz}
)

// Figure4 runs the sweep.
func Figure4() (Figure4Result, error) {
	chip := platform.Skylake()

	specs := make([]core.AppSpec, chip.NumCores)
	for i := range specs {
		specs[i] = core.AppSpec{Name: "gcc", Core: i}
	}
	run := func(limit units.Watts, throttle units.Hertz) (ms Measure, err error) {
		// The RAPL baseline requests the maximum everywhere; the upper
		// half is then throttled.
		err = withNode(node.Spec{Chip: chip, Apps: specs, Limit: limit}, func(n *node.Node) error {
			for i := chip.NumCores / 2; i < chip.NumCores; i++ {
				if err := n.M.SetRequest(i, throttle); err != nil {
					return err
				}
			}
			n.M.Run(5 * time.Second)
			meter := NewMeter(n.M)
			n.M.Run(10 * time.Second)
			ms = meter.Measure()
			return nil
		})
		return ms, err
	}

	// Baseline: all cores unconstrained at 85 W.
	base, err := run(85, chip.Freq.Max())
	if err != nil {
		return Figure4Result{}, err
	}
	baseIPS := base.Cores[0].IPS

	var out Figure4Result
	for _, limit := range Figure4Limits {
		for _, throttle := range Figure4Throttles {
			ms, err := run(limit, throttle)
			if err != nil {
				return Figure4Result{}, err
			}
			var freeF, thrF units.Hertz
			var freeIPS float64
			half := chip.NumCores / 2
			for i := 0; i < half; i++ {
				freeF += ms.Cores[i].MeanFreq
				freeIPS += ms.Cores[i].IPS
			}
			for i := half; i < chip.NumCores; i++ {
				thrF += ms.Cores[i].MeanFreq
			}
			out.Rows = append(out.Rows, Figure4Row{
				Limit:         limit,
				ThrottleReq:   throttle,
				FreeFreq:      freeF / units.Hertz(half),
				ThrottledFreq: thrF / units.Hertz(chip.NumCores-half),
				FreeNorm:      freeIPS / float64(half) / baseIPS,
			})
		}
	}
	return out, nil
}

// Tables renders the result.
func (r Figure4Result) Tables() []trace.Table {
	t := trace.Table{
		Title:  "Figure 4: RAPL x per-core DVFS (gcc on all Skylake cores, half throttled)",
		Header: []string{"limit(W)", "throttle req MHz", "free MHz", "throttled MHz", "free norm perf"},
	}
	for _, row := range r.Rows {
		t.AddRow(trace.W(row.Limit), trace.Hz(row.ThrottleReq), trace.Hz(row.FreeFreq),
			trace.Hz(row.ThrottledFreq), trace.F(row.FreeNorm, 3))
	}
	return []trace.Table{t}
}
