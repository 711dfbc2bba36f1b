package bench

import (
	"fmt"
	"sort"
	"strings"
)

// DefaultThreshold is the fractional ns/op regression the comparator
// tolerates (20%, on top of cross-machine calibration).
const DefaultThreshold = 0.20

// allocSlack is the absolute allocs/op slack on top of the threshold:
// tiny benchmarks flip a handful of allocations with runtime-internal
// noise, which must not read as a regression.
const allocSlack = 8

// zeroAllocPrefixes names the benchmark families held to the
// zero-allocation invariant: the steady-state control loop, the energy
// ledger that rides on it, and the latency-service tick and telemetry
// read that share its cadence. Any entry under these prefixes with a nonzero allocs/op fails
// the gate outright — no threshold, no slack, no calibration — because a
// single allocation per iteration is a GC-pressure regression the
// threshold machinery exists to excuse everywhere else.
var zeroAllocPrefixes = []string{"loop_iteration/", "ledger_append/", "svc_tick/", "svc_telemetry/"}

// zeroAllocGated reports whether a benchmark entry is held to the hard
// zero-allocation gate.
func zeroAllocGated(name string) bool {
	for _, p := range zeroAllocPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// shapeWarnRatio is how far apart two machines' logical CPU counts may
// be before the comparator warns that calibration is stretching across
// very different hardware.
const shapeWarnRatio = 4

// Regression is one entry that got slower than the baseline allows.
type Regression struct {
	Name   string
	Metric string  // "ns/op" or "allocs/op"
	Old    float64 // baseline value
	New    float64 // current value
	Limit  float64 // the value the comparator would still have accepted
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s %.1f -> %.1f (limit %.1f)", r.Name, r.Metric, r.Old, r.New, r.Limit)
}

// CompareOptions tunes the comparator.
type CompareOptions struct {
	// Threshold is the tolerated fractional ns/op growth
	// (DefaultThreshold when zero or negative).
	Threshold float64
	// Absolute disables machine-speed calibration: ratios are compared
	// against the threshold directly. Use when baseline and candidate
	// ran on the same machine.
	Absolute bool
}

// Compare checks a candidate trajectory against a baseline and returns
// every regression past the threshold, plus entries the candidate
// dropped. To keep a slower-or-faster CI runner from producing phantom
// verdicts, the comparator first calibrates: the median ns/op ratio
// across all matched entries estimates the machine-speed difference, and
// each entry is then held to threshold-above-that-median. A uniform
// slowdown (different hardware) calibrates away; a single entry
// regressing (a real change) does not shift the median and is caught.
// Allocs/op are machine-independent and compared uncalibrated.
func Compare(baseline, candidate *File, opts CompareOptions) ([]Regression, error) {
	if baseline.Schema != candidate.Schema {
		return nil, fmt.Errorf("bench: schema mismatch: baseline %q vs candidate %q", baseline.Schema, candidate.Schema)
	}
	threshold := opts.Threshold
	if threshold <= 0 {
		threshold = DefaultThreshold
	}

	byName := make(map[string]Entry, len(candidate.Entries))
	for _, e := range candidate.Entries {
		byName[e.Name] = e
	}

	type pair struct {
		old, new Entry
		ratio    float64
	}
	var pairs []pair
	var regs []Regression
	for _, old := range baseline.Entries {
		cur, ok := byName[old.Name]
		if !ok {
			// A smoke candidate drops the largest configurations by design;
			// a full candidate losing an entry is a silent coverage hole.
			if !candidate.Smoke {
				regs = append(regs, Regression{Name: old.Name, Metric: "missing", Old: old.NsPerOp})
			}
			continue
		}
		p := pair{old: old, new: cur, ratio: 1}
		if old.NsPerOp > 0 {
			p.ratio = cur.NsPerOp / old.NsPerOp
		}
		pairs = append(pairs, p)
	}

	scale := 1.0
	if !opts.Absolute && len(pairs) > 0 {
		ratios := make([]float64, len(pairs))
		for i, p := range pairs {
			ratios[i] = p.ratio
		}
		sort.Float64s(ratios)
		scale = ratios[len(ratios)/2]
		if scale < 1 {
			// The candidate machine is faster (or the code got uniformly
			// quicker); never loosen the bound below the baseline itself.
			scale = 1
		}
	}

	for _, p := range pairs {
		if limit := p.old.NsPerOp * scale * (1 + threshold); p.new.NsPerOp > limit {
			regs = append(regs, Regression{
				Name: p.old.Name, Metric: "ns/op",
				Old: p.old.NsPerOp, New: p.new.NsPerOp, Limit: limit,
			})
		}
		if zeroAllocGated(p.old.Name) {
			continue // held to the hard zero gate below instead
		}
		if limit := p.old.AllocsPerOp*(1+threshold) + allocSlack; p.new.AllocsPerOp > limit {
			regs = append(regs, Regression{
				Name: p.old.Name, Metric: "allocs/op",
				Old: p.old.AllocsPerOp, New: p.new.AllocsPerOp, Limit: limit,
			})
		}
	}

	// The zero-allocation gate runs over every candidate entry — matched
	// or not — so a newly added configuration cannot smuggle allocations
	// in just because the baseline predates it.
	for _, e := range candidate.Entries {
		if zeroAllocGated(e.Name) && e.AllocsPerOp > 0 {
			var old float64
			if o, ok := oldByName(baseline, e.Name); ok {
				old = o.AllocsPerOp
			}
			regs = append(regs, Regression{
				Name: e.Name, Metric: "allocs/op (zero-alloc gate)",
				Old: old, New: e.AllocsPerOp, Limit: 0,
			})
		}
	}
	return regs, nil
}

func oldByName(f *File, name string) (Entry, bool) {
	for _, e := range f.Entries {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// ShapeWarnings reports advisory mismatches between the machines that
// produced the baseline and the candidate: a different architecture, or
// logical CPU counts more than shapeWarnRatio apart. These make the
// median-ratio calibration stretch further than it was designed to, so
// the verdicts deserve scepticism — but a shape difference alone is
// exactly what calibration exists to absorb, so it warns rather than
// fails.
func ShapeWarnings(baseline, candidate *File) []string {
	var warns []string
	if baseline.GOOS != candidate.GOOS || baseline.GOARCH != candidate.GOARCH {
		warns = append(warns, fmt.Sprintf(
			"baseline ran on %s/%s but candidate on %s/%s; ns/op calibration is unreliable across architectures",
			baseline.GOOS, baseline.GOARCH, candidate.GOOS, candidate.GOARCH))
	}
	bq, cq := baseline.NumCPU, candidate.NumCPU
	if bq > 0 && cq > 0 && (bq >= cq*shapeWarnRatio || cq >= bq*shapeWarnRatio) {
		warns = append(warns, fmt.Sprintf(
			"baseline machine has %d logical CPUs but candidate has %d (>%dx apart); contended phases scale differently",
			bq, cq, shapeWarnRatio))
	}
	bp, cp := baseline.GOMAXPROCS, candidate.GOMAXPROCS
	if bp > 0 && cp > 0 && (bp >= cp*shapeWarnRatio || cp >= bp*shapeWarnRatio) {
		warns = append(warns, fmt.Sprintf(
			"baseline ran with GOMAXPROCS=%d but candidate with GOMAXPROCS=%d (>%dx apart); scheduler width differs wildly",
			bp, cp, shapeWarnRatio))
	}
	return warns
}
