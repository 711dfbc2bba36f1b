package ledger

import (
	"repro/internal/flight"
	"repro/internal/units"
)

// numAnomalyKinds sizes the per-kind counters; it tracks the flight
// Anomaly* code vocabulary.
const numAnomalyKinds = 4

// detectorConfig holds the streaming anomaly detectors' thresholds. Every
// detector keeps O(1) state per subject, fires once when its condition is
// first sustained, and re-arms only after the condition fully clears — a
// sustained excursion produces one anomaly, not one per interval.
type detectorConfig struct {
	// overshootMargin is the fractional headroom above the limit that
	// counts as overshoot; overshootN how many consecutive overshooting
	// intervals fire the sustained-overshoot anomaly.
	overshootMargin float64
	overshootN      int

	// oscillationWindow is the trailing interval window over which
	// limit-direction flips are counted, and oscillationFlips the flip
	// count that fires the cap-thrash anomaly.
	oscillationWindow int
	oscillationFlips  int

	// driftAlpha is the EWMA weight for an app's energy-share fraction;
	// driftMargin the absolute deviation from the granted share fraction
	// that counts as drift; driftN the consecutive drifting intervals that
	// fire.
	driftAlpha  float64
	driftMargin float64
	driftN      int

	// stragglerN is how many consecutive untrustworthy intervals flag a
	// socket as straggling.
	stragglerN int
}

// ledgerDetectors are the thresholds every ledger runs with.
var ledgerDetectors = detectorConfig{
	overshootMargin:   0.05,
	overshootN:        10,
	oscillationWindow: 100,
	oscillationFlips:  8,
	driftAlpha:        0.05,
	driftMargin:       0.15,
	driftN:            100,
	stragglerN:        50,
}

// detectors is the ledger's streaming detector state: fixed-size, updated
// once per Append without allocating.
type detectors struct {
	cfg detectorConfig

	overRun   int
	overFired bool

	lastLimitUW uint64
	lastDir     int
	flipRing    []bool
	flipNext    int
	flipCount   int
	oscFired    bool

	sockRun   []int
	sockFired []bool

	total [numAnomalyKinds]uint64
}

func newDetectors(cfg detectorConfig, sockets int) detectors {
	return detectors{
		cfg:       cfg,
		flipRing:  make([]bool, cfg.oscillationWindow),
		sockRun:   make([]int, sockets),
		sockFired: make([]bool, sockets),
	}
}

// counts snapshots per-kind firing totals (cold path; allocates a map).
func (d *detectors) counts() map[string]uint64 {
	var out map[string]uint64
	for k := uint32(0); k < numAnomalyKinds; k++ {
		if d.total[k] == 0 {
			continue
		}
		if out == nil {
			out = make(map[string]uint64, numAnomalyKinds)
		}
		out[flight.AnomalyName(k)] = d.total[k]
	}
	return out
}

// fire records one anomaly everywhere it surfaces: the per-kind total that
// Summarize reports, the metric family, and the flight recorder. Caller
// holds l.mu; fire is allocation-free.
func (l *Ledger) fire(code uint32, coreID int, value, aux uint64) {
	d := &l.det
	if code < numAnomalyKinds {
		d.total[code]++
		l.m.anomalies[code].Inc()
	}
	l.flight.Record(flight.Event{
		Kind: flight.KindAnomaly, Source: flight.SourceLedger,
		Core: int16(coreID), Arg: code, Value: value, Aux: aux,
	})
}

// detectPackage advances the package-scope detectors, overshoot and cap
// oscillation, by one interval. Caller holds l.mu.
func (l *Ledger) detectPackage(in Input) {
	d := &l.det

	// Sustained overshoot: package power above limit × (1+margin) for N
	// consecutive intervals.
	if in.Limit > 0 && in.PackagePower > in.Limit+units.Watts(float64(in.Limit)*d.cfg.overshootMargin) {
		d.overRun++
		if d.overRun >= d.cfg.overshootN && !d.overFired {
			d.overFired = true
			l.fire(flight.AnomalyOvershoot, -1,
				uint64(float64(in.PackagePower-in.Limit)*1e6), uint64(d.overRun))
		}
	} else {
		d.overRun = 0
		d.overFired = false
	}

	// Cap oscillation: the enforced limit reversing direction too often
	// inside the trailing window — the signature of a thrashing
	// coordinator or a fighting pair of controllers.
	uw := uint64(float64(in.Limit) * 1e6)
	dir := 0
	if d.lastLimitUW != 0 {
		if uw > d.lastLimitUW {
			dir = 1
		} else if uw < d.lastLimitUW {
			dir = -1
		}
	}
	flip := dir != 0 && d.lastDir != 0 && dir != d.lastDir
	if dir != 0 {
		d.lastDir = dir
	}
	d.lastLimitUW = uw
	if d.flipRing[d.flipNext] {
		d.flipCount--
	}
	d.flipRing[d.flipNext] = flip
	if flip {
		d.flipCount++
	}
	d.flipNext++
	if d.flipNext == len(d.flipRing) {
		d.flipNext = 0
	}
	if d.flipCount >= d.cfg.oscillationFlips {
		if !d.oscFired {
			d.oscFired = true
			l.fire(flight.AnomalyOscillation, -1, uw, uint64(d.flipCount))
		}
	} else if d.flipCount == 0 {
		d.oscFired = false
	}
}

// detectDrift advances app i's share-drift detector by an interval in
// which it took frac of the attributed energy: the EWMA of that fraction
// wandering from its granted share fraction. An interval that attributes
// nothing says nothing about proportionality and is not passed. Caller
// holds l.mu.
func (l *Ledger) detectDrift(i int, frac float64) {
	d, a := &l.det, &l.apps[i]
	if !a.ewmaPrimed {
		a.ewmaFrac = frac
		a.ewmaPrimed = true
	} else {
		a.ewmaFrac += d.cfg.driftAlpha * (frac - a.ewmaFrac)
	}
	dev := a.ewmaFrac - l.shareFrac[i]
	if dev < 0 {
		dev = -dev
	}
	if dev > d.cfg.driftMargin {
		a.driftRun++
		if a.driftRun >= d.cfg.driftN && !a.driftFired {
			a.driftFired = true
			l.fire(flight.AnomalyShareDrift, a.spec.Core,
				uint64(a.ewmaFrac*1e6), uint64(l.shareFrac[i]*1e6))
		}
	} else {
		a.driftRun = 0
		a.driftFired = false
	}
}

// detectStragglers advances the straggling-socket detector by one
// interval: a RAPL domain whose telemetry has been untrustworthy for a
// sustained run of intervals. Caller holds l.mu.
func (l *Ledger) detectStragglers(in Input) {
	d := &l.det
	for s := range d.sockRun {
		trusted := s < len(in.SocketStatus) && in.SocketStatus[s].Trustworthy()
		if !trusted {
			d.sockRun[s]++
			if d.sockRun[s] >= d.cfg.stragglerN && !d.sockFired[s] {
				d.sockFired[s] = true
				l.fire(flight.AnomalyStraggler, s, 0, uint64(d.sockRun[s]))
			}
		} else {
			d.sockRun[s] = 0
			d.sockFired[s] = false
		}
	}
}
