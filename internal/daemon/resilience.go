package daemon

import (
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// readmitAfter is how many consecutive trustworthy intervals a degraded core
// must produce before the daemon hands it back to the policy.
const readmitAfter = 2

// goodState is what the policy keeps seeing of a core the daemon has stopped
// trusting: the derived values of its last trustworthy sample.
type goodState struct {
	freq  units.Hertz
	ips   float64
	power units.Watts
}

// coreHealth is the health state machine of the app pinned to one core.
type coreHealth struct {
	degraded   bool
	healthyRun int // consecutive trustworthy intervals while degraded
}

// updateHealthLocked advances a core's health state from its sample status
// and reports whether its app is currently degraded (policy input frozen,
// actuation forced to the safe floor). Caller holds d.mu.
func (d *Daemon) updateHealthLocked(coreID int, st telemetry.CoreStatus) bool {
	h := &d.health[coreID]
	if st.Trustworthy() {
		if !h.degraded {
			return false
		}
		h.healthyRun++
		if h.healthyRun >= readmitAfter {
			h.degraded = false
			h.healthyRun = 0
			d.m.readmissions.Inc()
			d.cfg.Flight.Record(flight.Event{
				Kind: flight.KindHealth, Source: flight.SourceDaemon,
				Core: int16(coreID), Arg: flight.HealthReadmitted, Value: uint64(st),
			})
			return false
		}
		return true
	}
	h.healthyRun = 0
	if !h.degraded {
		h.degraded = true
		d.cfg.Flight.Record(flight.Event{
			Kind: flight.KindHealth, Source: flight.SourceDaemon,
			Core: int16(coreID), Arg: flight.HealthDegraded, Value: uint64(st),
		})
	}
	return true
}

// overrideDegraded rewrites the policy's actions for degraded operation:
// actions on dark cores (whose MSRs fail in both directions) are dropped,
// actions on otherwise-degraded cores are clamped to the safe floor, and
// degraded cores the policy left alone get an explicit safe-floor action.
// When the package reading itself is untrustworthy every core is forced to
// the floor — with the energy counter lying, no frequency above the floor
// can be proven within budget. Caller holds d.mu.
func (d *Daemon) overrideDegraded(actions []core.Action, sample telemetry.Sample) []core.Action {
	pkgBlind := !sample.PkgStatus.Trustworthy()
	floor := d.cfg.Chip.SafeFloor()
	dark := func(c int) bool { return sample.Cores[c].Status == telemetry.StatusDark }
	out := d.scrOverride[:0]
	handled := d.scrHandled
	for i := range handled {
		handled[i] = false
	}
	for _, a := range actions {
		handled[a.Core] = true
		switch {
		case dark(a.Core):
			// No point actuating a core whose register file is gone; the
			// write would fail and teach us nothing.
			continue
		case a.Park:
			// Parking is always safe: a parked core draws C-state power.
			out = append(out, a)
		case d.health[a.Core].degraded || pkgBlind:
			d.m.safeFloorActions.Inc()
			out = append(out, core.Action{Core: a.Core, Freq: floor})
		default:
			out = append(out, a)
		}
	}
	// Cores the policy left untouched still need forcing down when they —
	// or the package counter — went untrustworthy.
	for _, spec := range d.cfg.Apps {
		c := spec.Core
		if handled[c] || dark(c) || d.parked[c] {
			continue
		}
		if d.health[c].degraded || pkgBlind {
			d.m.safeFloorActions.Inc()
			out = append(out, core.Action{Core: c, Freq: floor})
		}
	}
	return out
}
