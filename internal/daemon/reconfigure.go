package daemon

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/units"
)

// Reconfig describes a live configuration change applied to a running
// daemon through Reconfigure. Zero-valued fields keep their current
// setting; a non-nil Apps requires a Policy rebuilt over those specs,
// because policies capture their specs at construction.
type Reconfig struct {
	Policy core.Policy    // new policy; nil keeps the current one
	Apps   []core.AppSpec // new app specs; nil keeps the current ones
	Limit  units.Watts    // new power limit; 0 keeps the current one
}

// validate applies the same checks construction does, against the daemon's
// chip. It mutates nothing.
func (rc Reconfig) validate(d *Daemon) error {
	if rc.Policy == nil && rc.Apps == nil && rc.Limit == 0 {
		return fmt.Errorf("daemon: empty reconfiguration")
	}
	if rc.Apps != nil && rc.Policy == nil {
		return fmt.Errorf("daemon: changing apps requires a policy rebuilt over the new specs")
	}
	if rc.Limit < 0 {
		return fmt.Errorf("daemon: power limit must be positive, got %v", rc.Limit)
	}
	if rc.Apps != nil {
		if len(rc.Apps) == 0 {
			return fmt.Errorf("daemon: no applications")
		}
		seen := make(map[int]bool, len(rc.Apps))
		for _, s := range rc.Apps {
			if s.Name == "" {
				return fmt.Errorf("daemon: app on core %d has no name", s.Core)
			}
			if s.Core < 0 || s.Core >= d.cfg.Chip.NumCores {
				return fmt.Errorf("daemon: app %s pinned to core %d beyond chip's %d cores",
					s.Name, s.Core, d.cfg.Chip.NumCores)
			}
			if seen[s.Core] {
				return fmt.Errorf("daemon: core %d assigned twice", s.Core)
			}
			seen[s.Core] = true
		}
	}
	return nil
}

// Reconfigure changes the daemon's policy, managed applications, and/or
// power limit without a restart. The change is validated exactly like
// construction, applied atomically between control intervals (the sampler
// keeps its counters, so no sample is dropped), journaled in the decision
// log with ReasonReconfigure, and recorded in the flight recorder as
// KindReconfigure events. When the policy changes, every parked core is
// woken and the new policy's initial distribution is applied immediately;
// the next control interval runs entirely under the new configuration.
func (d *Daemon) Reconfigure(rc Reconfig) error {
	if err := rc.validate(d); err != nil {
		return err
	}

	d.mu.Lock()
	clear(d.written)
	prevLimit := d.cfg.Limit
	var codes []uint32
	if rc.Policy != nil {
		d.cfg.Policy = rc.Policy
		codes = append(codes, flight.ReconfigPolicy)
	}
	if rc.Apps != nil {
		d.cfg.Apps = append([]core.AppSpec(nil), rc.Apps...)
		d.sizeAppBuffers()
		d.cfg.Ledger.Reconfigure(d.cfg.Apps)
		codes = append(codes, flight.ReconfigShares)
		// Health state belongs to the app on the core; a new app set starts
		// trusted.
		clear(d.health)
		clear(d.lastGood)
	}
	if rc.Limit > 0 && rc.Limit != prevLimit {
		d.cfg.Limit = rc.Limit
		codes = append(codes, flight.ReconfigLimit)
	}
	for _, c := range codes {
		d.cfg.Flight.Record(flight.Event{
			Kind: flight.KindReconfigure, Source: flight.SourceControl, Core: -1,
			Arg: c, Value: microwatts(d.cfg.Limit), Aux: microwatts(prevLimit),
		})
	}

	// A swapped policy starts from the clean slate its constructor assumed:
	// wake anything the old policy parked, then apply the new initial
	// distribution.
	var actions []core.Action
	if rc.Policy != nil && d.started {
		for c, p := range d.parked {
			if !p {
				continue
			}
			if err := d.act.Park(c, false); err != nil {
				d.m.actuationErrors.Inc()
				continue
			}
			d.parked[c] = false
			d.m.actWake.Inc()
			d.cfg.Flight.Record(flight.Event{
				Kind: flight.KindActuate, Source: flight.SourceDaemon,
				Core: int16(c), Arg: flight.ActWake,
			})
		}
		actions = d.cfg.Policy.Initial()
		_, _ = d.apply(actions) // as in RunIteration: counted, not fatal
	}
	polName := d.cfg.Policy.Name()
	snap := d.last
	snap.Limit = d.cfg.Limit
	d.mergeFlightMeta()
	d.mu.Unlock()

	d.m.reconfigures.Inc()
	d.m.limitWatts.Set(float64(d.Limit()))
	if rc.Limit > 0 && rc.Limit != prevLimit {
		d.m.limitChanges.Inc()
	}
	if d.cfg.Journal != nil {
		d.cfg.Journal.Record(polName, []core.Reason{core.ReasonReconfigure}, snap, actions)
	}
	return nil
}
