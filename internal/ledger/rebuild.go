package ledger

import "repro/internal/flight"

// Rebuilt is a ledger account book reconstructed from a flight dump's
// KindEnergy events. Because every event carries its account's cumulative
// microjoules in Aux, the reconstruction is exact — bit-identical to the
// live ledger's totals at the instant of the dump — no matter how much of
// the ring was overwritten, as long as each account's latest event is
// retained (the ledger emits every account every interval, so the newest
// interval alone suffices).
type Rebuilt struct {
	// AppUJ holds cumulative microjoules by app index (flight.Meta.Apps
	// order in a dump).
	AppUJ []uint64

	TotalUJ        uint64
	UnattributedUJ uint64
	ExcludedUJ     uint64
	LimitUJ        uint64
	OvershootUJ    uint64

	// AnomalyCounts tallies retained KindAnomaly events by kind name —
	// the ring-bounded feed, not a lifetime total.
	AnomalyCounts map[string]uint64

	// Events is how many ledger events contributed.
	Events int
}

// Rebuild folds a dump's events into account totals, taking the
// latest-sequenced KindEnergy event per account and the latest interval's
// app set. Events must be sorted by sequence number, which flight.Dump
// guarantees.
func Rebuild(events []flight.Event) Rebuilt {
	r := Rebuilt{}
	for _, e := range events {
		if e.Source != flight.SourceLedger {
			continue
		}
		switch e.Kind {
		case flight.KindEnergy:
			r.Events++
			switch e.Arg {
			case flight.EnergyArgTotal:
				r.TotalUJ = e.Aux
			case flight.EnergyArgUnattributed:
				r.UnattributedUJ = e.Aux
			case flight.EnergyArgExcluded:
				r.ExcludedUJ = e.Aux
			case flight.EnergyArgLimit:
				r.LimitUJ = e.Aux
			case flight.EnergyArgOvershoot:
				r.OvershootUJ = e.Aux
			default:
				if e.Arg >= 1<<20 {
					continue // corrupt index, not a plausible app count
				}
				i := int(e.Arg)
				if i == 0 {
					// Each interval's batch opens with app 0 and lists the
					// whole app set, which a reconfiguration may have shrunk.
					r.AppUJ = r.AppUJ[:0]
				}
				for len(r.AppUJ) <= i {
					r.AppUJ = append(r.AppUJ, 0)
				}
				r.AppUJ[i] = e.Aux
			}
		case flight.KindAnomaly:
			if r.AnomalyCounts == nil {
				r.AnomalyCounts = make(map[string]uint64)
			}
			r.AnomalyCounts[flight.AnomalyName(e.Arg)]++
		}
	}
	return r
}

// AttributedUJ sums the rebuilt per-app accounts.
func (r Rebuilt) AttributedUJ() uint64 {
	var sum uint64
	for _, v := range r.AppUJ {
		sum += v
	}
	return sum
}
