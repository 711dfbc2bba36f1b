package powerapi

import (
	"fmt"
	"maps"
	"slices"
	"sync"
)

// field is one replaced-whole payload field of NodeStatus: its wire name,
// as Clear spells it, and how diffStatus and Apply read and move it.
type field struct {
	name string
	// absent reports the field at its zero value (an empty slice counts),
	// which is also when omitempty keeps it off the wire.
	absent func(*NodeStatus) bool
	// same reports whether two frames hold the same value.
	same func(a, b *NodeStatus) bool
	// move sets dst's field to src's.
	move func(dst, src *NodeStatus)
}

// value is a field compared with ==, absent at its type's zero.
func value[T comparable](name string, at func(*NodeStatus) *T) field {
	var zero T
	return field{name,
		func(s *NodeStatus) bool { return *at(s) == zero },
		func(a, b *NodeStatus) bool { return *at(a) == *at(b) },
		func(dst, src *NodeStatus) { *at(dst) = *at(src) }}
}

// pointer is a field held by pointer, absent when nil and compared by
// what it points to.
func pointer[T any](name string, at func(*NodeStatus) **T, equal func(a, b *T) bool) field {
	return field{name,
		func(s *NodeStatus) bool { return *at(s) == nil },
		func(a, b *NodeStatus) bool {
			x, y := *at(a), *at(b)
			return x == y || x != nil && y != nil && equal(x, y)
		},
		func(dst, src *NodeStatus) { *at(dst) = *at(src) }}
}

// list is a slice field, absent when empty and compared element by element.
func list[E comparable](name string, at func(*NodeStatus) *[]E) field {
	return field{name,
		func(s *NodeStatus) bool { return len(*at(s)) == 0 },
		func(a, b *NodeStatus) bool { return slices.Equal(*at(a), *at(b)) },
		func(dst, src *NodeStatus) { *at(dst) = *at(src) }}
}

// equalValue compares what two pointers point to with ==.
func equalValue[T comparable](a, b *T) bool { return *a == *b }

// metricsField is Metrics' wire name. Metrics is the one field that
// merges per key instead of being replaced whole, so diffStatus and
// Apply handle it by name.
const metricsField = "metrics"

// payload lists the replaced-whole fields of NodeStatus: every field but
// the frame's identity and chain (Node, Epoch, Rev, Base, Clear) and
// Metrics. A field added to NodeStatus is added here, or
// TestDiffStatusApplyRoundTrip, which walks the type, fails.
var payload = []field{
	value("policy", func(s *NodeStatus) *string { return &s.Policy }),
	value("limit_watts", func(s *NodeStatus) *float64 { return &s.LimitWatts }),
	value("power_watts", func(s *NodeStatus) *float64 { return &s.PowerWatts }),
	value("max_watts", func(s *NodeStatus) *float64 { return &s.MaxWatts }),
	value("fallback_watts", func(s *NodeStatus) *float64 { return &s.FallbackWatts }),
	value("iterations", func(s *NodeStatus) *int { return &s.Iterations }),
	value("draining", func(s *NodeStatus) *bool { return &s.Draining }),
	pointer("lease", func(s *NodeStatus) **LeaseInfo { return &s.Lease }, equalValue[LeaseInfo]),
	list("apps", func(s *NodeStatus) *[]AppShare { return &s.Apps }),
	pointer("energy", func(s *NodeStatus) **EnergyStatus { return &s.Energy }, (*EnergyStatus).equal),
	pointer("slo", func(s *NodeStatus) **SLOStatus { return &s.SLO }, func(a, b *SLOStatus) bool {
		return slices.Equal(a.Services, b.Services)
	}),
	pointer("tier", func(s *NodeStatus) **TierStatus { return &s.Tier }, equalValue[TierStatus]),
}

// equal compares two energy summaries field by field.
func (e *EnergyStatus) equal(o *EnergyStatus) bool {
	return e.ElapsedSeconds == o.ElapsedSeconds && e.Intervals == o.Intervals &&
		e.OverIntervals == o.OverIntervals && e.TotalUJ == o.TotalUJ &&
		e.UnattributedUJ == o.UnattributedUJ && e.ExcludedUJ == o.ExcludedUJ &&
		e.OvershootUJ == o.OvershootUJ && e.TotalJoules == o.TotalJoules &&
		e.OvershootJoules == o.OvershootJoules && e.CostUSD == o.CostUSD &&
		e.CarbonGrams == o.CarbonGrams &&
		slices.Equal(e.Apps, o.Apps) && maps.Equal(e.Anomalies, o.Anomalies)
}

// blank is the zero frame diffStatus moves a field from to leave it off;
// nothing writes to it.
var blank NodeStatus

// diffStatus encodes cur as a delta frame on top of base: each field
// only if it changed, and in Clear each field that went back to zero.
func diffStatus(base, cur *NodeStatus) *NodeStatus {
	d := *cur
	d.Base, d.Clear = base.Rev, nil
	for _, f := range payload {
		switch {
		case f.absent(cur):
			if !f.absent(base) {
				d.Clear = append(d.Clear, f.name)
			}
		case f.same(base, cur):
			f.move(&d, &blank)
		}
	}
	var changed map[string]float64
	kept := 0
	for k, v := range cur.Metrics {
		old, ok := base.Metrics[k]
		if ok {
			kept++
		}
		if !ok || old != v {
			if changed == nil {
				changed = make(map[string]float64)
			}
			changed[k] = v
		}
	}
	if kept < len(base.Metrics) {
		// A series is gone, and a merge cannot say so: clear the
		// field and send what remains of it whole.
		d.Clear = append(d.Clear, metricsField)
	} else {
		d.Metrics = changed
	}
	return &d
}

// StatusFollower holds one poller's view of a node and advances it one
// status frame at a time. A full frame (Base zero) replaces the view; a
// delta is applied only if it is provably the next frame after the one
// held — same epoch, Base equal to the held revision, Rev beyond it,
// same node, every Clear name known. Anything else is refused and
// leaves the follower unsynchronized, so one lost or foreign reply can
// never smear a stale field into later views; the next request then
// names nothing held and the agent answers with a full frame. The zero
// value is an unsynchronized follower.
type StatusFollower struct {
	mu  sync.Mutex
	cur *NodeStatus // the view; nil while unsynchronized
}

// held names the frame the follower holds, 0.0 while unsynchronized.
func (f *StatusFollower) held() (epoch, rev uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cur == nil {
		return 0, 0
	}
	return f.cur.Epoch, f.cur.Rev
}

// Apply folds one frame into the follower and returns the resulting
// view: a complete status, itself a valid full frame. The follower
// takes ownership of fr, and views share what did not change between
// them, so neither fr nor a returned view may be modified afterwards.
func (f *StatusFollower) Apply(fr *NodeStatus) (*NodeStatus, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cur := f.cur
	f.cur = nil // unsynchronized unless fr proves applicable
	if fr == nil {
		return nil, fmt.Errorf("powerapi: status frame refused: nil frame")
	}
	for _, name := range fr.Clear {
		if name != metricsField && !slices.ContainsFunc(payload, func(f field) bool { return f.name == name }) {
			return nil, fmt.Errorf("powerapi: status frame refused: unknown clear field %q", name)
		}
	}
	next := *fr
	next.Base, next.Clear = 0, nil
	if fr.Base != 0 {
		var reason string
		switch {
		case cur == nil:
			reason = "delta frame while unsynchronized"
		case fr.Epoch != cur.Epoch:
			reason = fmt.Sprintf("epoch %d, following %d (agent restarted)", fr.Epoch, cur.Epoch)
		case fr.Base != cur.Rev:
			reason = fmt.Sprintf("base rev %d, holding %d (missed a frame)", fr.Base, cur.Rev)
		case fr.Rev <= fr.Base:
			reason = fmt.Sprintf("rev %d does not advance base %d (stale frame)", fr.Rev, fr.Base)
		case fr.Node != cur.Node:
			reason = fmt.Sprintf("node %q, following %q", fr.Node, cur.Node)
		}
		if reason != "" {
			return nil, fmt.Errorf("powerapi: status frame refused: %s", reason)
		}
		for _, f := range payload {
			if f.absent(&next) && !slices.Contains(fr.Clear, f.name) {
				f.move(&next, cur)
			}
		}
		if len(cur.Metrics) > 0 && !slices.Contains(fr.Clear, metricsField) {
			if len(fr.Metrics) == 0 {
				next.Metrics = cur.Metrics
			} else {
				next.Metrics = maps.Clone(cur.Metrics)
				maps.Copy(next.Metrics, fr.Metrics)
			}
		}
	}
	f.cur = &next
	return f.cur, nil
}
