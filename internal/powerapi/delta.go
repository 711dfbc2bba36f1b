package powerapi

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync"
)

// field is one payload field of NodeStatus.
type field struct {
	name  string // wire name, as Clear spells it
	index int    // field index in NodeStatus
}

// metricsField is Metrics' wire name. Metrics is the one field that
// merges per key instead of being replaced whole, so diffStatus and
// Apply handle it by name.
const metricsField = "metrics"

// payload lists the replaced-whole fields of NodeStatus. It is read off
// the type, so a field added to NodeStatus is diffed, cleared and
// carried over without anyone remembering to.
var payload = func() []field {
	var out []field
	t := reflect.TypeOf(NodeStatus{})
	for i := 0; i < t.NumField(); i++ {
		switch f := t.Field(i); f.Name {
		case "Node", "Epoch", "Rev", "Base", "Clear": // the frame's identity and chain
		case "Metrics": // merged per series, by name
		default:
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			out = append(out, field{name, i})
		}
	}
	return out
}()

// absent reports whether a field is at its zero value (an empty slice
// or map counts), which is also when omitempty keeps it off the wire.
func absent(v reflect.Value) bool {
	if k := v.Kind(); k == reflect.Slice || k == reflect.Map {
		return v.Len() == 0
	}
	return v.IsZero()
}

// unchanged compares one field between two frames: a scalar itself,
// anything else by what it holds.
func unchanged(old, now reflect.Value) bool {
	if now.Comparable() && now.Kind() != reflect.Pointer {
		return old.Equal(now)
	}
	return reflect.DeepEqual(old.Interface(), now.Interface())
}

// diffStatus encodes cur as a delta frame on top of base: each field
// only if it changed, and in Clear each field that went back to zero.
func diffStatus(base, cur *NodeStatus) *NodeStatus {
	d := *cur
	d.Base, d.Clear = base.Rev, nil
	bv, dv := reflect.ValueOf(base).Elem(), reflect.ValueOf(&d).Elem()
	for _, f := range payload {
		old, now := bv.Field(f.index), dv.Field(f.index)
		switch {
		case absent(now):
			if !absent(old) {
				d.Clear = append(d.Clear, f.name)
			}
		case unchanged(old, now):
			now.SetZero()
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
		cv, nv := reflect.ValueOf(cur).Elem(), reflect.ValueOf(&next).Elem()
		for _, f := range payload {
			if v := nv.Field(f.index); absent(v) && !slices.Contains(fr.Clear, f.name) {
				v.Set(cv.Field(f.index))
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
