package powerapi

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"
)

// The status envelope is the one message a converged round sends, so it
// has a hand-written codec, with encoding/json as its specification:
// appendStatus writes byte for byte what json.Marshal writes, decodeStatus
// reads only the compact form appendStatus writes, and either declines
// what it does not handle — from what the frame holds, never a setting —
// leaving it to the generic path. A field added to NodeStatus, LeaseInfo
// or TierStatus is added to both, or TestStatusCodecTable fails.

// bufPool holds the buffers a status reply is encoded into and read into.
// Nothing handed to a caller may alias one: strings and bodies are copies.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// jsonHeader is the shared Accept / Content-Type header value.
var jsonHeader = []string{ContentType}

const statusHead = `{"v":1,"kind":"status","body":`

// statusEnc appends the envelope field by field. ok goes false, declining
// the frame, on a value encoding/json refuses (NaN, ±Inf) or treats
// differently between releases (an omitempty -0).
type statusEnc struct {
	b  []byte
	ok bool
}

// str writes printable ASCII itself and leaves the rest to encoding/json.
func (e *statusEnc) str(key, s string, omitempty bool) {
	if s == "" && omitempty {
		return
	}
	e.b = append(e.b, key...)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, err := json.Marshal(s)
			e.b, e.ok = append(e.b, q...), e.ok && err == nil
			return
		}
	}
	e.b = append(append(append(e.b, '"'), s...), '"')
}

func (e *statusEnc) uint(key string, v uint64, omitempty bool) {
	if v != 0 || !omitempty {
		e.b = strconv.AppendUint(append(e.b, key...), v, 10)
	}
}

func (e *statusEnc) int(key string, v int64, omitempty bool) {
	if v != 0 || !omitempty {
		e.b = strconv.AppendInt(append(e.b, key...), v, 10)
	}
}

// float formats as encoding/json does: the shortest decimal that round
// trips, exponent form outside [1e-6, 1e21) with "e-09" written "e-9".
func (e *statusEnc) float(key string, f float64, omitempty bool) {
	if f == 0 && omitempty || math.IsNaN(f) || math.IsInf(f, 0) {
		e.ok = e.ok && f == 0 && !math.Signbit(f) // only a plain zero is left out
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(append(e.b, key...), f, format, -1, 64)
	if n := len(e.b); format == 'e' && n >= 4 && e.b[n-4] == 'e' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// section delegates one sub-value to encoding/json.
func (e *statusEnc) section(key string, v any, present bool) {
	if present {
		data, err := json.Marshal(v)
		e.b, e.ok = append(append(e.b, key...), data...), e.ok && err == nil
	}
}

// appendStatus appends the envelope marshalGeneric(st, round) returns, or
// reports false having written nothing the caller may use.
func appendStatus(b []byte, st *NodeStatus, round uint64) ([]byte, bool) {
	e := statusEnc{b: append(b, statusHead...), ok: true}
	e.str(`{"node":`, st.Node, false)
	e.uint(`,"epoch":`, st.Epoch, true)
	e.uint(`,"rev":`, st.Rev, true)
	e.uint(`,"base":`, st.Base, true)
	key := `,"clear":[`
	for _, name := range st.Clear {
		e.str(key, name, false)
		key = `,`
	}
	if len(st.Clear) > 0 {
		e.b = append(e.b, ']')
	}
	e.str(`,"policy":`, st.Policy, true)
	e.float(`,"limit_watts":`, st.LimitWatts, true)
	e.float(`,"power_watts":`, st.PowerWatts, true)
	e.float(`,"max_watts":`, st.MaxWatts, true)
	e.float(`,"fallback_watts":`, st.FallbackWatts, true)
	e.int(`,"iterations":`, int64(st.Iterations), true)
	if st.Draining {
		e.b = append(e.b, `,"draining":true`...)
	}
	if l := st.Lease; l != nil {
		e.uint(`,"lease":{"id":`, l.ID, false)
		e.str(`,"coordinator":`, l.Coordinator, true)
		e.float(`,"limit_watts":`, l.LimitWatts, false)
		e.int(`,"ttl_ms":`, l.TTLMS, false)
		e.int(`,"remaining_ms":`, l.RemainingMS, false)
		e.b = append(e.b, '}')
	}
	e.section(`,"apps":`, st.Apps, len(st.Apps) > 0)
	e.section(`,"energy":`, st.Energy, st.Energy != nil)
	e.section(`,"slo":`, st.SLO, st.SLO != nil)
	if t := st.Tier; t != nil {
		e.b = append(e.b, `,"tier":{`...)
		if t.Tier != "" {
			e.str(`"tier":`, t.Tier, false)
			e.b = append(e.b, ',')
		}
		e.int(`"children":`, int64(t.Children), false)
		e.int(`,"nodes":`, int64(t.Nodes), false)
		e.int(`,"depth":`, int64(t.Depth), false)
		e.int(`,"quarantined":`, int64(t.Quarantined), true)
		e.float(`,"budget_watts":`, t.BudgetWatts, true)
		e.b = append(e.b, '}')
	}
	e.section(`,"metrics":`, st.Metrics, len(st.Metrics) > 0)
	e.b = append(e.b, '}')
	e.uint(`,"round":`, round, true)
	return append(e.b, '}'), e.ok
}

// statusDec reads what statusEnc wrote, key by key in the same order: a
// duplicate, unknown or misplaced key is simply not the key expected next.
// bad goes true on that and on whatever else it does not handle — an
// escape, a non-ASCII byte, null, whitespace, a number the JSON grammar or
// strconv refuses — which declines the frame.
type statusDec struct {
	b   []byte
	i   int
	bad bool
}

// has consumes key if the cursor is on it; only an omitempty key may not be.
func (d *statusDec) has(key string, omitempty bool) bool {
	if end := d.i + len(key); end <= len(d.b) && string(d.b[d.i:end]) == key {
		d.i = end
		return true
	}
	d.bad = d.bad || !omitempty
	return false
}

// str reads a string literal of printable ASCII without escapes.
func (d *statusDec) str(key string, p *string, omitempty bool) {
	if !d.has(key, omitempty) || !d.has(`"`, false) {
		return
	}
	for j := d.i; j < len(d.b); j++ {
		if c := d.b[j]; c == '"' {
			*p, d.i = string(d.b[d.i:j]), j+1
			return
		} else if c < 0x20 || c > 0x7e || c == '\\' {
			break
		}
	}
	d.bad = true
}

// digits skips a run of at least one decimal digit.
func (d *statusDec) digits() {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	d.bad = d.bad || d.i == start
}

// skip consumes c if the cursor is on it.
func (d *statusDec) skip(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// num reads one number token of the JSON grammar; strconv then decides
// whether it fits the field.
func (d *statusDec) num() []byte {
	start := d.i
	if d.skip('-'); !d.skip('0') {
		d.digits()
	}
	if d.skip('.') {
		d.digits()
	}
	if d.skip('e') || d.skip('E') {
		if !d.skip('+') {
			d.skip('-')
		}
		d.digits()
	}
	return d.b[start:d.i]
}

func (d *statusDec) uint(key string, p *uint64, omitempty bool) {
	if d.has(key, omitempty) {
		v, err := strconv.ParseUint(string(d.num()), 10, 64)
		*p, d.bad = v, d.bad || err != nil
	}
}

func decInt[T int | int64](d *statusDec, key string, p *T, omitempty bool) {
	if d.has(key, omitempty) {
		v, err := strconv.ParseInt(string(d.num()), 10, 64)
		*p = T(v)
		d.bad = d.bad || err != nil || int64(*p) != v
	}
}

func (d *statusDec) float(key string, p *float64, omitempty bool) {
	if d.has(key, omitempty) {
		v, err := strconv.ParseFloat(string(d.num()), 64)
		*p, d.bad = v, d.bad || err != nil
	}
}

// decodeStatus reads a frame appendStatus wrote (and the newline an agent
// ends its reply with), returning exactly what unmarshalGeneric returns
// for it: the status, the body's bytes within data, and the round. It
// declines every other frame, the apps, energy, slo and metrics sections
// included.
func decodeStatus(data []byte) (st *NodeStatus, body []byte, round uint64, ok bool) {
	d := statusDec{b: data}
	if !d.has(statusHead, true) {
		return nil, nil, 0, false
	}
	st = new(NodeStatus)
	d.str(`{"node":`, &st.Node, false)
	d.uint(`,"epoch":`, &st.Epoch, true)
	d.uint(`,"rev":`, &st.Rev, true)
	d.uint(`,"base":`, &st.Base, true)
	for key := `,"clear":[`; d.has(key, true); key = `,` {
		st.Clear = append(st.Clear, "")
		d.str(``, &st.Clear[len(st.Clear)-1], false)
	}
	if st.Clear != nil {
		d.has(`]`, false)
	}
	d.str(`,"policy":`, &st.Policy, true)
	d.float(`,"limit_watts":`, &st.LimitWatts, true)
	d.float(`,"power_watts":`, &st.PowerWatts, true)
	d.float(`,"max_watts":`, &st.MaxWatts, true)
	d.float(`,"fallback_watts":`, &st.FallbackWatts, true)
	decInt(&d, `,"iterations":`, &st.Iterations, true)
	st.Draining = d.has(`,"draining":true`, true)
	if d.has(`,"lease":{`, true) {
		st.Lease = new(LeaseInfo)
		d.uint(`"id":`, &st.Lease.ID, false)
		d.str(`,"coordinator":`, &st.Lease.Coordinator, true)
		d.float(`,"limit_watts":`, &st.Lease.LimitWatts, false)
		decInt(&d, `,"ttl_ms":`, &st.Lease.TTLMS, false)
		decInt(&d, `,"remaining_ms":`, &st.Lease.RemainingMS, false)
		d.has(`}`, false)
	}
	if d.has(`,"tier":{`, true) {
		st.Tier = new(TierStatus)
		if d.str(`"tier":`, &st.Tier.Tier, true); st.Tier.Tier != "" {
			d.has(`,`, false)
		}
		decInt(&d, `"children":`, &st.Tier.Children, false)
		decInt(&d, `,"nodes":`, &st.Tier.Nodes, false)
		decInt(&d, `,"depth":`, &st.Tier.Depth, false)
		decInt(&d, `,"quarantined":`, &st.Tier.Quarantined, true)
		d.float(`,"budget_watts":`, &st.Tier.BudgetWatts, true)
		d.has(`}`, false)
	}
	d.has(`}`, false)
	body = data[len(statusHead):d.i]
	d.uint(`,"round":`, &round, true)
	d.has(`}`, false)
	d.has("\n", true)
	if d.bad || d.i != len(data) {
		return nil, nil, 0, false
	}
	return st, body, round, true
}
