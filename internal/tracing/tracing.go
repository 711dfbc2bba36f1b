// Package tracing gives the distributed control plane a shared clockless
// vocabulary for answering "where did this round go?": the coordinator
// stamps every reallocation round with a monotonic round ID, propagates
// it through the powerapi envelope, and both sides record a small span
// tree for each round — the coordinator's fan-out → per-node RPC → grant
// phasing, and each node's receive → sample → decide → actuate pipeline —
// into constant-memory ring buffers that an operator can dump over HTTP
// and join offline by round ID (see Merge).
//
// Like the flight recorder, the package is dependency-free, nil-safe
// (a nil *Tracer swallows everything at zero cost) and bounded: a Tracer
// holds at most its configured capacity of rounds, evicting the oldest.
// All timestamps are offsets from the tracer's epoch, so two dumps from
// different machines are joined by round ID, never by wall clock.
package tracing

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sync"
	"time"
)

// RoundIDBase derives a disjoint round-ID namespace from a coordinator
// name: the FNV-1a hash of the name shifted into the top 32 bits. Each
// coordinator in a tier tree mints rounds as base + counter, so logs
// from a whole building merge without ID collisions while the low bits
// stay a readable per-coordinator counter. The empty name maps to 0 —
// the flat single-coordinator namespace.
func RoundIDBase(origin string) uint64 {
	if origin == "" {
		return 0
	}
	h := fnv.New32a()
	io.WriteString(h, origin)
	return uint64(h.Sum32()) << 32
}

// DefaultCapacity is the ring size used when New is given a
// non-positive capacity: enough for a few minutes of one-second rounds
// without measurable memory cost.
const DefaultCapacity = 256

// Span is one timed phase inside a round. Start and End are offsets
// from the recording tracer's epoch (serialised as nanoseconds).
type Span struct {
	// Name identifies the phase: "report", "plan", "grant" on the
	// coordinator; "receive", "sample", "decide", "actuate" on a node.
	Name string `json:"name"`
	// Node is the remote party for RPC spans ("report"/"grant"), empty
	// for local phases.
	Node  string        `json:"node,omitempty"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Err carries the failure for spans that did not complete cleanly.
	Err string `json:"err,omitempty"`
}

// Latency is the span's duration.
func (s Span) Latency() time.Duration { return s.End - s.Start }

// Round is the span tree one party recorded for one control round.
type Round struct {
	// ID is the coordinator-assigned monotonic round ID. Rounds from
	// different dumps join on this field.
	ID uint64 `json:"id"`
	// Origin names the recording party (coordinator or node name).
	Origin string        `json:"origin,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Interval links a node-side round to the flight recorder's
	// interval spans (flight.IntervalSpan.Interval); zero on the
	// coordinator side.
	Interval uint32 `json:"interval,omitempty"`
	Spans    []Span `json:"spans,omitempty"`
}

// Latency is the round's end-to-end duration as its recorder saw it.
func (r Round) Latency() time.Duration { return r.End - r.Start }

// Find returns the first span with the given name and node ("" matches
// spans with no node), or nil.
func (r Round) Find(name, node string) *Span {
	for i := range r.Spans {
		if r.Spans[i].Name == name && r.Spans[i].Node == node {
			return &r.Spans[i]
		}
	}
	return nil
}

// Tracer records rounds into a fixed-size ring. The zero of its clock
// is the moment New was called. All methods are safe for concurrent
// use and safe on a nil receiver.
type Tracer struct {
	origin string
	epoch  time.Time

	mu    sync.Mutex
	ring  []Round
	next  int
	count int
	total uint64
}

// New builds a tracer identifying itself as origin, keeping the last
// capacity rounds (DefaultCapacity if capacity <= 0).
func New(origin string, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{
		origin: origin,
		epoch:  time.Now(),
		ring:   make([]Round, capacity),
	}
}

// Now returns the current offset on the tracer's clock; zero on nil.
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// Add records a finished round, evicting the oldest if the ring is
// full. The round's Origin is stamped from the tracer.
func (t *Tracer) Add(r Round) {
	if t == nil {
		return
	}
	r.Origin = t.origin
	t.mu.Lock()
	t.ring[t.next] = r
	t.next = (t.next + 1) % len(t.ring)
	if t.count < len(t.ring) {
		t.count++
	}
	t.total++
	t.mu.Unlock()
}

// Log snapshots the tracer for serialisation: what /debug/rounds
// serves and what powerdump's merged view consumes. Its Total counts
// every round ever added, evicted ones too, and its Rounds are the
// retained ones, oldest first; both are read under one lock, so a round
// added meanwhile is in both or in neither.
func (t *Tracer) Log() Log {
	if t == nil {
		return Log{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := Log{Origin: t.origin, Total: t.total, Rounds: make([]Round, 0, t.count)}
	start := t.next - t.count
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.count; i++ {
		l.Rounds = append(l.Rounds, t.ring[(start+i)%len(t.ring)])
	}
	return l
}

// Begin opens a builder for one round. Safe on a nil tracer: the
// builder is nil and every method on it is a no-op.
func (t *Tracer) Begin(id uint64) *RoundBuilder {
	if t == nil {
		return nil
	}
	return &RoundBuilder{t: t, r: Round{ID: id, Start: t.Now()}}
}

// RoundBuilder accumulates spans for an in-flight round. Span may be
// called from concurrent goroutines (the coordinator's fan-out does);
// End publishes the round to the tracer.
type RoundBuilder struct {
	t  *Tracer
	mu sync.Mutex
	r  Round
}

// Now returns the current offset on the underlying tracer's clock.
func (b *RoundBuilder) Now() time.Duration {
	if b == nil {
		return 0
	}
	return b.t.Now()
}

// Span records one timed phase.
func (b *RoundBuilder) Span(name, node string, start, end time.Duration, err error) {
	if b == nil {
		return
	}
	s := Span{Name: name, Node: node, Start: start, End: end}
	if err != nil {
		s.Err = err.Error()
	}
	b.mu.Lock()
	b.r.Spans = append(b.r.Spans, s)
	b.mu.Unlock()
}

// SetStart rewinds the round's start, for recorders that open the
// builder only after the work being described has finished.
func (b *RoundBuilder) SetStart(start time.Duration) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.r.Start = start
	b.mu.Unlock()
}

// SetInterval links the round to a flight-recorder interval.
func (b *RoundBuilder) SetInterval(interval uint32) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.r.Interval = interval
	b.mu.Unlock()
}

// End stamps the round's end time and publishes it.
func (b *RoundBuilder) End() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.r.End = b.t.Now()
	r := b.r
	b.mu.Unlock()
	b.t.Add(r)
}

// Log is the serialised form of a tracer's retained rounds — the
// payload of GET /debug/rounds and the input to Merge.
type Log struct {
	Origin string  `json:"origin"`
	Total  uint64  `json:"total_rounds"`
	Rounds []Round `json:"rounds"`
}

// Write serialises the log as indented JSON.
func (l Log) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(l)
}

// ReadLog parses a log written by Log.Write (or served by
// /debug/rounds).
func ReadLog(r io.Reader) (Log, error) {
	var l Log
	dec := json.NewDecoder(r)
	if err := dec.Decode(&l); err != nil {
		return Log{}, fmt.Errorf("tracing: parsing log: %w", err)
	}
	return l, nil
}

// ReadLogFile parses a log from a file.
func ReadLogFile(path string) (Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return Log{}, fmt.Errorf("tracing: %w", err)
	}
	defer f.Close()
	l, err := ReadLog(f)
	if err != nil {
		return Log{}, fmt.Errorf("tracing: %s: %w", path, err)
	}
	return l, nil
}
