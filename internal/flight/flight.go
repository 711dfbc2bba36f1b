// Package flight is the control plane's black-box flight recorder: an
// always-on, constant-memory binary event log that captures every MSR
// access, every policy decision with its typed reason, every RAPL
// throttle/release, and every simulated C-state or frequency-constraint
// transition. Each event carries a global monotonic sequence number and the
// control-interval id it happened in, so cross-source causality (sample →
// decide → actuate) is recoverable from the log alone.
//
// The recorder keeps one fixed-capacity ring per event source. Each source
// has a single writer (the MSR device's accessing goroutine, the daemon
// loop, the simulation step), so the per-ring mutex is uncontended on the
// record path and only ever shared with snapshotters; recording is
// allocation-free. When a ring fills, the oldest events are overwritten —
// memory stays constant no matter how long the daemon runs.
//
// Snapshots of the ring are serialised by the dump codec in dump.go into a
// versioned binary file that cmd/powerdump decodes, analyses, and — because
// the simulator is discrete-time and the log contains every MSR access —
// deterministically replays (internal/flight/replay).
package flight

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Source identifies the subsystem that emitted an event. Each source owns
// one ring and has exactly one writing goroutine.
type Source uint8

// The event sources.
const (
	SourceMSR     Source = iota // register-level device access
	SourceDaemon                // control-loop decisions and actuations
	SourceRAPL                  // hardware power limiter cap movements
	SourceSim                   // simulated C-state and constraint transitions
	SourceFault                 // fault-injector window transitions
	SourceControl               // control-plane lease and reconfiguration traffic
	SourceLedger                // energy-ledger attribution and anomaly detectors
	numSources
)

// String names the source for reports.
func (s Source) String() string {
	switch s {
	case SourceMSR:
		return "msr"
	case SourceDaemon:
		return "daemon"
	case SourceRAPL:
		return "rapl"
	case SourceSim:
		return "sim"
	case SourceFault:
		return "fault"
	case SourceControl:
		return "control"
	case SourceLedger:
		return "ledger"
	}
	return "unknown"
}

// Kind classifies an event. The vocabulary is closed and versioned with the
// dump format; powerdump matches on these exact values.
type Kind uint8

// The event kinds.
const (
	// KindMSRRead records a successful register read: Core is the CPU,
	// Arg the canonical register address, Value the value read.
	KindMSRRead Kind = iota + 1
	// KindMSRWrite records a successful register write: Core is the CPU,
	// Arg the canonical register address, Value the value written.
	KindMSRWrite
	// KindDecision records one typed reason from a policy update: Arg is
	// the reason code (codes.go), Value the observed package power in µW,
	// Aux the enforced limit in µW. Core is -1 (package scope).
	KindDecision
	// KindActuate records one applied policy action: Arg is an Act* code,
	// Core the target core, Value the requested frequency in Hz (set-freq
	// only).
	KindActuate
	// KindRAPLThrottle / KindRAPLRelease record the hardware limiter
	// stepping its internal frequency cap down or up: Value is the new cap
	// in Hz, Aux the instantaneous package power in µW. Core is -1.
	KindRAPLThrottle
	KindRAPLRelease
	// KindCStateSleep / KindCStateWake record a simulated core entering or
	// leaving an idle state: Value is the C-state table index (sleep) or
	// the exit-latency debt in ns (wake).
	KindCStateSleep
	KindCStateWake
	// KindConstraint records a change of the constraint binding a core's
	// effective frequency: Arg is a Constraint* code. AVX-licence
	// transitions appear here as ConstraintAVXLicence.
	KindConstraint
	// KindFaultInject / KindFaultClear record a fault-injector window
	// opening or closing: Arg is a Fault* class code, Core the target CPU
	// (-1 for package scope), Value the class parameter (thermal cap in Hz,
	// RAPL limit in µW, latency in ns) — on clear, the value being
	// restored. Platform-level fault events are replay inputs: the
	// replayer re-applies them to the rebuilt machine.
	KindFaultInject
	KindFaultClear
	// KindHealth records the daemon's per-core health state machine moving:
	// Arg is a Health* code, Core the affected CPU, Value the telemetry
	// status code that triggered the transition.
	KindHealth
	// KindLease records the node agent's lease state machine moving: Arg is
	// a Lease* code, Core the agent's node id (-1 when unset), Value the
	// power cap taking effect in µW, Aux the lease TTL in ns (grant/renew)
	// or the cap being left behind in µW (expire/fallback).
	KindLease
	// KindReconfigure records a live reconfiguration applied to a running
	// daemon: Arg is a Reconfig* code, Value the new limit in µW (limit
	// changes) and Aux the previous limit in µW.
	KindReconfigure
	// KindEnergy records one energy-ledger account advancing at the end of
	// a control interval: Arg is the app index in spec order (or an
	// Energy* sentinel for the unattributed/excluded/total/limit/overshoot
	// accounts), Core the app's pinned core (-1 for package accounts),
	// Value the microjoules attributed this interval, Aux the cumulative
	// microjoules of the account. Because Aux is cumulative, the latest
	// retained event per account reproduces the ledger's totals exactly,
	// no matter how much of the ring has been overwritten.
	KindEnergy
	// KindAnomaly records a streaming anomaly detector firing: Arg is an
	// Anomaly* code, Core the affected app core or socket (-1 for package
	// scope), Value/Aux detector-specific payload (see the code docs).
	KindAnomaly
)

// String names the kind for reports.
func (k Kind) String() string {
	switch k {
	case KindMSRRead:
		return "msr-read"
	case KindMSRWrite:
		return "msr-write"
	case KindDecision:
		return "decision"
	case KindActuate:
		return "actuate"
	case KindRAPLThrottle:
		return "rapl-throttle"
	case KindRAPLRelease:
		return "rapl-release"
	case KindCStateSleep:
		return "cstate-sleep"
	case KindCStateWake:
		return "cstate-wake"
	case KindConstraint:
		return "constraint"
	case KindFaultInject:
		return "fault-inject"
	case KindFaultClear:
		return "fault-clear"
	case KindHealth:
		return "health"
	case KindLease:
		return "lease"
	case KindReconfigure:
		return "reconfigure"
	case KindEnergy:
		return "energy"
	case KindAnomaly:
		return "anomaly"
	}
	return "unknown"
}

// Actuation codes carried in Event.Arg of KindActuate events.
const (
	ActSetFreq uint32 = iota
	ActPark
	ActWake
)

// Event is one fixed-size flight-recorder record.
type Event struct {
	// Seq numbers events globally and monotonically across all sources;
	// sorting a snapshot by Seq recovers the causal order.
	Seq uint64
	// Time is the run clock at the event: virtual time when a simulated
	// machine drives the recorder's clock, wall time since recorder
	// creation otherwise.
	Time time.Duration
	// Wall is monotonic wall time since recorder creation, stamped even in
	// virtual runs, so span latencies (sample→decide→actuate) are real.
	Wall time.Duration
	// Kind and Source classify the event.
	Kind   Kind
	Source Source
	// Core is the affected logical CPU, or -1 for package-scope events.
	Core int16
	// Interval is the control-interval id (daemon iteration number) the
	// event belongs to; 0 covers everything before the first iteration.
	Interval uint32
	// Arg, Value, Aux carry kind-specific payload; see the Kind docs.
	Arg   uint32
	Value uint64
	Aux   uint64
}

// DefaultCapacity is the per-source ring capacity when the caller passes a
// non-positive one. A ring retains capacity / events-per-interval control
// intervals of its source: the MSR ring, the busiest, takes 386 events an
// interval on a 128-core node (three sweeps of 128 plus two package reads),
// so it holds ~42 intervals — 42 s at the paper's 1 s interval, 42 ms at 1 ms.
const DefaultCapacity = 1 << 14

// ring is one source's fixed-capacity event buffer. The single writer only
// ever contends with snapshotters, so the mutex is uncontended on the
// record fast path.
type ring struct {
	mu     sync.Mutex
	buf    []Event
	next   int
	filled bool
}

// slot claims the next write position, overwriting the oldest event once
// the ring is full. Caller holds r.mu.
func (r *ring) slot() *Event {
	e := &r.buf[r.next]
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.filled = true
	}
	return e
}

// snapshot copies the retained events in append order.
func (r *ring) snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.filled {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

func (r *ring) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.filled {
		return len(r.buf)
	}
	return r.next
}

// Recorder is the flight recorder. A nil *Recorder is a valid disabled
// recorder: every method no-ops, so instrumented packages record
// unconditionally and pay one nil check when the recorder is off.
type Recorder struct {
	seq      atomic.Uint64
	interval atomic.Uint32
	clock    atomic.Value // func() time.Duration; run clock
	start    time.Time
	rings    [numSources]ring

	metaMu sync.Mutex
	meta   Meta
}

// New returns a recorder with the given per-source ring capacity
// (DefaultCapacity when non-positive).
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	r := &Recorder{start: time.Now()}
	for i := range r.rings {
		r.rings[i].buf = make([]Event, capacity)
	}
	return r
}

// SetClock installs the run-clock source events are stamped with (a
// simulated machine installs its virtual clock). Without one, events carry
// wall time since recorder creation. Call before recording starts.
func (r *Recorder) SetClock(fn func() time.Duration) {
	if r == nil || fn == nil {
		return
	}
	r.clock.Store(fn)
}

// BeginInterval tags all subsequently recorded events with the given
// control-interval id; the daemon calls it at the top of every iteration so
// the sampling reads, the decision, and the actuations of one interval
// share an id.
func (r *Recorder) BeginInterval(n uint32) {
	if r == nil {
		return
	}
	r.interval.Store(n)
}

// Interval reports the current control-interval id.
func (r *Recorder) Interval() uint32 {
	if r == nil {
		return 0
	}
	return r.interval.Load()
}

// now reads the run clock.
func (r *Recorder) now() time.Duration {
	if fn, ok := r.clock.Load().(func() time.Duration); ok {
		return fn()
	}
	return time.Since(r.start)
}

// begin opens the one commit path: it reserves n consecutive sequence
// numbers, reads the run clock, the wall clock and the interval id once, and
// locks src's ring. The caller writes n slots, each the returned stamp under
// the next Seq, and unlocks: events committed together share Time, Wall and
// Interval, and a snapshot sees the batch whole or not at all.
func (r *Recorder) begin(src Source, n int) (Event, *ring) {
	st := Event{
		Seq:      r.seq.Add(uint64(n)) - uint64(n),
		Time:     r.now(),
		Wall:     time.Since(r.start),
		Source:   src,
		Interval: r.interval.Load(),
	}
	rg := &r.rings[src]
	rg.mu.Lock()
	return st, rg
}

// RecordBatch commits events, all of source src, as one batch in slice
// order: only Kind, Core, Arg, Value and Aux are taken from them. It is
// allocation-free and does not retain events.
func (r *Recorder) RecordBatch(src Source, events []Event) {
	if r == nil || src >= numSources || len(events) == 0 {
		return
	}
	st, rg := r.begin(src, len(events))
	for i := range events {
		e := &events[i]
		st.Seq++
		st.Kind, st.Core, st.Arg, st.Value, st.Aux = e.Kind, e.Core, e.Arg, e.Value, e.Aux
		*rg.slot() = st
	}
	rg.mu.Unlock()
}

// Record stamps the event with the next global sequence number, the run and
// wall clocks, and the current interval id, then appends it to its source's
// ring: a batch of one. It is allocation-free.
func (r *Recorder) Record(e Event) {
	one := [1]Event{e}
	r.RecordBatch(e.Source, one[:])
}

// RecordMSR implements the msr package's Recorder interface: one event per
// successful register access.
func (r *Recorder) RecordMSR(write bool, cpu int, reg uint32, val uint64) {
	k := KindMSRRead
	if write {
		k = KindMSRWrite
	}
	r.Record(Event{Kind: k, Source: SourceMSR, Core: int16(cpu), Arg: reg, Value: val})
}

// RecordMSRSweep implements the msr package's SweepRecorder interface: the
// successful reads of one batched sweep of reg over cpus [0, len(vals)) —
// every cpu when ok is nil, those with ok[cpu] otherwise — as one batch,
// event for event what a RecordMSR per read would leave.
func (r *Recorder) RecordMSRSweep(reg uint32, vals []uint64, ok []bool) {
	n := len(vals)
	for _, good := range ok {
		if !good {
			n--
		}
	}
	if r == nil || n == 0 {
		return
	}
	st, rg := r.begin(SourceMSR, n)
	st.Kind, st.Arg = KindMSRRead, reg
	for cpu, v := range vals {
		if ok == nil || ok[cpu] {
			st.Seq++
			st.Core, st.Value = int16(cpu), v
			*rg.slot() = st
		}
	}
	rg.mu.Unlock()
}

// Total reports how many events have ever been recorded (retained or
// overwritten).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Len reports how many events are currently retained across all rings.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.rings {
		n += r.rings[i].len()
	}
	return n
}

// Snapshot copies the retained events of every source, merged and sorted by
// sequence number. The recorder keeps running while (and after) a snapshot
// is taken.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for i := range r.rings {
		out = append(out, r.rings[i].snapshot()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// MergeMeta folds the non-zero fields of m into the recorder's dump
// metadata. The simulator contributes the machine description (chip, tick,
// energy unit), the daemon the control-plane description (policy, limit,
// interval, apps); a dump carries the union.
func (r *Recorder) MergeMeta(m Meta) {
	if r == nil {
		return
	}
	r.metaMu.Lock()
	defer r.metaMu.Unlock()
	r.meta.merge(m)
}

// Dump snapshots the recorder into a serialisable dump with the given
// trigger reason.
func (r *Recorder) Dump(reason string) Dump {
	if r == nil {
		return Dump{Meta: Meta{Version: FormatVersion, Reason: reason}}
	}
	r.metaMu.Lock()
	meta := r.meta
	r.metaMu.Unlock()
	meta.Version = FormatVersion
	meta.Reason = reason
	return Dump{Meta: meta, Events: r.Snapshot()}
}
