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
	"cmp"
	"slices"
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

// DefaultCapacity is the per-source ring capacity, in events, when the
// caller passes a non-positive one. A ring costs 56 B per event of capacity
// (the size of an Event), however full it is. It retains capacity /
// events-per-interval control intervals of its source: the MSR ring, the
// busiest, takes 386 events an interval on a 128-core node (three sweeps of
// 128 plus two package reads), so it holds ~42 intervals — 42 s at the
// paper's 1 s interval, 42 ms at 1 ms.
const DefaultCapacity = 1 << 14

// ring is one source's event log: one record per commit, oldest first, in a
// fixed arena of words that wraps at its end. A record is a header holding
// the commit's stamp once, then only what differs per event, in one of three
// forms:
//
//	header     Seq of the first event, Time, Wall, Interval|count<<32,
//	           ident(Kind, Core, Arg)|form<<56
//	formSweep  Value             Core counts up from the header's; Aux is 0
//	formFixed  Value, Aux        Kind, Core and Arg are the header's
//	formBatch  ident, Value, Aux
//
// Seq counts up from the header's. The ring retains exactly the newest cap
// events: to make room, the oldest record gives up events from its front and
// its header slides forward over them. A record costs at most 7 words an
// event (one event alone is always stored fixed), so 7·cap words — the bytes
// of cap Events — hold any cap events. The single writer only ever contends
// with snapshotters, so the mutex is uncontended on the record fast path.
type ring struct {
	mu    sync.Mutex
	arena []uint64
	cap   int // events retained at most
	tail  int // arena index of the oldest record's header
	used  int // words the records occupy
	n     int // events the records hold
}

// hdrWords is a record header's length in words, eventWords an Event's.
const hdrWords, eventWords = 5, 7

// The record forms; a form stores form+1 words an event.
const (
	formSweep = iota
	formFixed
	formBatch
)

// ident packs an event's Kind, Core and Arg into one word.
func ident(k Kind, core int16, arg uint32) uint64 {
	return uint64(arg) | uint64(uint16(core))<<32 | uint64(k)<<48
}

// setIdent unpacks an ident word into e.
func (e *Event) setIdent(w uint64) {
	e.Kind, e.Core, e.Arg = Kind(w>>48), int16(w>>32), uint32(w)
}

// at wraps an arena index that ran less than one lap past the end.
func (r *ring) at(i int) int {
	if i >= len(r.arena) {
		i -= len(r.arena)
	}
	return i
}

// put stores v at index i (unwrapped) and returns the index after it.
func (r *ring) put(i int, v uint64) int {
	i = r.at(i)
	r.arena[i] = v
	return i + 1
}

// putHeader writes at index i the header of a record of count events in
// form, its first stamped st, and returns the wrapped index after it.
func (r *ring) putHeader(i int, st *Event, count, form int) int {
	i = r.put(i, st.Seq)
	i = r.put(i, uint64(st.Time))
	i = r.put(i, uint64(st.Wall))
	i = r.put(i, uint64(st.Interval)|uint64(count)<<32)
	return r.at(r.put(i, ident(st.Kind, st.Core, st.Arg)|uint64(form)<<56))
}

// shape reads the event count and form of the record at index i.
func (r *ring) shape(i int) (count, form int) {
	return int(r.arena[r.at(i+3)] >> 32), int(r.arena[r.at(i+4)] >> 56)
}

// stamp decodes the first event of the record at index i, Source unset and
// Value and Aux zero.
func (r *ring) stamp(i int) Event {
	a := r.arena
	st := Event{Seq: a[i], Time: time.Duration(a[r.at(i+1)]), Wall: time.Duration(a[r.at(i+2)]), Interval: uint32(a[r.at(i+3)])}
	st.setIdent(a[r.at(i+4)])
	return st
}

// room makes room for a commit of n events, keeping exactly the newest cap:
// it evicts the oldest retained events the commit displaces and returns how
// many of the commit's own first events do not fit (a commit larger than
// the ring keeps its tail). Caller holds r.mu.
func (r *ring) room(n int) (skip int) {
	skip = max(0, n-r.cap)
	for drop := r.n + n - skip - r.cap; drop > 0; {
		count, form := r.shape(r.tail)
		if drop >= count {
			w := hdrWords + (form+1)*count
			r.tail, r.used, r.n, drop = r.at(r.tail+w), r.used-w, r.n-count, drop-count
			continue
		}
		// The record keeps its newest count-drop events; its header slides
		// forward over the dropped ones.
		w, st := (form+1)*drop, r.stamp(r.tail)
		st.Seq += uint64(drop)
		if form == formSweep {
			st.Core += int16(drop)
		}
		if form == formBatch && count-drop == 1 {
			// A lone event is stored fixed: 7 words, not 8.
			st.setIdent(r.arena[r.at(r.tail+hdrWords+w)])
			w, form = w+1, formFixed
		}
		r.tail, r.used, r.n = r.at(r.tail+w), r.used-w, r.n-drop
		r.putHeader(r.tail, &st, count-drop, form)
		break
	}
	return skip
}

// appendSweep appends vals, read from consecutive cpus starting at st.Core,
// as one record stamped st. Caller holds r.mu and made room.
func (r *ring) appendSweep(st *Event, vals []uint64) {
	i := r.putHeader(r.tail+r.used, st, len(vals), formSweep)
	copy(r.arena, vals[copy(r.arena[i:], vals):])
	r.used += hdrWords + len(vals)
	r.n += len(vals)
}

// appendFixed appends one event stamped st carrying value and aux.
func (r *ring) appendFixed(st *Event, value, aux uint64) {
	i := r.putHeader(r.tail+r.used, st, 1, formFixed)
	r.put(r.put(i, value), aux)
	r.used += hdrWords + 2
	r.n++
}

// appendBatch appends events, two or more, as one record stamped st.
func (r *ring) appendBatch(st *Event, events []Event) {
	i := r.putHeader(r.tail+r.used, st, len(events), formBatch)
	for k := range events {
		e := &events[k]
		// putEvent written out: the call does not inline, and the ledger
		// commits 133 events a batch.
		if w := r.arena[i:]; len(w) >= 3 { // not wrapping
			w[0], w[1], w[2] = ident(e.Kind, e.Core, e.Arg), e.Value, e.Aux
			i = r.at(i + 3)
			continue
		}
		i = r.put(r.put(r.put(i, ident(e.Kind, e.Core, e.Arg)), e.Value), e.Aux)
	}
	r.used += hdrWords + 3*len(events)
	r.n += len(events)
}

// putEvent stores one formBatch event at index i and returns the index
// after it.
func (r *ring) putEvent(i int, id, value, aux uint64) int {
	if w := r.arena[i:]; len(w) >= 3 { // not wrapping
		w[0], w[1], w[2] = id, value, aux
		return r.at(i + 3)
	}
	return r.put(r.put(r.put(i, id), value), aux)
}

// appendTo appends the retained events of source src to out, oldest first.
func (r *ring) appendTo(out []Event, src Source) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out = slices.Grow(out, r.n)
	for i, left := r.tail, r.n; left > 0; {
		count, form := r.shape(i)
		st := r.stamp(i)
		st.Source = src
		i = r.at(i + hdrWords)
		for k := range count {
			e := st
			e.Seq += uint64(k)
			switch form {
			case formSweep:
				e.Core += int16(k)
				e.Value = r.arena[i]
			case formFixed:
				e.Value, e.Aux = r.arena[i], r.arena[r.at(i+1)]
			case formBatch:
				e.setIdent(r.arena[i])
				e.Value, e.Aux = r.arena[r.at(i+1)], r.arena[r.at(i+2)]
			}
			i = r.at(i + form + 1)
			out = append(out, e)
		}
		left -= count
	}
	return out
}

func (r *ring) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
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
		r.rings[i].arena = make([]uint64, eventWords*capacity)
		r.rings[i].cap = capacity
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
// numbers, reads the run clock, the wall clock and the interval id once,
// locks src's ring and makes room there for n events. It returns the stamp
// of the first event to be stored and how many of the n do not fit. The
// caller appends the rest as records under that stamp and unlocks: events
// committed together share Time, Wall and Interval, and a snapshot sees the
// commit whole or not at all.
func (r *Recorder) begin(src Source, n int) (Event, *ring, int) {
	st := Event{
		Seq:      r.seq.Add(uint64(n)) - uint64(n) + 1,
		Time:     r.now(),
		Wall:     time.Since(r.start),
		Interval: r.interval.Load(),
	}
	rg := &r.rings[src]
	rg.mu.Lock()
	skip := rg.room(n)
	st.Seq += uint64(skip)
	return st, rg, skip
}

// RecordBatch commits events, all of source src, as one batch in slice
// order: only Kind, Core, Arg, Value and Aux are taken from them. It is
// allocation-free and does not retain events.
func (r *Recorder) RecordBatch(src Source, events []Event) {
	if r == nil || src >= numSources || len(events) == 0 {
		return
	}
	st, rg, skip := r.begin(src, len(events))
	if events = events[skip:]; len(events) == 1 {
		e := &events[0]
		st.Kind, st.Core, st.Arg = e.Kind, e.Core, e.Arg
		rg.appendFixed(&st, e.Value, e.Aux)
	} else {
		rg.appendBatch(&st, events)
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
// event for event what a RecordMSR per read would leave. Each run of
// consecutive successful cpus is one record.
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
	st, rg, skip := r.begin(SourceMSR, n)
	st.Kind, st.Arg = KindMSRRead, reg
	for cpu := 0; cpu < len(vals); {
		end := len(vals)
		if ok != nil {
			for cpu < end && !ok[cpu] {
				cpu++
			}
			for end = cpu; end < len(vals) && ok[end]; end++ {
			}
		}
		from := cpu + min(skip, end-cpu) // begin counted the skipped reads in st.Seq
		skip -= from - cpu
		if from < end {
			st.Core = int16(from)
			rg.appendSweep(&st, vals[from:end])
			st.Seq += uint64(end - from)
		}
		cpu = end
	}
	rg.mu.Unlock()
}

// RecordMSRWrites implements the msr package's WriteRecorder interface: the
// successful writes of one batch of reg — cpus[i] written vals[i] for each i
// with errs[i] nil — as one commit, event for event what a RecordMSR per
// write would leave, in cpus order. The commit is one record: fixed for a
// lone write, a batch otherwise, whether or not the cpus are consecutive.
func (r *Recorder) RecordMSRWrites(reg uint32, cpus []int, vals []uint64, errs []error) {
	n := 0
	for _, err := range errs {
		if err == nil {
			n++
		}
	}
	if r == nil || n == 0 {
		return
	}
	st, rg, skip := r.begin(SourceMSR, n)
	st.Kind, st.Arg = KindMSRWrite, reg
	if n -= skip; n == 1 {
		last := len(errs) - 1
		for errs[last] != nil {
			last--
		}
		st.Core = int16(cpus[last])
		rg.appendFixed(&st, vals[last], 0)
	} else {
		i := rg.putHeader(rg.tail+rg.used, &st, n, formBatch)
		for k, cpu := range cpus {
			if errs[k] != nil {
				continue
			}
			if skip > 0 { // begin counted the skipped writes in st.Seq
				skip--
				continue
			}
			i = rg.putEvent(i, ident(KindMSRWrite, int16(cpu), reg), vals[k], 0)
		}
		rg.used += hdrWords + 3*n
		rg.n += n
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
	out := slices.Grow([]Event(nil), r.Len())
	for i := range r.rings {
		out = r.rings[i].appendTo(out, Source(i))
	}
	slices.SortFunc(out, func(a, b Event) int { return cmp.Compare(a.Seq, b.Seq) })
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
