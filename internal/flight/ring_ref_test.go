package flight

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// refRecorder is the event-per-slot recorder the record arena replaced,
// kept as the reference the arena is held to: every commit writes one
// stamped 56-byte Event per event into its source's ring, overwriting the
// oldest. Single-goroutine and unstamped by Wall; Time is whatever clock
// the test sets.
type refRecorder struct {
	seq      uint64
	interval uint32
	clock    time.Duration
	rings    [numSources]refRing
}

type refRing struct {
	buf    []Event
	next   int
	filled bool
}

func newRefRecorder(capacity int) *refRecorder {
	r := &refRecorder{}
	for i := range r.rings {
		r.rings[i].buf = make([]Event, capacity)
	}
	return r
}

func (r *refRing) slot() *Event {
	e := &r.buf[r.next]
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.filled = true
	}
	return e
}

func (r *refRing) snapshot() []Event {
	if !r.filled {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

func (r *refRecorder) begin(src Source, n int) (Event, *refRing) {
	st := Event{Seq: r.seq, Time: r.clock, Source: src, Interval: r.interval}
	r.seq += uint64(n)
	return st, &r.rings[src]
}

func (r *refRecorder) RecordBatch(src Source, events []Event) {
	if src >= numSources || len(events) == 0 {
		return
	}
	st, rg := r.begin(src, len(events))
	for i := range events {
		e := &events[i]
		st.Seq++
		st.Kind, st.Core, st.Arg, st.Value, st.Aux = e.Kind, e.Core, e.Arg, e.Value, e.Aux
		*rg.slot() = st
	}
}

func (r *refRecorder) Record(e Event) { r.RecordBatch(e.Source, []Event{e}) }

func (r *refRecorder) RecordMSRSweep(reg uint32, vals []uint64, ok []bool) {
	n := len(vals)
	for _, good := range ok {
		if !good {
			n--
		}
	}
	if n == 0 {
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
}

func (r *refRecorder) RecordMSRWrites(reg uint32, cpus []int, vals []uint64, errs []error) {
	for i, cpu := range cpus {
		if errs[i] == nil {
			r.Record(Event{Kind: KindMSRWrite, Source: SourceMSR, Core: int16(cpu), Arg: reg, Value: vals[i]})
		}
	}
}

func (r *refRecorder) Len() int {
	n := 0
	for i := range r.rings {
		if r.rings[i].filled {
			n += len(r.rings[i].buf)
		} else {
			n += r.rings[i].next
		}
	}
	return n
}

func (r *refRecorder) Snapshot() []Event {
	var out []Event
	for i := range r.rings {
		out = append(out, r.rings[i].snapshot()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// choices supplies the differential test's decisions: seeded randomness
// in the table test, a fuzzer's bytes in the fuzz target.
type choices interface {
	Intn(n int) int
	Uint64() uint64
}

// fuzzChoices reads decisions off a byte string; once it runs dry every
// decision is 0 and done reports true.
type fuzzChoices struct{ data []byte }

func (c *fuzzChoices) done() bool { return len(c.data) == 0 }

func (c *fuzzChoices) Intn(n int) int {
	if c.done() {
		return 0
	}
	v := int(c.data[0])
	c.data = c.data[1:]
	if n > 256 && !c.done() {
		v = v<<8 | int(c.data[0])
		c.data = c.data[1:]
	}
	return v % n
}

func (c *fuzzChoices) Uint64() uint64 {
	var b [8]byte
	c.data = c.data[copy(b[:], c.data):]
	return binary.LittleEndian.Uint64(b[:])
}

// word picks a full-range payload word, its extremes often.
func word(c choices) uint64 {
	switch c.Intn(4) {
	case 0:
		return 0
	case 1:
		return math.MaxUint64
	}
	return c.Uint64()
}

// anyEvent builds an event with every field but the stamp chosen: Core at
// its extremes and -1 often, Kind, Arg, Value and Aux over their full range.
func anyEvent(c choices) Event {
	core := [...]int16{-1, math.MaxInt16, math.MinInt16, 0}[c.Intn(4)]
	if core == 0 {
		core = int16(c.Uint64())
	}
	return Event{
		Kind: Kind(c.Intn(256)), Source: Source(c.Intn(int(numSources) + 1)),
		Core: core, Arg: uint32(word(c)), Value: word(c), Aux: word(c),
	}
}

var errFailedWrite = errors.New("write failed")

// applyOp performs one operation chosen by c on both recorders: a Record,
// a RecordMSR, a RecordBatch of up to three rings' worth, a sweep of up to
// three rings' worth (whole, strict-abort prefix, or with an ok mask), a
// batch of writes of up to three rings' worth with failures among them, or a
// clock or interval move. It returns the source it recorded to, numSources
// for none.
func applyOp(c choices, capacity int, rec *Recorder, ref *refRecorder, clock *time.Duration) Source {
	switch c.Intn(8) {
	case 0:
		e := anyEvent(c)
		rec.Record(e)
		ref.Record(e)
		return e.Source
	case 1:
		write, cpu, reg, val := c.Intn(2) == 1, c.Intn(1<<16)-1<<15, uint32(word(c)), word(c)
		rec.RecordMSR(write, cpu, reg, val)
		k := KindMSRRead
		if write {
			k = KindMSRWrite
		}
		ref.Record(Event{Kind: k, Source: SourceMSR, Core: int16(cpu), Arg: reg, Value: val})
		return SourceMSR
	case 2:
		evs := make([]Event, c.Intn(3*capacity+1))
		for i := range evs {
			evs[i] = anyEvent(c)
		}
		src := Source(c.Intn(int(numSources) + 1))
		rec.RecordBatch(src, evs)
		ref.RecordBatch(src, evs)
		return src
	case 3, 4:
		vals := make([]uint64, c.Intn(3*capacity+1))
		for i := range vals {
			vals[i] = word(c)
		}
		var ok []bool
		switch c.Intn(4) {
		case 0: // a strict sweep that aborted at some cpu keeps the reads before it
			vals = vals[:c.Intn(len(vals)+1)]
		case 1, 2: // holes; a mask may be all true or all false
			ok = make([]bool, len(vals))
			bias := c.Intn(5)
			for i := range ok {
				ok[i] = c.Intn(4) < bias
			}
		}
		reg := uint32(word(c))
		rec.RecordMSRSweep(reg, vals, ok)
		ref.RecordMSRSweep(reg, vals, ok)
		return SourceMSR
	case 7:
		n := c.Intn(3*capacity + 1)
		cpus, vals, errs := make([]int, n), make([]uint64, n), make([]error, n)
		bias := c.Intn(5)
		for i := range cpus {
			cpus[i], vals[i] = c.Intn(1<<16)-1<<15, word(c)
			if c.Intn(4) >= bias {
				errs[i] = errFailedWrite
			}
		}
		reg := uint32(word(c))
		rec.RecordMSRWrites(reg, cpus, vals, errs)
		ref.RecordMSRWrites(reg, cpus, vals, errs)
		return SourceMSR
	case 5:
		*clock = time.Duration(word(c))
		ref.clock = *clock
	case 6:
		iv := uint32(word(c))
		rec.BeginInterval(iv)
		ref.interval = iv
	}
	return numSources
}

// diffLog reports how rec differs from ref — in the events src's ring
// retains (in append order, Wall aside), in Snapshot when snap is set, in
// Len or in Total — or "" when it does not.
func diffLog(rec *Recorder, ref *refRecorder, src Source, snap bool) string {
	if src < numSources {
		got := rec.rings[src].appendTo(nil, src)
		if d := diffEvents(got, ref.rings[src].snapshot()); d != "" {
			return src.String() + " ring: " + d
		}
	}
	if snap {
		if d := diffEvents(rec.Snapshot(), ref.Snapshot()); d != "" {
			return "snapshot: " + d
		}
	}
	if rec.Len() != ref.Len() || rec.Total() != ref.seq {
		return fmt.Sprintf("len %d/%d total %d/%d", rec.Len(), ref.Len(), rec.Total(), ref.seq)
	}
	return ""
}

func diffEvents(got, want []Event) string {
	for i := range got {
		got[i].Wall = 0
	}
	if slices.Equal(got, want) {
		return ""
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("event %d of %d/%d differs:\n arena %+v\n ref   %+v", i, len(got), len(want), got[i], want[i])
		}
	}
	return fmt.Sprintf("arena retains %d events, reference %d", len(got), len(want))
}

// newPair builds a record arena and a reference of one capacity, on one clock.
func newPair(capacity int) (*Recorder, *refRecorder, *time.Duration) {
	rec, ref := New(capacity), newRefRecorder(capacity)
	clock := new(time.Duration)
	rec.SetClock(func() time.Duration { return *clock })
	return rec, ref, clock
}

// The record arena retains, event for event, what the event-per-slot ring
// it replaced retains, under seeded mixes of every commit path into rings
// of 1 to 64 events — including trims that leave the oldest record a
// single event, commits larger than the ring, and every Source.
func TestRingMatchesReference(t *testing.T) {
	seeds, ops := 300, 400
	if testing.Short() || raceEnabled {
		seeds = 30
	}
	for seed := range seeds {
		rng := rand.New(rand.NewSource(int64(seed)))
		capacity := 1 + rng.Intn(64)
		rec, ref, clock := newPair(capacity)
		for op := range ops {
			src := applyOp(rng, capacity, rec, ref, clock)
			if d := diffLog(rec, ref, src, op%50 == 49); d != "" {
				t.Fatalf("seed %d, capacity %d, op %d: %s", seed, capacity, op, d)
			}
		}
	}
}

// FuzzRingMatchesReference decodes bytes into a ring capacity and a
// sequence of commits, and holds the record arena to the reference after
// every one.
func FuzzRingMatchesReference(f *testing.F) {
	f.Add([]byte{3, 2, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 3, 9, 1, 0, 0})
	f.Add([]byte{0, 2, 3, 0xff, 0, 4, 2, 1, 3, 6, 0, 1})
	f.Add([]byte{63, 3, 200, 2, 2, 4, 150, 1, 3, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &fuzzChoices{data: data}
		capacity := 1 + c.Intn(64)
		rec, ref, clock := newPair(capacity)
		for op := 0; !c.done() && op < 1000; op++ {
			src := applyOp(c, capacity, rec, ref, clock)
			if d := diffLog(rec, ref, src, true); d != "" {
				t.Fatalf("capacity %d, op %d: %s", capacity, op, d)
			}
		}
	})
}
