package flight

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// sansWall returns the events with Wall cleared — the one field a batch
// may stamp differently from per-event recording — after checking that
// Wall never runs backwards in Seq order.
func sansWall(t *testing.T, evs []Event) []Event {
	t.Helper()
	out := append([]Event(nil), evs...)
	for i := range out {
		if i > 0 && out[i].Wall < out[i-1].Wall {
			t.Errorf("seq %d: wall %v before seq %d's %v", out[i].Seq, out[i].Wall, out[i-1].Seq, out[i-1].Wall)
		}
		out[i].Wall = 0
	}
	return out
}

// energyBatch is n ledger events with distinguishable payloads.
func energyBatch(n, tag int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{Kind: KindEnergy, Core: int16(i), Arg: uint32(i), Value: uint64(tag), Aux: uint64(tag*1000 + i)}
	}
	return evs
}

// A recorder fed whole sweeps and whole batches and one fed an event at a
// time hold the same log: every field but Wall, event for event, with the
// sources interleaved the way a control interval interleaves them.
func TestBatchSweepMatchesPerAccess(t *testing.T) {
	var clock time.Duration
	batched, single := New(0), New(0)
	batched.SetClock(func() time.Duration { return clock })
	single.SetClock(func() time.Duration { return clock })

	vals := []uint64{10, 11, 12, 13, 14, 15}
	holes := []bool{true, false, true, true, false, true}
	for iv := uint32(1); iv <= 3; iv++ {
		clock += 10 * time.Millisecond
		batched.BeginInterval(iv)
		single.BeginInterval(iv)

		batched.RecordMSRSweep(0xE8, vals, nil)
		batched.RecordMSRSweep(0xE7, vals, holes)
		batched.RecordMSRSweep(0x309, vals[:0], nil) // a strict sweep that failed at cpu 0
		batched.RecordMSRSweep(0x309, vals, make([]bool, len(vals)))
		for cpu, v := range vals {
			single.RecordMSR(false, cpu, 0xE8, v)
		}
		for cpu, v := range vals {
			if holes[cpu] {
				single.RecordMSR(false, cpu, 0xE7, v)
			}
		}

		d := Event{Kind: KindDecision, Source: SourceDaemon, Core: -1, Arg: 3}
		batched.Record(d)
		single.Record(d)
		batched.RecordMSR(true, 2, 0x199, 0x1800)
		single.RecordMSR(true, 2, 0x199, 0x1800)

		evs := energyBatch(5, int(iv))
		batched.RecordBatch(SourceLedger, evs)
		for _, e := range evs {
			e.Source = SourceLedger
			single.Record(e)
		}
		batched.RecordBatch(SourceLedger, nil)
	}

	got, want := sansWall(t, batched.Snapshot()), sansWall(t, single.Snapshot())
	if len(want) != 3*(6+4+1+1+5) {
		t.Fatalf("per-access log holds %d events", len(want))
	}
	if !reflect.DeepEqual(got, want) {
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("logs diverge at %d of %d/%d:\n batched %+v\n single  %+v", i, len(got), len(want), got[min(i, len(got)-1)], want[i])
			}
		}
		t.Fatalf("batched log holds %d events, per-access %d", len(got), len(want))
	}
	if batched.Total() != single.Total() {
		t.Fatalf("totals %d vs %d", batched.Total(), single.Total())
	}
	// Within a sweep the stamp is shared; Seq alone tells its events apart.
	for i, evs := 1, batched.Snapshot(); i < 6; i++ {
		a, b := evs[i-1], evs[i]
		if a.Wall != b.Wall || a.Time != b.Time || b.Seq != a.Seq+1 {
			t.Fatalf("sweep events %d,%d not stamped as one: %+v %+v", i-1, i, a, b)
		}
	}
}

// A batch that wraps the ring part-way, and one larger than the ring,
// retain exactly what as many single appends would.
func TestBatchRingWrap(t *testing.T) {
	for _, tc := range []struct {
		name   string
		pre, n int
	}{
		{"fits", 2, 5}, {"wraps", 5, 6}, {"exactly-full", 0, 8}, {"larger-than-ring", 3, 21},
	} {
		t.Run(tc.name, func(t *testing.T) {
			batched, single := New(8), New(8)
			clock := func() time.Duration { return time.Second }
			batched.SetClock(clock)
			single.SetClock(clock)
			for _, r := range []*Recorder{batched, single} {
				for i := 0; i < tc.pre; i++ {
					r.RecordMSR(true, i, 0x199, uint64(i))
				}
			}
			vals := make([]uint64, tc.n)
			for i := range vals {
				vals[i] = uint64(100 + i)
			}
			batched.RecordMSRSweep(0xE8, vals, nil)
			batched.RecordBatch(SourceLedger, energyBatch(tc.n, 7))
			for cpu, v := range vals {
				single.RecordMSR(false, cpu, 0xE8, v)
			}
			for _, e := range energyBatch(tc.n, 7) {
				e.Source = SourceLedger
				single.Record(e)
			}
			got, want := sansWall(t, batched.Snapshot()), sansWall(t, single.Snapshot())
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("retained events differ:\n batched %+v\n single  %+v", got, want)
			}
			if batched.Len() != single.Len() || batched.Total() != single.Total() {
				t.Fatalf("len %d/%d total %d/%d", batched.Len(), single.Len(), batched.Total(), single.Total())
			}
		})
	}
}

// A dump taken while sweeps and batches land sees each of them whole or not
// at all: a commit holds its ring's lock from first slot to last. (Ring
// capacities are multiples of the batch sizes, so eviction too takes whole
// batches.) Run under -race, twenty at a time, in CI.
func TestBatchDumpSeesSweepsWhole(t *testing.T) {
	const cpus, accounts, rounds = 16, 8, 3000
	r := New(4 * cpus)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		vals := make([]uint64, cpus)
		for id := 1; id <= rounds; id++ {
			for i := range vals {
				vals[i] = uint64(id)
			}
			r.RecordMSRSweep(0xE8, vals, nil)
		}
	}()
	go func() {
		defer wg.Done()
		for id := 1; id <= rounds; id++ {
			r.RecordBatch(SourceLedger, energyBatch(accounts, id))
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	check := func() {
		var perSweep, perBatch = map[uint64]int{}, map[uint64]int{}
		stamp := map[uint64]time.Duration{}
		for _, e := range r.Dump("hammer").Events {
			switch e.Source {
			case SourceMSR:
				perSweep[e.Value]++
				if w, seen := stamp[e.Value]; seen && w != e.Wall {
					t.Errorf("sweep %d carries two wall stamps", e.Value)
				}
				stamp[e.Value] = e.Wall
			case SourceLedger:
				perBatch[e.Value]++
			}
		}
		for id, n := range perSweep {
			if n != cpus {
				t.Errorf("dump holds %d of sweep %d's %d events", n, id, cpus)
			}
		}
		for id, n := range perBatch {
			if n != accounts {
				t.Errorf("dump holds %d of batch %d's %d events", n, id, accounts)
			}
		}
	}
	for running := true; running && !t.Failed(); {
		select {
		case <-done:
			running = false
		default:
		}
		check()
	}
}
