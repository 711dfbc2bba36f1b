package decisions

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// record journals a bare entry stamped t seconds.
func record(j *Journal, t float64) {
	j.Record("test", nil, core.Snapshot{Time: time.Duration(t * float64(time.Second))}, nil)
}

func TestRecord(t *testing.T) {
	snap := core.Snapshot{
		Time:         90 * time.Second,
		Limit:        50,
		PackagePower: 47.5,
		Apps: []core.AppState{{
			Spec:   core.AppSpec{Name: "gcc", Core: 0, Shares: 90},
			Freq:   3_200_000_000,
			IPS:    4e9,
			Power:  20,
			Parked: false,
		}},
	}
	actions := []core.Action{{Core: 0, Freq: 2_800_000_000}, {Core: 1, Park: true}}
	j := NewJournal(2)
	j.Record("frequency-shares", []core.Reason{core.ReasonPowerOverLimit, core.ReasonShareRebalance}, snap, actions)
	e, _ := j.Last()
	if e.Policy != "frequency-shares" || e.TimeSeconds != 90 {
		t.Fatalf("header: %+v", e)
	}
	if len(e.Reasons) != 2 || e.Reasons[0] != "power-over-limit" || e.Reasons[1] != "share-rebalance" {
		t.Fatalf("reasons = %v", e.Reasons)
	}
	if e.LimitWatts != 50 || e.PackagePowerWatts != 47.5 {
		t.Fatalf("power fields: %+v", e)
	}
	if len(e.Apps) != 1 || e.Apps[0].Name != "gcc" || e.Apps[0].MHz != 3200 {
		t.Fatalf("apps: %+v", e.Apps)
	}
	if len(e.Actions) != 2 || e.Actions[0].MHz != 2800 || !e.Actions[1].Park {
		t.Fatalf("actions: %+v", e.Actions)
	}
	if e.Actions[1].MHz != 0 {
		t.Fatalf("park action should carry no frequency: %+v", e.Actions[1])
	}
}

func TestJournalRing(t *testing.T) {
	j := NewJournal(4)
	for i := 1; i <= 6; i++ {
		record(j, float64(i))
	}
	if j.Total() != 6 {
		t.Fatalf("total = %d, want 6", j.Total())
	}
	if j.Len() != 4 {
		t.Fatalf("len = %d, want 4", j.Len())
	}
	tail := j.Tail(0)
	if len(tail) != 4 {
		t.Fatalf("tail len = %d, want 4", len(tail))
	}
	// Oldest first, and Seq keeps the absolute append position.
	for i, e := range tail {
		wantSeq := uint64(3 + i)
		if e.Seq != wantSeq || e.TimeSeconds != float64(3+i) {
			t.Fatalf("tail[%d] = seq %d t %v, want seq %d t %d", i, e.Seq, e.TimeSeconds, wantSeq, 3+i)
		}
	}
	if got := j.Tail(2); len(got) != 2 || got[1].Seq != 6 {
		t.Fatalf("tail(2) = %+v", got)
	}
	last, ok := j.Last()
	if !ok || last.Seq != 6 {
		t.Fatalf("last = %+v, %v", last, ok)
	}
}

func TestJournalPartiallyFilled(t *testing.T) {
	j := NewJournal(8)
	record(j, 1)
	record(j, 2)
	if j.Len() != 2 || j.Total() != 2 {
		t.Fatalf("len=%d total=%d", j.Len(), j.Total())
	}
	tail := j.Tail(10)
	if len(tail) != 2 || tail[0].Seq != 1 || tail[1].Seq != 2 {
		t.Fatalf("tail = %+v", tail)
	}
}

func TestJournalNil(t *testing.T) {
	var j *Journal
	record(j, 1) // must not panic
	if j.Len() != 0 || j.Total() != 0 {
		t.Fatalf("nil journal reported state")
	}
	if tail := j.Tail(5); tail != nil {
		t.Fatalf("nil journal tail = %v", tail)
	}
	if _, ok := j.Last(); ok {
		t.Fatalf("nil journal has a last entry")
	}
}

func TestJournalConcurrent(t *testing.T) {
	j := NewJournal(16)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 500; k++ {
				record(j, float64(k))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 200; k++ {
			j.Tail(8)
			j.Last()
			j.Len()
		}
	}()
	wg.Wait()
	if j.Total() != 2000 {
		t.Fatalf("total = %d, want 2000", j.Total())
	}
	tail := j.Tail(0)
	if len(tail) != 16 {
		t.Fatalf("len = %d, want 16", len(tail))
	}
	for i := 1; i < len(tail); i++ {
		if tail[i].Seq != tail[i-1].Seq+1 {
			t.Fatalf("tail not sequential: %d then %d", tail[i-1].Seq, tail[i].Seq)
		}
	}
}

// The journal refills the evicted slot in place, so what Tail and Last hand
// out must be deep copies: an entry read before the ring laps keeps its
// contents, shorter updates do not show the longer one's leftovers, a
// deadband entry's Actions reads back nil, and a warm ring records without
// allocating.
func TestJournalSlotReuse(t *testing.T) {
	big := core.Snapshot{Time: time.Second, Apps: make([]core.AppState, 8)}
	for i := range big.Apps {
		big.Apps[i].Spec = core.AppSpec{Name: "big", Core: i}
	}
	small := core.Snapshot{Time: 2 * time.Second, Apps: []core.AppState{{Spec: core.AppSpec{Name: "small"}}}}
	acts := []core.Action{{Core: 1, Freq: 2_000_000_000}, {Core: 2, Park: true}}

	j := NewJournal(2)
	j.Record("p", []core.Reason{core.ReasonPowerOverLimit, core.ReasonShareRebalance}, big, acts)
	first, _ := j.Last()
	held := j.Tail(1)
	j.Record("p", nil, small, nil)
	j.Record("p", []core.Reason{core.ReasonWithinDeadband}, small, nil) // laps onto first's slot

	if !reflect.DeepEqual(held[0], first) || len(first.Apps) != 8 || first.Apps[7].Core != 7 ||
		len(first.Reasons) != 2 || len(first.Actions) != 2 || !first.Actions[1].Park {
		t.Fatalf("entry read before the lap changed under its reader: %+v", first)
	}
	last, _ := j.Last()
	if last.Seq != 3 || len(last.Apps) != 1 || last.Apps[0].Name != "small" ||
		len(last.Reasons) != 1 || last.Reasons[0] != string(core.ReasonWithinDeadband) {
		t.Fatalf("refilled slot shows leftovers: %+v", last)
	}
	if last.Actions != nil || last.Reasons == nil || last.Apps == nil {
		t.Fatalf("deadband entry: actions %v (want nil), reasons %v, apps %v", last.Actions, last.Reasons, last.Apps)
	}
	last.Apps[0].Name = "scribbled"
	if again, _ := j.Last(); again.Apps[0].Name != "small" {
		t.Fatal("Last handed out the ring slot itself")
	}

	reasons := []core.Reason{core.ReasonShareRebalance}
	if n := testing.AllocsPerRun(50, func() { j.Record("p", reasons, big, acts) }); n != 0 {
		t.Fatalf("warm journal allocates %v per Record, want 0", n)
	}
}
