package decisions

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/units"
)

// refJournal is the reference Journal is held to: a ring of whole entries,
// each Record copying every app's name and core beside its numbers, and
// each read deep-copying a slot.
type refJournal struct {
	entries []Entry
	next    int
	filled  bool
	seq     uint64
}

func (j *refJournal) record(policy string, reasons []core.Reason, s core.Snapshot, actions []core.Action) {
	j.seq++
	e := &j.entries[j.next]
	e.Seq = j.seq
	e.TimeSeconds = s.Time.Seconds()
	e.Policy = policy
	e.LimitWatts = float64(s.Limit)
	e.PackagePowerWatts = float64(s.PackagePower)
	e.Reasons = e.Reasons[:0]
	for _, r := range reasons {
		e.Reasons = append(e.Reasons, string(r))
	}
	e.Apps = e.Apps[:0]
	for _, a := range s.Apps {
		e.Apps = append(e.Apps, AppTrace{
			Name: a.Spec.Name, Core: a.Spec.Core,
			MHz: a.Freq.MHzF(), IPS: a.IPS, Watts: float64(a.Power), Parked: a.Parked,
		})
	}
	e.Actions = e.Actions[:0]
	for _, a := range actions {
		at := ActionTrace{Core: a.Core, Park: a.Park}
		if !a.Park {
			at.MHz = a.Freq.MHzF()
		}
		e.Actions = append(e.Actions, at)
	}
	if j.next++; j.next == len(j.entries) {
		j.next, j.filled = 0, true
	}
}

func (j *refJournal) tail(n int) []Entry {
	have := j.next
	if j.filled {
		have = len(j.entries)
	}
	if n <= 0 || n > have {
		n = have
	}
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		idx := j.next - n + i
		if idx < 0 {
			idx += len(j.entries)
		}
		e := j.entries[idx]
		e.Reasons = append(make([]string, 0, len(e.Reasons)), e.Reasons...)
		e.Apps = append(make([]AppTrace, 0, len(e.Apps)), e.Apps...)
		e.Actions = append([]ActionTrace(nil), e.Actions...)
		out = append(out, e)
	}
	return out
}

// driveJournal plays one op per byte of ops against a Journal and its
// reference, both of capacity 1+ops[0]%7 so the ring laps often, and fails
// at the first read that differs — as values or as JSON. The ops move the
// app set the way a daemon can: rename an app in place, move one to
// another core, grow or shrink the set, empty it, rebuild it with equal
// contents in fresh memory, or return to an earlier set. Snapshots carry
// an AppSet the way the daemon draws them — a new one per set laid down,
// the old one on a return — or, one record in four, zero.
func driveJournal(t *testing.T, ops []byte) {
	if len(ops) == 0 {
		return
	}
	capacity := 1 + int(ops[0])%7
	j, ref := NewJournal(capacity), &refJournal{entries: make([]Entry, capacity)}
	names := []string{"gcc", "cam4", "leela", "cactusBSSN", "mcf"}
	apps := make([]core.AppState, 4)
	for i := range apps {
		apps[i].Spec = core.AppSpec{Name: names[i], Core: i}
	}
	earlier := apps
	nextSet := uint64(1)
	set, earlierSet := nextSet, nextSet
	allReasons := []core.Reason{core.ReasonPowerOverLimit, core.ReasonShareRebalance, core.ReasonWithinDeadband}
	for k, op := range ops[1:] {
		arg := int(op >> 3)
		switch op % 8 {
		case 0: // rename one app, same core
			if len(apps) > 0 {
				apps = slices.Clone(apps)
				apps[arg%len(apps)].Spec.Name = names[arg%len(names)]
			}
		case 1: // move one app to another core, same name
			if len(apps) > 0 {
				apps = slices.Clone(apps)
				apps[arg%len(apps)].Spec.Core = 8 + arg
			}
		case 2: // grow or shrink
			if arg%2 == 0 && len(apps) > 0 {
				apps = slices.Clone(apps[:len(apps)-1])
			} else {
				apps = append(slices.Clone(apps), core.AppState{Spec: core.AppSpec{Name: names[arg%len(names)], Core: 16 + arg}})
			}
		case 3: // empty, or back to an earlier set
			earlier, apps = apps, earlier
			earlierSet, set = set, earlierSet
			if arg%2 == 0 {
				apps = nil
			}
		case 4: // the same identities in fresh memory
			fresh := make([]core.AppState, len(apps))
			for i, a := range apps {
				fresh[i].Spec = core.AppSpec{Name: string([]byte(a.Spec.Name)), Core: a.Spec.Core}
			}
			apps = fresh
		}
		if op%8 < 5 && !(op%8 == 3 && arg%2 == 1) {
			nextSet++
			set = nextSet
		}
		for i := range apps {
			apps[i].Freq = units.Hertz(1e9 + float64((k*7+i*13)%40)*1e8)
			apps[i].IPS = float64(k*i) * 1.25e6
			apps[i].Power = units.Watts(float64(k+i) / 3)
			apps[i].Parked = (k+i)%5 == 0
		}
		snap := core.Snapshot{
			Time: time.Duration(k) * 10 * time.Millisecond, Limit: units.Watts(40 + k%9),
			PackagePower: units.Watts(float64(k) / 7), Apps: apps, AppSet: set,
		}
		if arg%4 == 0 {
			snap.AppSet = 0
		}
		reasons := allReasons[:arg%4]
		var actions []core.Action
		for a := 0; a < arg%3; a++ {
			actions = append(actions, core.Action{Core: a, Freq: units.Hertz(2e9 + float64(k)*1e6), Park: (k+a)%4 == 0})
		}
		j.Record("p", reasons, snap, actions)
		ref.record("p", reasons, snap, actions)

		n := arg % (capacity + 2)
		got, want := j.Tail(n), ref.tail(n)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d (%d): Tail(%d)\n got %+v\nwant %+v", k, op, n, got, want)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if string(gj) != string(wj) {
			t.Fatalf("op %d (%d): Tail(%d) JSON\n got %s\nwant %s", k, op, n, gj, wj)
		}
	}
}

// The journal stores numbers per entry and identity per app set; what it
// hands back must be, entry for entry, what a journal copying every app's
// name into every entry hands back.
func TestJournalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 60; run++ {
		ops := make([]byte, 1+rng.Intn(300))
		rng.Read(ops)
		driveJournal(t, ops)
	}
}

func FuzzJournalMatchesReference(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 3, 3, 3, 11, 4, 4, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) { driveJournal(t, ops) })
}

// An app set's identity is laid down once: entries recorded under one set
// share it, whatever memory the snapshot's names live in, and a change of
// set lays down exactly one more.
func TestRecordLaysIdentityOncePerSet(t *testing.T) {
	specs := func(names ...string) []core.AppState {
		apps := make([]core.AppState, len(names))
		for i, n := range names {
			apps[i].Spec = core.AppSpec{Name: string([]byte(n)), Core: i}
		}
		return apps
	}
	sets := func(j *Journal) map[*appSet]int {
		seen := map[*appSet]int{}
		for i := range j.slots {
			if j.slots[i].set != nil {
				seen[j.slots[i].set]++
			}
		}
		return seen
	}
	j := NewJournal(2000)
	for i := 0; i < 1000; i++ {
		j.Record("p", nil, core.Snapshot{Apps: specs("gcc", "mcf")}, nil)
	}
	if s := sets(j); len(s) != 1 {
		t.Fatalf("1000 records of one app set laid down %d sets, want 1", len(s))
	}
	moved := specs("gcc", "mcf")
	moved[1].Spec.Core = 7
	j.Record("p", nil, core.Snapshot{Apps: moved}, nil)
	for i := 0; i < 10; i++ {
		j.Record("p", nil, core.Snapshot{Apps: specs("gcc", "lbm")}, nil)
	}
	s := sets(j)
	if len(s) != 3 {
		t.Fatalf("after a moved core and a renamed app: %d sets, want 3", len(s))
	}
	want := map[string]int{"[gcc mcf] [0 1]": 1000, "[gcc mcf] [0 7]": 1, "[gcc lbm] [0 1]": 10}
	for set, n := range s {
		if key := fmt.Sprint(set.names, " ", set.cores); n != want[key] {
			t.Fatalf("set %s holds %d entries, want %d", key, n, want[key])
		}
	}

	// A snapshot's AppSet stands for its identities. A new one is checked
	// against the last set and, equal, reuses it; a known one is trusted
	// unread — which is why the daemon draws a new one per set it lays down.
	j = NewJournal(8)
	j.Record("p", nil, core.Snapshot{Apps: specs("gcc", "mcf"), AppSet: 7}, nil)
	first := j.set
	j.Record("p", nil, core.Snapshot{Apps: specs("gcc", "mcf"), AppSet: 8}, nil)
	if j.set != first {
		t.Fatal("a new AppSet with the same identities laid down a second set")
	}
	j.Record("p", nil, core.Snapshot{Apps: specs("gcc", "lbm"), AppSet: 8}, nil)
	if e, _ := j.Last(); j.set != first || e.Apps[1].Name != "mcf" {
		t.Fatalf("a known AppSet was read, not trusted: %+v", e.Apps)
	}
	j.Record("p", nil, core.Snapshot{Apps: specs("gcc", "lbm")}, nil)
	if e, _ := j.Last(); e.Apps[1].Name != "lbm" {
		t.Fatalf("AppSet 0 was not compared: %+v", e.Apps)
	}
}
