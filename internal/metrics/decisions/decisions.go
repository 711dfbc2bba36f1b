// Package decisions is the control loop's structured decision journal:
// for every policy update it records the observed snapshot, the actions
// emitted, and the machine-readable reasons the policy gave through the
// core.Explainer interface. The journal is a fixed-capacity ring — the
// daemon appends once per control interval forever, the HTTP status
// endpoint reads the tail — so memory stays bounded no matter how long the
// daemon runs, and the paper's Section 5 control loop ("sample, decide,
// actuate, once per second") becomes inspectable while it runs instead of
// only in post-hoc CSVs.
//
// An interval writes each app's numbers, not its name: the apps' identity
// (name and core, in snapshot order) is laid down once per app set and
// shared by every entry recorded under it. Readers get whole entries back.
package decisions

import (
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/units"
)

// AppTrace is one application's telemetry inside a journal entry.
type AppTrace struct {
	Name   string  `json:"name"`
	Core   int     `json:"core"`
	MHz    float64 `json:"mhz"`
	IPS    float64 `json:"ips"`
	Watts  float64 `json:"watts"`
	Parked bool    `json:"parked"`
}

// ActionTrace is one emitted action inside a journal entry.
type ActionTrace struct {
	Core int     `json:"core"`
	MHz  float64 `json:"mhz,omitempty"`
	Park bool    `json:"park,omitempty"`
}

// Entry is one control interval's decision record.
type Entry struct {
	// Seq numbers entries from 1 in append order; the ring may have
	// discarded earlier entries but Seq keeps the absolute position.
	Seq uint64 `json:"seq"`

	// TimeSeconds is the snapshot's (virtual or wall) clock.
	TimeSeconds float64 `json:"time_seconds"`

	Policy            string   `json:"policy"`
	Reasons           []string `json:"reasons"`
	LimitWatts        float64  `json:"limit_watts"`
	PackagePowerWatts float64  `json:"package_power_watts"`

	Apps    []AppTrace    `json:"apps,omitempty"`
	Actions []ActionTrace `json:"actions,omitempty"`
}

// appSet is one app set's identity, in snapshot order. It is immutable
// once built: every slot recorded under the set points at it.
type appSet struct {
	names []string
	cores []int
}

// matches reports whether apps carry exactly the set's identities.
func (s *appSet) matches(apps []core.AppState) bool {
	if s == nil || len(apps) != len(s.names) {
		return false
	}
	for i := range apps {
		if apps[i].Spec.Core != s.cores[i] || apps[i].Spec.Name != s.names[i] {
			return false
		}
	}
	return true
}

func newAppSet(apps []core.AppState) *appSet {
	s := &appSet{names: make([]string, len(apps)), cores: make([]int, len(apps))}
	for i := range apps {
		s.names[i], s.cores[i] = apps[i].Spec.Name, apps[i].Spec.Core
	}
	return s
}

// appNums is what one interval adds to the journal for one app.
type appNums struct {
	freq   units.Hertz
	ips    float64
	power  units.Watts
	parked bool
}

// slot is one ring position: a policy update as recorded, in the
// snapshot's own units. Entry is built from it only when read.
type slot struct {
	seq     uint64
	at      time.Duration
	policy  string
	reasons []core.Reason
	limit   units.Watts
	pkg     units.Watts
	set     *appSet
	apps    []appNums
	actions []core.Action
}

// fill overwrites sl with a policy update, reusing the capacity of its
// slices: a ring slot stops allocating once it has held its largest entry.
func (sl *slot) fill(policy string, reasons []core.Reason, s core.Snapshot, actions []core.Action, set *appSet) {
	sl.at, sl.policy, sl.limit, sl.pkg, sl.set = s.Time, policy, s.Limit, s.PackagePower, set
	sl.reasons = append(sl.reasons[:0], reasons...)
	sl.apps = slices.Grow(sl.apps[:0], len(s.Apps))[:len(s.Apps)]
	for i := range s.Apps {
		a := &s.Apps[i]
		sl.apps[i] = appNums{a.Freq, a.IPS, a.Power, a.Parked}
	}
	sl.actions = append(sl.actions[:0], actions...)
}

// entry builds the reader's copy of sl, sharing nothing with the ring.
func (sl *slot) entry() Entry {
	e := Entry{
		Seq:               sl.seq,
		TimeSeconds:       sl.at.Seconds(),
		Policy:            sl.policy,
		Reasons:           make([]string, len(sl.reasons)),
		LimitWatts:        float64(sl.limit),
		PackagePowerWatts: float64(sl.pkg),
		Apps:              make([]AppTrace, len(sl.apps)),
	}
	for i, r := range sl.reasons {
		e.Reasons[i] = string(r)
	}
	for i, a := range sl.apps {
		e.Apps[i] = AppTrace{
			Name: sl.set.names[i], Core: sl.set.cores[i],
			MHz: a.freq.MHzF(), IPS: a.ips, Watts: float64(a.power), Parked: a.parked,
		}
	}
	if len(sl.actions) > 0 { // nil, not empty, in the deadband: what a JSON round trip gives back
		e.Actions = make([]ActionTrace, len(sl.actions))
		for i, a := range sl.actions {
			e.Actions[i] = ActionTrace{Core: a.Core, Park: a.Park}
			if !a.Park {
				e.Actions[i].MHz = a.Freq.MHzF()
			}
		}
	}
	return e
}

// Journal is a bounded, concurrency-safe ring of decision entries. A nil
// *Journal is a valid disabled journal: Record no-ops and readers see
// nothing.
type Journal struct {
	mu     sync.Mutex
	slots  []slot  // ring storage
	set    *appSet // identity of the app set recorded last
	setID  uint64  // the core.Snapshot.AppSet set was recorded under; 0 = unknown
	next   int     // ring write position
	filled bool
	seq    uint64
}

// DefaultCapacity bounds the journal when callers pass a non-positive
// capacity: at the paper's 1 s control interval it retains the last ~8.5
// minutes of decisions.
const DefaultCapacity = 512

// NewJournal returns a journal retaining the last capacity entries
// (DefaultCapacity when non-positive).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Journal{slots: make([]slot, capacity)}
}

// Record journals one policy update — the observed snapshot, the reasons
// the policy gave and the actions it emitted — under the next sequence
// number, evicting the oldest entry once the ring is full: its slot is
// refilled in place, so a warm journal records without allocating. A
// snapshot whose nonzero AppSet is the last one recorded reuses that set's
// identities unread; any other has its names and cores compared against
// them, and a new set is laid down only when they differ.
func (j *Journal) Record(policy string, reasons []core.Reason, s core.Snapshot, actions []core.Action) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if s.AppSet == 0 || s.AppSet != j.setID {
		if !j.set.matches(s.Apps) {
			j.set = newAppSet(s.Apps)
		}
		j.setID = s.AppSet
	}
	j.seq++
	sl := &j.slots[j.next]
	sl.fill(policy, reasons, s, actions, j.set)
	sl.seq = j.seq
	j.next++
	if j.next == len(j.slots) {
		j.next = 0
		j.filled = true
	}
}

// Total reports how many entries have ever been recorded.
func (j *Journal) Total() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Len reports how many entries are currently retained.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lenLocked()
}

func (j *Journal) lenLocked() int {
	if j.filled {
		return len(j.slots)
	}
	return j.next
}

// Tail returns the most recent n entries, oldest first, each a copy that
// shares nothing with the ring. Non-positive or oversized n returns
// everything retained.
func (j *Journal) Tail(n int) []Entry {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	have := j.lenLocked()
	if n <= 0 || n > have {
		n = have
	}
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		idx := j.next - n + i
		if idx < 0 {
			idx += len(j.slots)
		}
		out = append(out, j.slots[idx].entry())
	}
	return out
}

// Last returns the most recent entry and whether one exists.
func (j *Journal) Last() (Entry, bool) {
	t := j.Tail(1)
	if len(t) == 0 {
		return Entry{}, false
	}
	return t[0], true
}
