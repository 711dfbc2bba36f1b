// Package decisions is the control loop's structured decision journal:
// for every policy update it records the observed snapshot, the actions
// emitted, and the machine-readable reasons the policy gave through the
// core.Explainer interface. The journal is a fixed-capacity ring — the
// daemon appends once per control interval forever, the HTTP status
// endpoint reads the tail — so memory stays bounded no matter how long the
// daemon runs, and the paper's Section 5 control loop ("sample, decide,
// actuate, once per second") becomes inspectable while it runs instead of
// only in post-hoc CSVs.
package decisions

import (
	"slices"
	"sync"
	"time"

	"repro/internal/core"
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

// fill overwrites e with a policy update, reusing the capacity of its
// slices: a ring slot stops allocating once it has held its largest entry.
func (e *Entry) fill(policy string, reasons []core.Reason, s core.Snapshot, actions []core.Action) {
	e.TimeSeconds = s.Time.Seconds()
	e.Policy = policy
	e.LimitWatts = float64(s.Limit)
	e.PackagePowerWatts = float64(s.PackagePower)
	e.Reasons = slices.Grow(e.Reasons[:0], len(reasons))
	for _, r := range reasons {
		e.Reasons = append(e.Reasons, string(r))
	}
	e.Apps = slices.Grow(e.Apps[:0], len(s.Apps))
	for i := range s.Apps {
		a := &s.Apps[i]
		e.Apps = append(e.Apps, AppTrace{
			Name:   a.Spec.Name,
			Core:   a.Spec.Core,
			MHz:    a.Freq.MHzF(),
			IPS:    a.IPS,
			Watts:  float64(a.Power),
			Parked: a.Parked,
		})
	}
	e.Actions = slices.Grow(e.Actions[:0], len(actions))
	for _, a := range actions {
		at := ActionTrace{Core: a.Core, Park: a.Park}
		if !a.Park {
			at.MHz = a.Freq.MHzF()
		}
		e.Actions = append(e.Actions, at)
	}
}

// clone deep-copies e, so a reader never aliases a ring slot the journal
// refills in place a lap later.
func (e *Entry) clone() Entry {
	c := *e
	c.Reasons = append(make([]string, 0, len(e.Reasons)), e.Reasons...)
	c.Apps = append(make([]AppTrace, 0, len(e.Apps)), e.Apps...)
	c.Actions = append([]ActionTrace(nil), e.Actions...) // nil, not empty, in the deadband: what a JSON round trip gives back
	return c
}

// Journal is a bounded, concurrency-safe ring of decision entries. A nil
// *Journal is a valid disabled journal: Record no-ops and readers see
// nothing.
type Journal struct {
	mu      sync.Mutex
	entries []Entry // ring storage
	next    int     // ring write position
	filled  bool
	seq     uint64
	started time.Time
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
	return &Journal{entries: make([]Entry, capacity), started: time.Now()}
}

// Record journals one policy update — the observed snapshot, the reasons
// the policy gave and the actions it emitted — under the next sequence
// number, evicting the oldest entry once the ring is full: its slot is
// refilled in place, so a warm journal records without allocating.
func (j *Journal) Record(policy string, reasons []core.Reason, s core.Snapshot, actions []core.Action) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	e := &j.entries[j.next]
	e.fill(policy, reasons, s, actions)
	e.Seq = j.seq
	j.next++
	if j.next == len(j.entries) {
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
		return len(j.entries)
	}
	return j.next
}

// Tail returns deep copies of the most recent n entries, oldest first.
// Non-positive or oversized n returns everything retained.
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
			idx += len(j.entries)
		}
		out = append(out, j.entries[idx].clone())
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
