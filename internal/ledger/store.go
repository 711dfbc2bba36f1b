package ledger

import (
	"sort"
	"time"
)

// Tier capacities: at a 1 ms control interval the raw tier retains ~4 s,
// the one-second tier an hour, and the one-minute tier a day; at the
// paper's 1 s interval the raw tier alone covers more than an hour. Memory
// is fixed at construction regardless of run length.
const (
	rawBins    = 4096
	secondBins = 3600
	minuteBins = 1440
)

// Resolution names accepted by queries.
const (
	ResRaw    = "raw"
	ResSecond = "1s"
	ResMinute = "1m"
	ResAuto   = "auto"
)

// Point is one time-series bin as queries return it: integer microjoule
// accounts over [StartNS, StartNS+DurNS) of the run clock. AppUJ is
// indexed in spec order, paired with the surrounding result's app-name
// list.
type Point struct {
	StartNS        int64    `json:"start_ns"`
	DurNS          int64    `json:"dur_ns"`
	Intervals      uint32   `json:"intervals"`
	TotalUJ        uint64   `json:"total_uj"`
	UnattributedUJ uint64   `json:"unattributed_uj"`
	ExcludedUJ     uint64   `json:"excluded_uj"`
	LimitUJ        uint64   `json:"limit_uj"`
	OvershootUJ    uint64   `json:"overshoot_uj"`
	AppUJ          []uint64 `json:"app_uj"`
}

// bin is one preallocated tier slot; the hot path only ever writes into
// existing bins.
type bin struct {
	start     time.Duration
	dur       time.Duration
	intervals uint32
	appUJ     []uint64
	pkg       accounts
}

// tier is one fixed-capacity downsampling ring. The open bin (width > 0
// only) lives at position next; sealing advances next, overwriting the
// oldest bin once the ring wraps.
type tier struct {
	width  time.Duration // 0: raw, one sealed bin per interval
	bins   []bin
	next   int
	filled bool
	open   bool
}

func makeTier(width time.Duration, n, napps int) tier {
	t := tier{width: width, bins: make([]bin, n)}
	for i := range t.bins {
		t.bins[i].appUJ = make([]uint64, napps)
	}
	return t
}

// advance seals the bin at next. Caller has filled it.
func (t *tier) advance() {
	t.next++
	if t.next == len(t.bins) {
		t.next = 0
		t.filled = true
	}
	t.open = false
}

// fold adds an interval starting at st on the run clock, dur long, to the
// tier's package accounts, and returns the bin for its per-app column: the
// raw tier's new bin, whose column the caller writes whole, or a wider
// tier's open bin, which it adds to. A wider tier bins by st aligned down to
// its width: a start several widths ahead seals the open bin and opens an
// aligned one (gaps make no empty bins); a start behind the open bin (clock
// skew) folds into it rather than rewinding the ring.
func (t *tier) fold(st, dur time.Duration, iv accounts) *bin {
	if t.width == 0 {
		b := &t.bins[t.next]
		b.start, b.dur, b.intervals, b.pkg = st, dur, 1, iv
		t.advance()
		return b
	}
	aligned := st - st%t.width
	if t.open && aligned > t.bins[t.next].start {
		t.advance()
	}
	b := &t.bins[t.next]
	if !t.open {
		b.start, b.dur, b.intervals, b.pkg = aligned, t.width, 0, accounts{}
		clear(b.appUJ)
		t.open = true
	}
	b.intervals++
	b.pkg.add(iv)
	return b
}

// snapshotRange copies the retained bins whose start falls in [from, to]
// (to <= 0 means open-ended), oldest first, including the open bin.
// Allocates; query path only.
func (t *tier) snapshotRange(from, to time.Duration) []Point {
	n := t.next
	count := n
	if t.filled {
		count = len(t.bins)
	}
	if t.open {
		count++ // the open bin at position next
	}
	out := make([]Point, 0, count)
	emit := func(b *bin) {
		if b.intervals == 0 {
			return
		}
		if b.start < from || (to > 0 && b.start > to) {
			return
		}
		p := Point{
			StartNS:        b.start.Nanoseconds(),
			DurNS:          b.dur.Nanoseconds(),
			Intervals:      b.intervals,
			TotalUJ:        b.pkg.total,
			UnattributedUJ: b.pkg.unattrib,
			ExcludedUJ:     b.pkg.excluded,
			LimitUJ:        b.pkg.limit,
			OvershootUJ:    b.pkg.overshoot,
			AppUJ:          append([]uint64(nil), b.appUJ...),
		}
		out = append(out, p)
	}
	if t.filled {
		// Sealed bins oldest-first: when a bin is open at position next it
		// is the newest, so the oldest sealed bin sits just past it;
		// otherwise position next itself holds the oldest.
		first := t.next
		if t.open {
			first++
		}
		for i := first; i < len(t.bins); i++ {
			emit(&t.bins[i])
		}
	}
	for i := 0; i < n; i++ {
		emit(&t.bins[i])
	}
	if t.open {
		emit(&t.bins[t.next])
	}
	return out
}

// oldest reports the start of the oldest retained bin, or -1 when empty.
func (t *tier) oldest() time.Duration {
	if t.filled {
		i := t.next // oldest sealed bin, about to be overwritten
		if t.open {
			i++ // position next holds the open (newest) bin instead
		}
		if i >= len(t.bins) {
			i = 0
		}
		return t.bins[i].start
	}
	if t.next == 0 && !t.open {
		return -1
	}
	return t.bins[0].start
}

// store is the three-tier time-series ring set.
type store struct {
	raw  tier
	secs tier
	mins tier
}

func (s *store) init(napps, raw, secs, mins int) {
	s.raw = makeTier(0, raw, napps)
	s.secs = makeTier(time.Second, secs, napps)
	s.mins = makeTier(time.Minute, mins, napps)
}

// reset clears all tiers and resizes the per-app columns (reconfiguration
// path; allocates).
func (s *store) reset(napps int) {
	s.raw = makeTier(0, len(s.raw.bins), napps)
	s.secs = makeTier(time.Second, len(s.secs.bins), napps)
	s.mins = makeTier(time.Minute, len(s.mins.bins), napps)
}

// pick selects the tier for a resolution, resolving ResAuto to the finest
// tier whose retention still covers from.
func (s *store) pick(res string, from time.Duration) (*tier, string) {
	switch res {
	case ResRaw:
		return &s.raw, ResRaw
	case ResSecond:
		return &s.secs, ResSecond
	case ResMinute:
		return &s.mins, ResMinute
	}
	if o := s.raw.oldest(); o >= 0 && o <= from {
		return &s.raw, ResRaw
	}
	if o := s.secs.oldest(); o >= 0 && o <= from {
		return &s.secs, ResSecond
	}
	if s.mins.oldest() >= 0 {
		return &s.mins, ResMinute
	}
	return &s.raw, ResRaw
}

// Downsample merges points into step-aligned windows: each input point is
// assigned to the window containing its start, and windows are summed
// account by account. The merge conserves every microjoule column
// (Σ input == Σ output for each account) and returns windows sorted by
// start with no overlaps — the invariants the fuzz target holds it to.
// A non-positive step returns the points sorted by start, unmerged.
func Downsample(points []Point, step time.Duration) []Point {
	out := append([]Point(nil), points...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartNS < out[j].StartNS })
	if step <= 0 || len(out) == 0 {
		return out
	}
	stepNS := step.Nanoseconds()
	merged := out[:0]
	for _, p := range out {
		start := p.StartNS
		if start < 0 {
			start = 0
		}
		aligned := start - start%stepNS
		if n := len(merged); n > 0 && merged[n-1].StartNS == aligned {
			m := &merged[n-1]
			m.Intervals += p.Intervals
			m.TotalUJ += p.TotalUJ
			m.UnattributedUJ += p.UnattributedUJ
			m.ExcludedUJ += p.ExcludedUJ
			m.LimitUJ += p.LimitUJ
			m.OvershootUJ += p.OvershootUJ
			if len(p.AppUJ) > len(m.AppUJ) {
				grown := make([]uint64, len(p.AppUJ))
				copy(grown, m.AppUJ)
				m.AppUJ = grown
			}
			for i, v := range p.AppUJ {
				m.AppUJ[i] += v
			}
			continue
		}
		p.StartNS = aligned
		p.DurNS = stepNS
		p.AppUJ = append([]uint64(nil), p.AppUJ...)
		merged = append(merged, p)
	}
	return merged
}
