// Package clock is the one calendar of timed entries and the two clocks the
// control plane reads: Wall, the host's, and Virtual, which stands still
// until it is advanced.
package clock

import (
	"context"
	"math"
	"slices"
	"sync"
	"time"
)

// Clock is where a coordinator or an agent reads the time and sets its
// timers and deadlines.
type Clock interface {
	Now() time.Time
	// Until is t.Sub(Now()); on the wall clock, for a t read from Now, it
	// reads the monotonic clock alone.
	Until(t time.Time) time.Duration
	AfterFunc(d time.Duration, fn func()) Timer
	WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc)
}

// Timer stops what AfterFunc scheduled, reporting whether it was pending.
type Timer interface{ Stop() bool }

// Wall is the host clock; its Timer is the *time.Timer.
type Wall struct{}

func (Wall) Now() time.Time { return time.Now() }

func (Wall) Until(t time.Time) time.Duration { return time.Until(t) }

func (Wall) AfterFunc(d time.Duration, fn func()) Timer { return time.AfterFunc(d, fn) }

func (Wall) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, d)
}

// Calendar is a list of timed entries, not safe for concurrent use. Fire
// runs those due by its time in registration order, whatever time each was
// due at; one added meanwhile waits for the next Fire.
type Calendar struct {
	entries []entry
	next    time.Duration // no entry is due before it
}

// entry is due at the first Fire at or after due; an Every is then due
// period after that Fire, an At (once) is dropped.
type entry struct {
	due, last, period time.Duration
	once              bool
	fn                func(elapsed time.Duration)
}

// At schedules fn for the first Fire at or after t.
func (c *Calendar) At(t time.Duration, fn func()) {
	c.entries = append(c.entries, entry{due: t, once: true, fn: func(time.Duration) { fn() }})
	c.next = min(c.next, t)
}

// Every schedules fn for each Fire at which at least period has passed
// since it last fired (or since now), and passes it that time.
func (c *Calendar) Every(now, period time.Duration, fn func(elapsed time.Duration)) {
	c.entries = append(c.entries, entry{due: now + period, last: now, period: period, fn: fn})
	c.next = min(c.next, now+period)
}

// Next is the time before which a Fire runs nothing.
func (c *Calendar) Next() time.Duration { return c.next }

// Fire runs the entries due at now.
func (c *Calendar) Fire(now time.Duration) {
	for i := range len(c.entries) {
		if e := c.entries[i]; now >= e.due {
			c.entries[i].last, c.entries[i].due = now, now+e.period
			if e.once {
				c.entries[i].fn = nil
			}
			e.fn(now - e.last)
		}
	}
	c.entries = slices.DeleteFunc(c.entries, func(e entry) bool { return e.fn == nil })
	c.next = math.MaxInt64
	for _, e := range c.entries {
		c.next = min(c.next, e.due)
	}
}

// Virtual is a Clock over a Calendar that stands still until Advance moves
// it, safe for concurrent use. What it fires runs on Advance's goroutine
// without the clock's lock: it may set timers, but not advance the clock.
type Virtual struct {
	adv, mu sync.Mutex
	start   time.Time
	now     time.Duration
	cal     Calendar
}

// NewVirtual returns a virtual clock that reads start.
func NewVirtual(start time.Time) *Virtual { return &Virtual{start: start} }

func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.start.Add(v.now)
}

func (v *Virtual) Until(t time.Time) time.Duration { return t.Sub(v.Now()) }

// AfterFunc schedules fn for when the clock has advanced d. A stopped call
// keeps its entry until then and does nothing.
func (v *Virtual) AfterFunc(d time.Duration, fn func()) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	done := false // fired or stopped, under mu
	v.cal.At(v.now+d, func() {
		if !done {
			done = true
			v.mu.Unlock()
			defer v.mu.Lock()
			fn()
		}
	})
	return stopFunc(func() bool {
		v.mu.Lock()
		defer v.mu.Unlock()
		pending := !done
		done = true
		return pending
	})
}

type stopFunc func() bool

func (f stopFunc) Stop() bool { return f() }

// WithTimeout is ctx, cancelled once the clock has advanced d (a cancel
// before then leaves a call that does nothing). It has no Deadline, which
// host code (a dialer) would read as a wall-clock time.
func (v *Virtual) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(ctx)
	v.AfterFunc(d, cancel)
	return ctx, cancel
}

// Advance moves the clock d forward, stopping at each due time on the way
// to fire what is due there.
func (v *Virtual) Advance(d time.Duration) {
	v.adv.Lock()
	defer v.adv.Unlock()
	v.mu.Lock()
	defer v.mu.Unlock()
	end := v.now + d
	for v.cal.Next() <= end {
		v.now = max(v.now, v.cal.Next())
		v.cal.Fire(v.now)
	}
	v.now = end
}
