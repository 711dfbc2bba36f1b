package svc

import (
	"time"

	"repro/internal/stats"
)

// wakeHeap is a min-heap of closed-loop wake times. It reimplements
// container/heap's sift algorithms over a concrete []time.Duration so
// pushes never box values into interfaces (the tick path must not
// allocate), while moving elements exactly as container/heap does —
// the original websearch model used container/heap, and bit-identical
// replay of it depends on identical ordering among equal keys.
type wakeHeap []time.Duration

func (h wakeHeap) len() int { return len(h) }

// min returns the earliest wake time; the heap must be non-empty.
func (h wakeHeap) min() time.Duration { return h[0] }

func (h *wakeHeap) push(at time.Duration) {
	*h = append(*h, at)
	s := *h
	j := len(s) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || s[j] >= s[i] {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *wakeHeap) pop() time.Duration {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s[j2] < s[j1] {
			j = j2
		}
		if s[j] >= s[i] {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	x := s[n]
	*h = s[:n]
	return x
}

// reqRing is a FIFO of requests backed by a ring so steady-state
// push/pop cycles never reallocate (a plain slice queue slides its
// window forward and forces append to re-grow periodically).
type reqRing struct {
	buf  []*request
	head int
	n    int
}

func (r *reqRing) len() int { return r.n }

func (r *reqRing) push(q *request) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = q
	r.n++
}

func (r *reqRing) pop() *request {
	if r.n == 0 {
		return nil
	}
	q := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return q
}

func (r *reqRing) grow() {
	size := len(r.buf) * 2
	if size < 16 {
		size = 16
	}
	nb := make([]*request, size)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf = nb
	r.head = 0
}

// latSample is one completion in the sliding window.
type latSample struct {
	at  time.Duration
	lat float64 // seconds
}

// latWindow is a fixed-capacity time-sliding ring of completion
// latencies: entries older than span are evicted, and when the ring is
// full the oldest entry is overwritten, so memory stays constant under
// any completion rate. Every latency in the ring is mirrored in an
// exact order-statistic multiset, kept in step on record, eviction and
// overwrite, so a percentile read never sorts.
type latWindow struct {
	span  time.Duration
	buf   []latSample
	head  int
	n     int
	order *stats.OrderWindow
}

func newLatWindow(span time.Duration, capacity int) latWindow {
	return latWindow{
		span:  span,
		buf:   make([]latSample, capacity),
		order: stats.NewOrderWindow(capacity),
	}
}

func (w *latWindow) count() int { return w.n }

func (w *latWindow) record(at time.Duration, lat float64) {
	w.evict(at)
	if w.n == len(w.buf) {
		w.dropOldest()
	}
	w.buf[(w.head+w.n)%len(w.buf)] = latSample{at: at, lat: lat}
	w.n++
	w.order.Insert(lat)
}

// evict drops entries that fell out of the window ending at now.
func (w *latWindow) evict(now time.Duration) {
	cut := now - w.span
	for w.n > 0 && w.buf[w.head].at < cut {
		w.dropOldest()
	}
}

func (w *latWindow) dropOldest() {
	if !w.order.Remove(w.buf[w.head].lat) {
		panic("svc: latency window out of step with its order statistics")
	}
	w.head = (w.head + 1) % len(w.buf)
	w.n--
}

// covered reports the span the retained entries stand for at now: the
// configured span (what has elapsed of it, early on), or, when the ring
// is full and capacity rather than age is what pushed older entries
// out, only the time back to the oldest one kept.
func (w *latWindow) covered(now time.Duration) time.Duration {
	span := w.span
	if now < span {
		span = now
	}
	if w.n == len(w.buf) {
		if kept := now - w.buf[w.head].at; kept > 0 && kept < span {
			span = kept
		}
	}
	return span
}

// percentile returns the p-th percentile of the entries live at now, or
// zero when there are none.
func (w *latWindow) percentile(now time.Duration, p float64) float64 {
	w.evict(now)
	return w.order.Percentile(p)
}

func (w *latWindow) mean() float64 {
	if w.n == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < w.n; i++ {
		sum += w.buf[(w.head+i)%len(w.buf)].lat
	}
	return sum / float64(w.n)
}
