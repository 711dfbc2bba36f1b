package ledger

import (
	"fmt"
	"net/url"
	"strconv"
	"time"
)

// Query is one parsed /debug/energy request.
type Query struct {
	// From and To bound the range on the run clock (bin starts in
	// [From, To]); To == 0 leaves the range open-ended.
	From, To time.Duration
	// Res selects the tier: raw, 1s, 1m, or auto (default), which picks
	// the finest tier whose retention still covers From.
	Res string
	// Step, when positive, downsamples the selected tier's points into
	// step-aligned windows.
	Step time.Duration
	// Limit, when positive, keeps only the newest Limit points.
	Limit int
}

// ParseQuery parses /debug/energy URL parameters:
//
//	from, to  range bounds — bare seconds ("12.5") or Go durations ("90s")
//	res       raw | 1s | 1m | auto (default auto)
//	step      merge window, same syntax as from/to
//	limit     maximum points returned, newest kept
//
// Every error is a client error (HTTP 400).
func ParseQuery(v url.Values) (Query, error) {
	q := Query{Res: ResAuto}
	var err error
	if s := v.Get("from"); s != "" {
		if q.From, err = parseRunTime(s); err != nil {
			return Query{}, fmt.Errorf("ledger: from: %w", err)
		}
	}
	if s := v.Get("to"); s != "" {
		if q.To, err = parseRunTime(s); err != nil {
			return Query{}, fmt.Errorf("ledger: to: %w", err)
		}
		if q.To == 0 {
			// An explicit to=0 asks for the empty range ending at the
			// origin, which "open-ended" must not swallow: nudge to the
			// smallest closed bound.
			q.To = 1
		}
	}
	if q.To > 0 && q.From > q.To {
		return Query{}, fmt.Errorf("ledger: from %v past to %v", q.From, q.To)
	}
	switch s := v.Get("res"); s {
	case "", ResAuto:
		q.Res = ResAuto
	case ResRaw, ResSecond, ResMinute:
		q.Res = s
	default:
		return Query{}, fmt.Errorf("ledger: res %q: want raw, 1s, 1m, or auto", s)
	}
	if s := v.Get("step"); s != "" {
		if q.Step, err = parseRunTime(s); err != nil {
			return Query{}, fmt.Errorf("ledger: step: %w", err)
		}
	}
	if s := v.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return Query{}, fmt.Errorf("ledger: limit %q: want a non-negative integer", s)
		}
		q.Limit = n
	}
	return q, nil
}

// RangeResult is the /debug/energy payload: the selected resolution's
// points (AppUJ columns in Apps order) plus the cumulative summary.
type RangeResult struct {
	Resolution string   `json:"resolution"`
	Apps       []string `json:"apps"`
	Points     []Point  `json:"points"`
	Summary    Summary  `json:"summary"`
}

// Range serves one parsed query against the store. Allocates; query path
// only — Append keeps running concurrently.
func (l *Ledger) Range(q Query) (RangeResult, error) {
	if l == nil {
		return RangeResult{}, fmt.Errorf("ledger: not configured")
	}
	if q.Res == "" {
		q.Res = ResAuto
	}
	l.mu.Lock()
	t, res := l.store.pick(q.Res, q.From)
	points := t.snapshotRange(q.From, q.To)
	names := make([]string, len(l.apps))
	for i := range l.apps {
		names[i] = l.apps[i].spec.Name
	}
	summary := l.summarizeLocked() // under the same lock: as new as the points
	l.mu.Unlock()
	if q.Step > 0 {
		points = Downsample(points, q.Step)
	}
	if q.Limit > 0 && len(points) > q.Limit {
		points = points[len(points)-q.Limit:]
	}
	return RangeResult{
		Resolution: res,
		Apps:       names,
		Points:     points,
		Summary:    summary,
	}, nil
}
