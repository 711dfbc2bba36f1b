package svc

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"time"
)

// TraceHeader is the optional first-line magic of an arrival trace file.
const TraceHeader = "padtrace/1"

// MaxTraceArrivals bounds how many arrivals a trace file may expand to;
// beyond it ParseTrace fails rather than exhausting memory on a
// hostile "xN" burst line.
const MaxTraceArrivals = 1 << 22

// ParseTrace reads an arrival trace: one arrival offset per line,
// non-decreasing, replayed by an OpenTrace service.
//
// Format (padtrace/1):
//
//	# comments and blank lines are ignored
//	padtrace/1          ← optional header line
//	150ms               ← Go duration syntax, or
//	0.15                ← plain seconds, optionally
//	2.5s x40            ← repeated xN for an N-request burst
//
// Offsets are relative to the start of the replay and must not
// decrease from line to line.
func ParseTrace(r io.Reader) ([]time.Duration, error) {
	var out []time.Duration
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if lineNo == 1 && line == TraceHeader {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) > 2 {
			return nil, fmt.Errorf("trace line %d: want \"<offset> [xN]\", got %q", lineNo, line)
		}
		off, err := parseOffset(fields[0])
		if err != nil {
			return nil, fmt.Errorf("trace line %d: %w", lineNo, err)
		}
		repeat := 1
		if len(fields) == 2 {
			repeat, err = parseRepeat(fields[1])
			if err != nil {
				return nil, fmt.Errorf("trace line %d: %w", lineNo, err)
			}
		}
		if len(out) > 0 && off < out[len(out)-1] {
			return nil, fmt.Errorf("trace line %d: offset %v decreases below %v", lineNo, off, out[len(out)-1])
		}
		if len(out)+repeat > MaxTraceArrivals {
			return nil, fmt.Errorf("trace line %d: more than %d arrivals", lineNo, MaxTraceArrivals)
		}
		for i := 0; i < repeat; i++ {
			out = append(out, off)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return out, nil
}

func parseOffset(s string) (time.Duration, error) {
	// Plain number → seconds; anything else must be a Go duration.
	if sec, err := strconv.ParseFloat(s, 64); err == nil {
		if sec < 0 {
			return 0, fmt.Errorf("negative offset %q", s)
		}
		d := time.Duration(sec * float64(time.Second))
		if d < 0 { // overflow of a huge but finite float
			return 0, fmt.Errorf("offset %q overflows", s)
		}
		return d, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("bad offset %q", s)
	}
	if d < 0 {
		return 0, fmt.Errorf("negative offset %q", s)
	}
	return d, nil
}

func parseRepeat(s string) (int, error) {
	if !strings.HasPrefix(s, "x") {
		return 0, fmt.Errorf("bad repeat %q (want xN)", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad repeat %q (want xN, N ≥ 1)", s)
	}
	if n > MaxTraceArrivals {
		return 0, fmt.Errorf("repeat %q exceeds %d", s, MaxTraceArrivals)
	}
	return n, nil
}

// PoissonTrace materialises a rate schedule into a concrete arrival
// trace of the given span: the deterministic bridge between "run
// against a schedule" and "replay the same arrivals from a file".
func PoissonTrace(sched RateSchedule, span time.Duration, seed int64) ([]time.Duration, error) {
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	s := &Service{rng: rand.New(rand.NewSource(seed))}
	var out []time.Duration
	at := s.expInterval(sched.At(0))
	for at <= span {
		if len(out) >= MaxTraceArrivals {
			return nil, fmt.Errorf("trace: schedule expands past %d arrivals over %v", MaxTraceArrivals, span)
		}
		out = append(out, at)
		at += s.expInterval(sched.At(at))
	}
	return out, nil
}
