package svc

import (
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/stats"
)

// ringOracle is the reference for the window's percentiles: the
// latencies of the ring entries still inside the window, sorted afresh.
func ringOracle(s *Service) []float64 {
	w := &s.win
	var xs []float64
	for i := 0; i < w.n; i++ {
		if e := w.buf[(w.head+i)%len(w.buf)]; e.at >= s.now-w.span {
			xs = append(xs, e.lat)
		}
	}
	sort.Float64s(xs)
	return xs
}

// TestWindowPercentilesMatchRingOracle drives every arrival kind through
// the two ways a sample leaves the window — overwritten because a tiny
// capacity is full, aged out during an idle gap longer than its span
// until the window is empty and refills — and holds the telemetry to
// the oracle bit for bit on every tick.
func TestWindowPercentilesMatchRingOracle(t *testing.T) {
	var bursts []time.Duration
	for b := 0; b < 8; b++ {
		for i := 0; i < 60; i++ {
			bursts = append(bursts, time.Duration(b)*500*time.Millisecond+time.Duration(i)*time.Millisecond)
		}
	}
	md, err := NewModel(
		// 150 users on two cores complete far more than 4 requests per 40 ms.
		Config{Name: "closed-cap", Cores: []int{0, 1}, Seed: 1, Arrivals: Closed, Users: 150},
		// One user thinking 600 ms leaves a 50 ms window empty between requests.
		Config{Name: "closed-gap", Cores: []int{2}, Seed: 2, Arrivals: Closed, Users: 1},
		// 300 ms at 400 req/s, then 700 ms of one arrival per 100 ms (the
		// dead-schedule re-probe), every second.
		Config{Name: "poisson", Cores: []int{3, 4, 5, 6}, Seed: 3, Arrivals: OpenPoisson,
			Rate: RateSchedule{Base: 400, Period: time.Second, Points: []RatePoint{
				{At: 0, Mul: 1}, {At: 300 * time.Millisecond, Mul: 1},
				{At: 301 * time.Millisecond, Mul: 0}, {At: 999 * time.Millisecond, Mul: 0}}}},
		// 60 arrivals in 60 ms, every 500 ms.
		Config{Name: "trace", Cores: []int{7, 8}, Seed: 4, Arrivals: OpenTrace, Trace: bursts},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		name     string
		span     time.Duration
		capacity int
	}{
		{"closed-cap", 40 * time.Millisecond, 4}, {"closed-gap", 50 * time.Millisecond, 4},
		{"poisson", 60 * time.Millisecond, 16}, {"trace", 100 * time.Millisecond, 16},
	} {
		md.Service(w.name).win = newLatWindow(w.span, w.capacity) // before any completion
	}
	m := newMachine(t)
	if err := md.Attach(m); err != nil {
		t.Fatal(err)
	}
	type seen struct{ overwrote, emptied, refilled bool }
	saw := make([]seen, len(md.Services()))
	for tick := 0; tick < 4500; tick++ {
		m.Step()
		for i, s := range md.Services() {
			before := s.win.n
			slo := s.ServiceSLO()
			want := ringOracle(s)
			if len(want) != s.win.count() || len(want) != s.win.order.Len() {
				t.Fatalf("tick %d %s: oracle %d live samples, ring %d, order statistics %d",
					tick, s.Name(), len(want), s.win.count(), s.win.order.Len())
			}
			for _, c := range []struct {
				p   float64
				got float64
			}{{50, slo.P50}, {90, slo.P90}, {99, slo.P99},
				{99, s.WindowPercentile(99)}, {0, s.LatencyPercentile(0)}, {100, s.WindowPercentile(100)}} {
				w := stats.PercentileSorted(want, c.p)
				if math.Float64bits(c.got) != math.Float64bits(w) {
					t.Fatalf("tick %d %s p%g over %d samples: got %v, oracle %v", tick, s.Name(), c.p, len(want), c.got, w)
				}
			}
			st := &saw[i]
			if before == len(s.win.buf) && s.Completed() > uint64(len(s.win.buf)) {
				st.overwrote = true
			}
			if len(want) == 0 && s.Completed() > 0 {
				st.emptied = true
			}
			if st.emptied && len(want) > 0 {
				st.refilled = true
			}
		}
	}
	// The test is only worth its name while the configs still reach both paths.
	for i, s := range md.Services() {
		wantOverwrite := s.Name() != "closed-gap"
		wantGap := s.Name() != "closed-cap"
		if wantOverwrite && !saw[i].overwrote {
			t.Errorf("%s never filled its %d-sample ring", s.Name(), len(s.win.buf))
		}
		if wantGap && !(saw[i].emptied && saw[i].refilled) {
			t.Errorf("%s: emptied %v, refilled %v; want both", s.Name(), saw[i].emptied, saw[i].refilled)
		}
	}
}

// TestWindowRateWhenCapEvicts pins the rate display when the capacity, not
// the span, is what pushes samples out: 300 req/s over a 2 s window wants
// 600 slots, the ring has 128, and dividing those 128 by the full 2 s
// reported 64 req/s.
func TestWindowRateWhenCapEvicts(t *testing.T) {
	md, err := NewModel(Config{
		Name: "api", Cores: []int{0, 1, 2, 3}, Seed: 5,
		Arrivals: OpenPoisson, Rate: ConstantRate(300),
	})
	if err != nil {
		t.Fatal(err)
	}
	md.Service("api").win = newLatWindow(2*time.Second, 128)
	m := newMachine(t)
	if err := md.Attach(m); err != nil {
		t.Fatal(err)
	}
	s := md.Service("api")
	m.Run(200 * time.Millisecond)
	if s.win.count() == len(s.win.buf) {
		t.Fatalf("ring already full after 200 ms")
	}
	if got, want := s.WindowRate(), float64(s.win.count())/0.2; math.Abs(got-want) > 1e-9*want {
		t.Errorf("before the ring fills: rate %g, want count/elapsed = %g", got, want)
	}
	m.Run(3 * time.Second)
	if s.win.count() != len(s.win.buf) {
		t.Fatalf("ring holds %d of %d: cap is not what evicts", s.win.count(), len(s.win.buf))
	}
	if got := s.WindowRate(); got < 225 || got > 375 {
		t.Errorf("window rate %g req/s at 300 req/s offered, want within 25%%", got)
	}
	if got := s.ServiceSLO().Rate; got != s.WindowRate() {
		t.Errorf("ServiceSLO rate %g differs from WindowRate %g", got, s.WindowRate())
	}
}
