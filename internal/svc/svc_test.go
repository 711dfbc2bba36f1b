package svc

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

func newMachine(t *testing.T) *sim.Machine {
	t.Helper()
	m, err := sim.New(platform.Skylake())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no name", Config{Cores: []int{0}, Users: 5}},
		{"no cores", Config{Name: "a", Users: 5}},
		{"dup core", Config{Name: "a", Cores: []int{0, 0}, Users: 5}},
		{"negative core", Config{Name: "a", Cores: []int{-1}, Users: 5}},
		{"closed no users", Config{Name: "a", Cores: []int{0}, Arrivals: Closed}},
		{"poisson bad sched", Config{Name: "a", Cores: []int{0}, Arrivals: OpenPoisson,
			Rate: RateSchedule{Base: 10, Points: []RatePoint{{At: 0, Mul: 1}}}}}, // points without period
		{"trace unsorted", Config{Name: "a", Cores: []int{0}, Arrivals: OpenTrace,
			Trace: []time.Duration{time.Second, time.Millisecond}}},
		{"bad kind", Config{Name: "a", Cores: []int{0}, Arrivals: ArrivalKind(99)}},
		{"negative maxqueue", Config{Name: "a", Cores: []int{0}, Users: 5, MaxQueue: -1}},
		{"negative timeout", Config{Name: "a", Cores: []int{0}, Users: 5, Timeout: -time.Second}},
	}
	for _, c := range cases {
		if _, err := NewModel(c.cfg); err == nil {
			t.Errorf("%s: NewModel accepted invalid config", c.name)
		}
	}
}

func TestModelValidation(t *testing.T) {
	if _, err := NewModel(); err == nil {
		t.Error("empty model accepted")
	}
	a := Config{Name: "a", Cores: []int{0}, Users: 5}
	b := Config{Name: "a", Cores: []int{1}, Users: 5}
	if _, err := NewModel(a, b); err == nil {
		t.Error("duplicate service names accepted")
	}
	b.Name = "b"
	b.Cores = []int{0}
	if _, err := NewModel(a, b); err == nil {
		t.Error("overlapping core pools accepted")
	}
	b.Cores = []int{1}
	md, err := NewModel(a, b)
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(t)
	if err := md.Attach(m); err != nil {
		t.Fatal(err)
	}
	if err := md.Attach(m); err == nil {
		t.Error("double attach accepted")
	}
	if md.Service("a") == nil || md.Service("b") == nil || md.Service("zzz") != nil {
		t.Error("Service lookup broken")
	}

	occupied := newMachine(t)
	if err := occupied.Pin(workload.NewInstance(workload.MustByName("gcc")), 0); err != nil {
		t.Fatal(err)
	}
	if md, err = NewModel(a); err != nil {
		t.Fatal(err)
	}
	if err := md.Attach(occupied); err == nil {
		t.Error("attach over an occupied core accepted")
	}
}

func TestWebsearchConfig(t *testing.T) {
	cfg := Websearch(300, []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, 1)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Arrivals != Closed || !cfg.RecordAll {
		t.Errorf("websearch must be a closed loop keeping every latency: %+v", cfg)
	}
	if err := cfg.Profile.Validate(); err != nil {
		t.Error(err)
	}
	if cfg.Profile.Name != "websearch" || cfg.Profile.AVX {
		t.Errorf("profile %+v, want non-AVX \"websearch\"", cfg.Profile)
	}
}

func TestInFlightBounded(t *testing.T) {
	cfg := Websearch(30, []int{0, 1}, 9)
	md, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(t)
	if err := md.Attach(m); err != nil {
		t.Fatal(err)
	}
	for _, c := range cfg.Cores {
		if err := m.SetRequest(c, m.Chip().Freq.Max()); err != nil {
			t.Fatal(err)
		}
	}
	s := md.Service("websearch")
	for i := 0; i < 5000; i++ {
		m.Step()
		if n := s.InFlight(); n > cfg.Users {
			t.Fatalf("in-flight %d exceeds closed-loop population %d", n, cfg.Users)
		}
	}
}

func TestPoissonServesAtRate(t *testing.T) {
	md, err := NewModel(Config{
		Name: "api", Cores: []int{0, 1, 2, 3}, Seed: 3,
		Arrivals: OpenPoisson, Rate: ConstantRate(300),
	})
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(t)
	if err := md.Attach(m); err != nil {
		t.Fatal(err)
	}
	m.Run(10 * time.Second)
	s := md.Service("api")
	got := float64(s.Completed())
	if got < 2700 || got > 3300 {
		t.Errorf("completed %v requests in 10s at 300/s, want ≈3000", got)
	}
	if s.Dropped() != 0 || s.TimedOut() != 0 {
		t.Errorf("unbounded queue dropped=%d timedOut=%d", s.Dropped(), s.TimedOut())
	}
	if p50, p99 := s.WindowPercentile(50), s.WindowPercentile(99); p50 <= 0 || p99 < p50 {
		t.Errorf("window percentiles p50=%g p99=%g", p50, p99)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed int64) (uint64, float64, float64) {
		md, err := NewModel(Config{
			Name: "api", Cores: []int{0, 1, 2}, Seed: seed,
			Arrivals: OpenPoisson, Rate: Diurnal(600, 4*time.Second),
			MaxQueue: 200, Timeout: 300 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		m := newMachine(t)
		if err := md.Attach(m); err != nil {
			t.Fatal(err)
		}
		m.SetPowerLimit(40)
		m.Run(8 * time.Second)
		s := md.Service("api")
		return s.Completed(), s.WindowPercentile(99), float64(s.Completed()) / s.now.Seconds()
	}
	c1, p1, th1 := run(11)
	c2, p2, th2 := run(11)
	if c1 != c2 || p1 != p2 || th1 != th2 {
		t.Errorf("same seed diverged: (%d %g %g) vs (%d %g %g)", c1, p1, th1, c2, p2, th2)
	}
	c3, p3, _ := run(12)
	if c1 == c3 && p1 == p3 {
		t.Error("different seeds produced identical runs")
	}
}

func TestDiurnalLoadShapesCompletions(t *testing.T) {
	period := 10 * time.Second
	md, err := NewModel(Config{
		Name: "api", Cores: []int{0, 1, 2, 3, 4, 5}, Seed: 5,
		Arrivals: OpenPoisson, Rate: Diurnal(350, period),
	})
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(t)
	if err := md.Attach(m); err != nil {
		t.Fatal(err)
	}
	s := md.Service("api")
	// Trough: first 20% of the period. Peak: 75–90%.
	m.Run(period * 20 / 100)
	trough := s.Completed()
	m.Run(period * 55 / 100)
	preP := s.Completed()
	m.Run(period * 15 / 100)
	peak := s.Completed() - preP
	// Peak window is 3/4 the trough window's length but a ~2.5× rate.
	if float64(peak) < 1.5*float64(trough) {
		t.Errorf("peak window completed %d, trough %d; diurnal shape not visible", peak, trough)
	}
}

func TestBoundedQueueDropsAndCounts(t *testing.T) {
	// 1 slow core against 2000 req/s: the queue bound must hold and
	// overflow must be counted, arrivals conserved.
	md, err := NewModel(Config{
		Name: "api", Cores: []int{0}, Seed: 9,
		Arrivals: OpenPoisson, Rate: ConstantRate(2000),
		MaxQueue: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(t)
	if err := md.Attach(m); err != nil {
		t.Fatal(err)
	}
	s := md.Service("api")
	for i := 0; i < 4000; i++ {
		m.Step()
		if q := s.QueueLen(); q > 50 {
			t.Fatalf("queue length %d exceeded MaxQueue 50", q)
		}
	}
	if s.Dropped() == 0 {
		t.Error("overloaded bounded queue recorded no drops")
	}
	if s.Arrived() != s.Completed()+s.Dropped()+uint64(s.InFlight())+s.TimedOut() {
		t.Errorf("request conservation: arrived=%d completed=%d dropped=%d inflight=%d timedout=%d",
			s.Arrived(), s.Completed(), s.Dropped(), s.InFlight(), s.TimedOut())
	}
}

func TestTimeoutExpiresWaiters(t *testing.T) {
	md, err := NewModel(Config{
		Name: "api", Cores: []int{0}, Seed: 9,
		Arrivals: OpenPoisson, Rate: ConstantRate(1500),
		Timeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(t)
	if err := md.Attach(m); err != nil {
		t.Fatal(err)
	}
	m.Run(4 * time.Second)
	s := md.Service("api")
	if s.TimedOut() == 0 {
		t.Error("saturated single-core service expired no waiters")
	}
}

func TestClosedLoopTimeoutReturnsUsersToThinking(t *testing.T) {
	// With a queue bound and timeouts, the closed-loop population must
	// not leak: users keep cycling, so completions keep accruing.
	md, err := NewModel(Config{
		Name: "ws", Cores: []int{0}, Seed: 4,
		Arrivals: Closed, Users: 80,
		MaxQueue: 10, Timeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(t)
	if err := md.Attach(m); err != nil {
		t.Fatal(err)
	}
	s := md.Service("ws")
	m.Run(5 * time.Second)
	mid := s.Completed()
	m.Run(5 * time.Second)
	if s.Dropped() == 0 && s.TimedOut() == 0 {
		t.Skip("load never saturated the bound; nothing to check")
	}
	if s.Completed() <= mid {
		t.Errorf("population leaked: completions stalled at %d after drops/timeouts", mid)
	}
	if got := s.InFlight(); got > 80 {
		t.Errorf("in-flight %d exceeds the closed-loop population", got)
	}
}

func TestTraceReplayArrivals(t *testing.T) {
	trace := []time.Duration{0, 10 * time.Millisecond, 10 * time.Millisecond, 500 * time.Millisecond, time.Second}
	md, err := NewModel(Config{
		Name: "replay", Cores: []int{0, 1}, Seed: 1,
		Arrivals: OpenTrace, Trace: trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(t)
	if err := md.Attach(m); err != nil {
		t.Fatal(err)
	}
	m.Run(2 * time.Second)
	s := md.Service("replay")
	if s.Arrived() != uint64(len(trace)) {
		t.Errorf("arrived %d, want %d", s.Arrived(), len(trace))
	}
	if s.Completed() != uint64(len(trace)) {
		t.Errorf("completed %d, want %d", s.Completed(), len(trace))
	}
}

func TestServiceSLOTelemetry(t *testing.T) {
	md, err := NewModel(
		Config{Name: "api", Cores: []int{0, 1, 2, 3}, Seed: 2,
			Arrivals: OpenPoisson, Rate: ConstantRate(600), SLO: 40 * time.Millisecond},
		Config{Name: "search", Cores: []int{4, 5}, Seed: 3,
			Arrivals: Closed, Users: 50},
	)
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(t)
	if err := md.Attach(m); err != nil {
		t.Fatal(err)
	}
	m.Run(5 * time.Second)
	out := md.FillServiceSLO(nil)
	if len(out) != 2 {
		t.Fatalf("got %d entries, want 2", len(out))
	}
	api, search := out[0], out[1]
	if api.Name != "api" || search.Name != "search" {
		t.Fatalf("order/name wrong: %+v", out)
	}
	if api.Target != 0.04 {
		t.Errorf("api target %g, want 0.04", api.Target)
	}
	if search.Target != 0 {
		t.Errorf("search has no SLO but target %g", search.Target)
	}
	for _, e := range out {
		if e.P50 <= 0 || e.P90 < e.P50 || e.P99 < e.P90 {
			t.Errorf("%s: percentile ordering broken: %+v", e.Name, e)
		}
		if e.Rate <= 0 {
			t.Errorf("%s: zero window rate", e.Name)
		}
	}
}

func TestSlidingWindowForgets(t *testing.T) {
	var w latWindow
	w = newLatWindow(time.Second, 8)
	w.record(100*time.Millisecond, 5.0) // will age out
	for i := 0; i < 4; i++ {
		w.record(2*time.Second+time.Duration(i)*time.Millisecond, 0.01)
	}
	w.evict(2 * time.Second)
	if w.count() != 4 {
		t.Fatalf("window holds %d entries, want 4", w.count())
	}
	if max := w.percentile(2*time.Second, 100); max != 0.01 {
		t.Errorf("window max %g, want 0.01: aged-out sample still in the order statistics", max)
	}
	// Capacity overwrite: 20 more entries at the same time keep only 8.
	for i := 0; i < 20; i++ {
		w.record(2*time.Second, 1.0)
	}
	if w.count() != 8 || w.order.Len() != 8 {
		t.Errorf("window grew to %d (order statistics %d) past its capacity 8", w.count(), w.order.Len())
	}
	if min := w.percentile(2*time.Second, 0); min != 1.0 {
		t.Errorf("window min %g, want 1: overwritten sample still in the order statistics", min)
	}
}

func TestResetStatsKeepsQueueState(t *testing.T) {
	md, err := NewModel(Config{Name: "ws", Cores: []int{0}, Seed: 1,
		Arrivals: Closed, Users: 60, RecordAll: true})
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(t)
	if err := md.Attach(m); err != nil {
		t.Fatal(err)
	}
	m.Run(2 * time.Second)
	s := md.Service("ws")
	before := s.InFlight()
	s.ResetStats()
	if s.LatencyPercentile(90) != 0 {
		t.Error("latency record survived ResetStats")
	}
	if s.InFlight() != before {
		t.Error("ResetStats disturbed queue state")
	}
	if s.Completed() == 0 {
		t.Error("completions lost")
	}
}

func TestThrottlingRaisesTail(t *testing.T) {
	run := func(limit units.Watts) float64 {
		md, err := NewModel(Config{
			Name: "api", Cores: []int{0, 1, 2, 3, 4, 5, 6, 7}, Seed: 2,
			Arrivals: OpenPoisson, Rate: ConstantRate(1500),
		})
		if err != nil {
			t.Fatal(err)
		}
		m := newMachine(t)
		if err := md.Attach(m); err != nil {
			t.Fatal(err)
		}
		m.SetPowerLimit(limit)
		m.Run(8 * time.Second)
		return md.Service("api").WindowPercentile(99)
	}
	fast, slow := run(95), run(30)
	if slow <= fast*1.2 {
		t.Errorf("p99 under 30 W (%gs) should be well above 95 W (%gs)", slow, fast)
	}
}

// TestAdvanceZeroAlloc proves the steady-state tick and telemetry path
// never allocates. The mixed row covers every arrival kind's bookkeeping
// (drops, timeouts, the closed-loop wake heap); the 32-core row is four
// co-located open-loop tenants at 40 req/s per core, advanced through one
// whole Window first so every sliding window is at its steady occupancy
// and completions evict as fast as they record.
func TestAdvanceZeroAlloc(t *testing.T) {
	tenants := make([]Config, 4)
	for i := range tenants {
		cores := make([]int, 8)
		for j := range cores {
			cores[j] = i*len(cores) + j
		}
		tenants[i] = Config{Name: fmt.Sprintf("svc%d", i), Cores: cores, Seed: int64(i + 1),
			Arrivals: OpenPoisson, Rate: ConstantRate(40 * float64(len(cores))), SLO: 50 * time.Millisecond}
	}
	for _, tc := range []struct {
		name string
		chip platform.Chip
		warm time.Duration
		cfgs []Config
	}{
		{"mixed/cores=10", platform.Skylake(), 3 * time.Second, []Config{
			{Name: "api", Cores: []int{0, 1, 2, 3}, Seed: 2,
				Arrivals: OpenPoisson, Rate: Diurnal(900, 2*time.Second), MaxQueue: 256, SLO: 50 * time.Millisecond},
			{Name: "ws", Cores: []int{4, 5, 6}, Seed: 3,
				Arrivals: Closed, Users: 120, Timeout: 500 * time.Millisecond},
		}},
		{"open/cores=32", platform.ScaleSocket(platform.Skylake(), 32), 10 * time.Second, tenants},
	} {
		t.Run(tc.name, func(t *testing.T) {
			md, err := NewModel(tc.cfgs...)
			if err != nil {
				t.Fatal(err)
			}
			m, err := sim.New(tc.chip)
			if err != nil {
				t.Fatal(err)
			}
			if err := md.Attach(m); err != nil {
				t.Fatal(err)
			}
			m.Run(tc.warm) // warm rings, free lists, and windows
			buf := md.FillServiceSLO(nil)
			n := testing.AllocsPerRun(200, func() {
				md.Advance(time.Millisecond)
				buf = md.FillServiceSLO(buf[:0])
			})
			if n != 0 {
				t.Errorf("allocs per tick = %v, want 0", n)
			}
		})
	}
}
