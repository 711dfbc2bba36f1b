// Package svc models multi-tenant latency services: named request
// queues co-located on disjoint core pools of one sim.Machine, each
// drained at the cores' effective frequency so power policies directly
// shape tail latency.
//
// The package generalises the closed-loop websearch model (Figures 5,
// 12, 13) into an open-loop latency-service subsystem:
//
//   - Closed arrivals reproduce the paper's N-user think/submit loop
//     bit-for-bit (Websearch builds that service; see TestGoldenSeries);
//   - OpenPoisson draws arrivals from a Poisson process whose rate can
//     follow a diurnal RateSchedule;
//   - OpenTrace replays arrival offsets parsed from a trace file
//     (see ParseTrace for the format).
//
// Every service keeps per-completion latency in a sliding window and
// reports p50/p90/p99, rate, queue depth, and drop/timeout counts as
// core.ServiceSLO telemetry the daemon attaches to policy snapshots.
// The window is a time-stamped ring mirrored in an exact order-statistic
// multiset (stats.OrderWindow), updated as completions enter and leave,
// so the percentiles the daemon reads every interval are the same bits
// a sort of the window would give, at the cost of a short walk, not a
// sort.
// Runs are deterministic for a given seed: the RNG consumption order is
// fixed (documented on tick) so a replay with the same config and tick
// sequence is bit-identical.
//
// The steady-state tick and telemetry paths are allocation-free:
// requests come from a free list, the queue is a ring, the latency
// window is a fixed ring over preallocated order-statistic blocks, and
// the closed-loop wake heap stores raw durations (no interface boxing);
// TestAdvanceZeroAlloc holds both to zero allocations.
package svc

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// InteractiveProfile is the default power/performance stand-in pinned to
// each serving core: moderately memory-bound, not AVX-heavy, effectively
// endless. It matches the paper's websearch profile except for the name.
var InteractiveProfile = workload.Profile{
	Name:              "interactive",
	BaseCPI:           1.0,
	MemStall:          0.15e-9,
	Activity:          0.95,
	TotalInstructions: 1e15,
}

// Websearch returns the paper's latency-sensitive workload (CloudSuite
// websearch, Figures 5, 12 and 13; the paper runs 300 users): a closed
// loop of users who alternate between thinking (mean 600 ms) and
// submitting a search request (mean 25e6 cycles) to the serving cores,
// with every latency since the last ResetStats kept for the percentiles.
func Websearch(users int, cores []int, seed int64) Config {
	profile := InteractiveProfile
	profile.Name = "websearch"
	return Config{
		Name:      "websearch",
		Cores:     cores,
		Seed:      seed,
		Arrivals:  Closed,
		Users:     users,
		RecordAll: true,
		Profile:   profile,
	}
}

// ArrivalKind selects a service's arrival process.
type ArrivalKind int

const (
	// Closed is the paper's closed-loop population: Users cycle between
	// exponential think time and submitting one request.
	Closed ArrivalKind = iota
	// OpenPoisson draws open-loop arrivals from a Poisson process whose
	// rate follows the service's RateSchedule.
	OpenPoisson
	// OpenTrace replays the arrival offsets in Config.Trace.
	OpenTrace
)

func (k ArrivalKind) String() string {
	switch k {
	case Closed:
		return "closed"
	case OpenPoisson:
		return "poisson"
	case OpenTrace:
		return "trace"
	}
	return fmt.Sprintf("ArrivalKind(%d)", int(k))
}

// Config parameterises one latency service.
type Config struct {
	Name  string
	Cores []int // serving cores, disjoint from every other service's
	Seed  int64 // per-service RNG seed

	Arrivals ArrivalKind

	// Closed-loop knobs.
	Users int // concurrent users (Closed only), each thinking thinkTime on average

	// Open-loop knobs.
	Rate  RateSchedule    // arrival rate (OpenPoisson)
	Trace []time.Duration // non-decreasing arrival offsets (OpenTrace)

	// MaxQueue bounds the number of waiting requests; arrivals beyond it
	// are dropped and counted. 0 means unbounded.
	MaxQueue int
	// Timeout abandons requests that waited longer than this before
	// reaching a core; expiries are counted. 0 means none.
	Timeout time.Duration

	// RecordAll additionally keeps every completed latency since the
	// last ResetStats — the closed-loop experiments' percentile source.
	RecordAll bool

	// SLO is the advisory p99 objective carried into telemetry
	// (core.ServiceSLO.Target). 0 means no SLO.
	SLO time.Duration

	// Profile is the power profile pinned to each serving core
	// (default InteractiveProfile).
	Profile workload.Profile
}

// Every service's fixed model parameters.
const (
	// thinkTime is a closed-loop user's mean exponential think time.
	thinkTime = 600 * time.Millisecond
	// serviceCycles is the mean exponential demand per request in
	// cycles, the websearch figure.
	serviceCycles = 25e6
	// window is the sliding latency-statistics span; windowCap caps the
	// samples kept in it, oldest overwritten first.
	window    = 10 * time.Second
	windowCap = 4096
)

func (c *Config) fill() {
	if c.Profile.Name == "" {
		c.Profile = InteractiveProfile
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("svc: service has no name")
	}
	if len(c.Cores) == 0 {
		return fmt.Errorf("svc: service %s has no serving cores", c.Name)
	}
	seen := make(map[int]bool)
	for _, core := range c.Cores {
		if core < 0 {
			return fmt.Errorf("svc: service %s has negative core %d", c.Name, core)
		}
		if seen[core] {
			return fmt.Errorf("svc: service %s lists core %d twice", c.Name, core)
		}
		seen[core] = true
	}
	switch c.Arrivals {
	case Closed:
		if c.Users <= 0 {
			return fmt.Errorf("svc: closed-loop service %s needs positive Users", c.Name)
		}
	case OpenPoisson:
		if err := c.Rate.Validate(); err != nil {
			return fmt.Errorf("svc: service %s: %w", c.Name, err)
		}
	case OpenTrace:
		for i := 1; i < len(c.Trace); i++ {
			if c.Trace[i] < c.Trace[i-1] {
				return fmt.Errorf("svc: service %s trace not sorted at entry %d", c.Name, i)
			}
		}
		if len(c.Trace) > 0 && c.Trace[0] < 0 {
			return fmt.Errorf("svc: service %s trace starts before zero", c.Name)
		}
	default:
		return fmt.Errorf("svc: service %s has unknown arrival kind %d", c.Name, int(c.Arrivals))
	}
	if c.MaxQueue < 0 {
		return fmt.Errorf("svc: service %s has negative MaxQueue", c.Name)
	}
	if c.Timeout < 0 {
		return fmt.Errorf("svc: service %s has negative Timeout", c.Name)
	}
	return nil
}

// request is one in-flight unit of work.
type request struct {
	submitted time.Duration
	remaining float64 // cycles of demand left
	next      *request
}

// Service is the running state of one latency service.
type Service struct {
	cfg Config
	m   *sim.Machine
	rng *rand.Rand
	now time.Duration

	thinkers    wakeHeap      // Closed
	nextArrival time.Duration // OpenPoisson
	traceIdx    int           // OpenTrace

	queue     reqRing
	inService []*request // one slot per serving core
	free      *request   // recycled request records

	arrived   uint64
	completed uint64
	dropped   uint64
	timedOut  uint64

	latencies []float64 // RecordAll log, seconds, since last ResetStats
	win       latWindow
}

func newService(cfg Config) (*Service, error) {
	cfg.fill()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Service{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		inService: make([]*request, len(cfg.Cores)),
		win:       newLatWindow(window, windowCap),
	}
	switch cfg.Arrivals {
	case Closed:
		// All users start thinking with staggered first submissions so
		// the warm-up is smooth. The draw order here is load-bearing:
		// it reproduces the original websearch model bit-for-bit.
		for i := 0; i < cfg.Users; i++ {
			s.thinkers.push(s.expDuration(thinkTime))
		}
	case OpenPoisson:
		s.nextArrival = s.expInterval(cfg.Rate.At(0))
	}
	return s, nil
}

func (s *Service) expDuration(mean time.Duration) time.Duration {
	return time.Duration(s.rng.ExpFloat64() * float64(mean))
}

// expInterval draws the gap to the next Poisson arrival at rate r
// (requests/second). A dead schedule (rate 0) is re-probed every 100 ms
// of virtual time without consuming randomness.
func (s *Service) expInterval(r float64) time.Duration {
	if r <= 0 {
		return 100 * time.Millisecond
	}
	return time.Duration(s.rng.ExpFloat64() / r * float64(time.Second))
}

// tick advances the service by dt using the machine's current effective
// core frequencies.
//
// RNG consumption order per tick (fixed; replays depend on it):
//  1. one serviceCycles draw per admitted arrival, in arrival order
//     (plus, Closed only, one thinkTime draw per queue-full drop);
//  2. one thinkTime draw per completion or timeout (Closed only), in
//     completion order across the core slots in Cores order.
func (s *Service) tick(dt time.Duration) {
	s.now += dt
	s.admit()
	// Each serving core drains cycles from its request, picking up new
	// work from the shared queue as requests complete. The tick is
	// converted to seconds once: Hertz.Cycles is the same product.
	sec := dt.Seconds()
	for slot, c := range s.cfg.Cores {
		budget := float64(s.m.EffectiveFreq(c)) * sec
		for budget > 0 {
			req := s.inService[slot]
			if req == nil {
				req = s.dequeue()
				if req == nil {
					break
				}
				s.inService[slot] = req
			}
			if req.remaining > budget {
				req.remaining -= budget
				budget = 0
				break
			}
			budget -= req.remaining
			s.complete(req)
			s.inService[slot] = nil
		}
	}
}

// admit moves every arrival due by now into the queue.
func (s *Service) admit() {
	switch s.cfg.Arrivals {
	case Closed:
		for s.thinkers.len() > 0 && s.thinkers.min() <= s.now {
			s.thinkers.pop()
			s.submit()
		}
	case OpenPoisson:
		for s.nextArrival <= s.now {
			at := s.nextArrival
			s.nextArrival = at + s.expInterval(s.cfg.Rate.At(at))
			s.submit()
		}
	case OpenTrace:
		for s.traceIdx < len(s.cfg.Trace) && s.cfg.Trace[s.traceIdx] <= s.now {
			s.traceIdx++
			s.submit()
		}
	}
}

func (s *Service) submit() {
	s.arrived++
	if s.cfg.MaxQueue > 0 && s.queue.len() >= s.cfg.MaxQueue {
		s.dropped++
		if s.cfg.Arrivals == Closed {
			// The rejected user goes back to thinking.
			s.thinkers.push(s.now + s.expDuration(thinkTime))
		}
		return
	}
	req := s.alloc()
	req.submitted = s.now
	req.remaining = s.rng.ExpFloat64() * serviceCycles
	s.queue.push(req)
}

// dequeue pops the next serviceable request, expiring timed-out waiters.
func (s *Service) dequeue() *request {
	for {
		req := s.queue.pop()
		if req == nil {
			return nil
		}
		if s.cfg.Timeout > 0 && s.now-req.submitted > s.cfg.Timeout {
			s.timedOut++
			if s.cfg.Arrivals == Closed {
				s.thinkers.push(s.now + s.expDuration(thinkTime))
			}
			s.recycle(req)
			continue
		}
		return req
	}
}

func (s *Service) complete(req *request) {
	lat := (s.now - req.submitted).Seconds()
	if s.cfg.RecordAll {
		s.latencies = append(s.latencies, lat)
	}
	s.completed++
	s.win.record(s.now, lat)
	if s.cfg.Arrivals == Closed {
		s.thinkers.push(s.now + s.expDuration(thinkTime))
	}
	s.recycle(req)
}

func (s *Service) alloc() *request {
	if q := s.free; q != nil {
		s.free = q.next
		q.next = nil
		return q
	}
	return &request{}
}

func (s *Service) recycle(q *request) {
	q.next = s.free
	s.free = q
}

// Name returns the service's configured name.
func (s *Service) Name() string { return s.cfg.Name }

// Completed reports requests finished so far.
func (s *Service) Completed() uint64 { return s.completed }

// Arrived reports requests submitted so far (including drops).
func (s *Service) Arrived() uint64 { return s.arrived }

// Dropped reports arrivals rejected by the queue bound.
func (s *Service) Dropped() uint64 { return s.dropped }

// TimedOut reports requests abandoned after waiting past Timeout.
func (s *Service) TimedOut() uint64 { return s.timedOut }

// QueueLen reports the requests currently waiting (not in service).
func (s *Service) QueueLen() int { return s.queue.len() }

// InFlight reports queued plus in-service requests.
func (s *Service) InFlight() int {
	n := s.queue.len()
	for _, r := range s.inService {
		if r != nil {
			n++
		}
	}
	return n
}

// LatencyPercentile returns the p-th percentile of completed latencies
// in seconds. With RecordAll it covers everything since the last
// ResetStats (the closed-loop experiments' view); otherwise it covers
// the sliding window.
func (s *Service) LatencyPercentile(p float64) float64 {
	if s.cfg.RecordAll {
		return stats.Percentile(s.latencies, p)
	}
	return s.WindowPercentile(p)
}

// WindowPercentile returns the p-th latency percentile in seconds over
// the sliding window.
func (s *Service) WindowPercentile(p float64) float64 {
	return s.win.percentile(s.now, p)
}

// MeanLatency returns the mean completed latency in seconds (RecordAll
// log when enabled, sliding window otherwise).
func (s *Service) MeanLatency() float64 {
	if s.cfg.RecordAll {
		return stats.Mean(s.latencies)
	}
	s.win.evict(s.now)
	return s.win.mean()
}

// WindowRate returns completions per second over the sliding window:
// the retained samples divided by the time they cover, which is shorter
// than window once windowCap is what evicts.
func (s *Service) WindowRate() float64 {
	s.win.evict(s.now)
	span := s.win.covered(s.now)
	if span <= 0 {
		return 0
	}
	return float64(s.win.count()) / span.Seconds()
}

// ResetStats clears the RecordAll latency log (for discarding warm-up)
// without disturbing the queueing state or the sliding window.
func (s *Service) ResetStats() { s.latencies = s.latencies[:0] }

// ServiceSLO condenses the service's current window into the snapshot
// telemetry form consumed by core.SLOFeedback.
func (s *Service) ServiceSLO() core.ServiceSLO {
	out := core.ServiceSLO{
		Name:     s.cfg.Name,
		Target:   s.cfg.SLO.Seconds(),
		Rate:     s.WindowRate(),
		QueueLen: s.queue.len(),
		Dropped:  s.dropped,
		Timeouts: s.timedOut,
	}
	out.P50 = s.win.percentile(s.now, 50)
	out.P90 = s.win.percentile(s.now, 90)
	out.P99 = s.win.percentile(s.now, 99)
	return out
}

// Model co-locates several services on one machine. Services' core
// pools must be disjoint; the model pins each service's power profile
// and advances every queue at the end of each of the machine's ticks.
type Model struct {
	m        *sim.Machine
	services []*Service
	byName   map[string]*Service
}

// NewModel builds the co-location model; call Attach to wire it to a
// machine.
func NewModel(cfgs ...Config) (*Model, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("svc: no services")
	}
	md := &Model{byName: make(map[string]*Service, len(cfgs))}
	owner := make(map[int]string)
	for _, cfg := range cfgs {
		s, err := newService(cfg)
		if err != nil {
			return nil, err
		}
		if _, dup := md.byName[s.cfg.Name]; dup {
			return nil, fmt.Errorf("svc: duplicate service name %s", s.cfg.Name)
		}
		for _, c := range s.cfg.Cores {
			if other, taken := owner[c]; taken {
				return nil, fmt.Errorf("svc: core %d claimed by both %s and %s", c, other, s.cfg.Name)
			}
			owner[c] = s.cfg.Name
		}
		md.byName[s.cfg.Name] = s
		md.services = append(md.services, s)
	}
	return md, nil
}

// Attach pins each service's power profile to its cores and puts the
// queueing model on the machine's calendar with OnTick.
func (md *Model) Attach(m *sim.Machine) error {
	if md.m != nil {
		return fmt.Errorf("svc: already attached")
	}
	for _, s := range md.services {
		for _, c := range s.cfg.Cores {
			if err := m.Pin(workload.NewInstance(s.cfg.Profile), c); err != nil {
				return fmt.Errorf("svc: %s: %w", s.cfg.Name, err)
			}
		}
	}
	md.m = m
	for _, s := range md.services {
		s.m = m
	}
	m.OnTick(md.Advance)
	return nil
}

// Advance ticks every service by dt. Attach wires it to the machine;
// it is exported so benchmarks can drive the queues directly.
func (md *Model) Advance(dt time.Duration) {
	for _, s := range md.services {
		s.tick(dt)
	}
}

// Services returns the model's services in construction order.
func (md *Model) Services() []*Service { return md.services }

// Service returns the named service, or nil.
func (md *Model) Service(name string) *Service { return md.byName[name] }

// FillServiceSLO appends every service's current window telemetry to
// dst in construction order and returns it. With a caller-owned dst of
// sufficient capacity the steady-state call is allocation-free; the
// daemon double-buffers it into policy snapshots.
func (md *Model) FillServiceSLO(dst []core.ServiceSLO) []core.ServiceSLO {
	for _, s := range md.services {
		dst = append(dst, s.ServiceSLO())
	}
	return dst
}
