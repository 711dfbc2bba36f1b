// Package cluster implements a machine-room power coordinator over the
// per-node power-delivery daemons — the two-level hierarchy the paper's
// related work describes (Dynamo, SmoothOperator, No-"Power"-Struggles):
// a room-level budget is split across nodes, each node's share is enforced
// by its own differential-power-delivery daemon, and the coordinator
// periodically shifts budget from nodes with headroom to nodes whose limit
// binds. The paper's daemon is exactly the "node-level primitive" such
// systems need; this package closes the loop above it.
//
// The coordinator (NewOverTransports) talks to each node's powerapi agent
// through the Transport interface: in-process (AgentTransport) for
// simulated nodes stepped in lockstep on a virtual clock, or over the wire
// to remote powerd daemons, as cmd/powercoord does. Either way it fans out
// concurrently under one deadline per wave, leaves a failed call to the
// next round, quarantines repeatedly-failing nodes, and grants leases, so a
// partitioned node reverts to a safe cap instead of holding a stale share of
// the room budget.
package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/powerapi"
	"repro/internal/tracing"
	"repro/internal/units"
)

// bindMargin is how close, fractionally, measured power must sit to a
// node's limit for the node to count as constrained and bid for more.
const bindMargin = 0.05

// Config parameterises the coordinator.
type Config struct {
	// Budget is the total power available to the node set.
	Budget units.Watts

	// Interval is the reallocation period (default 5 s — coordinators run
	// slower than node daemons, as in Dynamo's hierarchy).
	Interval time.Duration

	// FloorFraction is each node's guaranteed share of an equal split
	// (default 0.5): a node never drops below
	// FloorFraction * Budget / numNodes, so no node starves while another
	// hoards. The floor doubles as the lease fallback cap: the sum of
	// floors never exceeds the budget, so even a fully partitioned room
	// stays within it.
	FloorFraction float64

	// FloorBudget, when set, derives the per-node floors (and lease
	// fallback caps) from this fixed figure instead of the current
	// Budget: floor = FloorBudget × FloorFraction / n. A tier whose own
	// budget is a revocable lease sets this to its fallback cap, so the
	// floors it promises downward stay safe under any budget the tier
	// can be held to — which is what lets SetBudget move Budget without
	// moving the floors beneath it. Required for SetBudget.
	FloorBudget units.Watts

	// RoundBase offsets this coordinator's round IDs (round = RoundBase
	// + counter), so the coordinators of one tier tree mint disjoint ID
	// ranges and their trace logs merge without collision. Use
	// tracing.RoundIDBase(name).
	RoundBase uint64

	// PriorLedger seeds the acknowledged-grant ledger by node name when
	// a coordinator is rebuilt over changed membership (Coordinator.
	// LeaseLedger exports it). The initial grant wave then phases
	// shrinks before grows against what surviving nodes actually hold,
	// instead of assuming a fresh room and transiently over-committing
	// the budget.
	PriorLedger map[string]LedgerEntry

	// LeaseTTL is how long a budget grant stays valid without renewal;
	// a node that stops hearing from the coordinator reverts to its floor
	// when it elapses. Default 3×Interval.
	LeaseTTL time.Duration

	// NodeTimeout bounds each wave of node calls (default 2 s). A call
	// is one attempt: a failed node is called again by the next round.
	NodeTimeout time.Duration

	// Deprecated: has no effect; a failed call waits for the next round.
	// Only benchmark/ still sets it; Re-cut the ruler (e) deletes it.
	Retries int

	// QuarantineAfter is how many consecutive steps with a failed call to
	// a node — its report or its grant — the coordinator tolerates before
	// it quarantines the node: its budget reservation decays to the floor
	// once its lease expires. It is re-admitted after the first step in
	// which every call to it succeeded. Default 3.
	QuarantineAfter int

	// Metrics optionally instruments the coordinator: reallocation
	// counts, budget moved, per-node limit gauges, transport failures,
	// and quarantine state.
	Metrics *metrics.Registry

	// Tracer optionally records a span tree per reallocation round: the
	// concurrent report fan-out, the plan, and every grant, each stamped
	// with the node it touched. The round ID is propagated to nodes over
	// the powerapi envelope so node-side records join the coordinator's
	// by ID (tracing.Merge). Nil disables tracing at zero cost.
	Tracer *tracing.Tracer

	// Fleet optionally aggregates the reports every round collects —
	// power against budget, per-app watts, RPC latencies, stragglers,
	// piggybacked node metrics — into the rollups /debug/fleet serves.
	Fleet *Fleet

	// Clock sets the round and grant deadlines, the pollers' retirement
	// and every lease deadline. Nil is the wall clock.
	Clock clock.Clock
}

func (c *Config) fill(n int) error {
	if c.Budget <= 0 {
		return fmt.Errorf("cluster: budget must be positive")
	}
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.FloorFraction <= 0 || c.FloorFraction > 1 {
		c.FloorFraction = 0.5
	}
	if c.FloorBudget < 0 {
		return fmt.Errorf("cluster: negative floor budget %v", c.FloorBudget)
	}
	if c.FloorBudget > c.Budget {
		return fmt.Errorf("cluster: floor budget %v exceeds budget %v", c.FloorBudget, c.Budget)
	}
	if n == 0 {
		return fmt.Errorf("cluster: no nodes")
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 3 * c.Interval
	}
	if c.NodeTimeout <= 0 {
		c.NodeTimeout = 2 * time.Second
	}
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = 3
	}
	if c.Clock == nil {
		c.Clock = clock.Wall{}
	}
	return nil
}

// LedgerEntry is one node's acknowledged grant: the cap the
// coordinator can prove the node enforces until the lease deadline.
type LedgerEntry struct {
	Granted units.Watts
	Until   time.Time
}

// Coordinator redistributes a power budget across nodes reached through
// Transports.
type Coordinator struct {
	cfg   Config
	ts    []Transport
	round atomic.Uint64

	// stepMu serializes whole rounds against budget changes, so a
	// parent's cascaded SetBudget never interleaves with this tier's
	// own grant wave.
	stepMu sync.Mutex
	sc     roundScratch

	// The pollers: one goroutine per non-Local transport, kept across
	// rounds so the stack a poll grows on its way down the HTTP client is
	// grown once. Guarded by stepMu. Nobody has to stop them: they retire
	// once no round has run for pollerIdleTimeouts × NodeTimeout, and the
	// next Step starts new ones.
	polls     chan pollJob
	pollWG    sync.WaitGroup
	seenRound uint64 // rounds run when retirePollers last looked

	mu         sync.Mutex
	limits     []units.Watts // current target limit per node
	granted    []units.Watts // last acknowledged grant per node
	fbGranted  []units.Watts // fallback cap carried by the last grant per node
	leaseUntil []time.Time   // coordinator-side lease deadline per node
	lastPower  []units.Watts // power from each node's last good report
	lastMax    []units.Watts // max watts from each node's last good report
	// What Aggregate reads of each node's last status frame, copied out of
	// the borrowed Report.Status. Without a Tier both counts stay 0.
	lastExtra  []int // leaves under the node beyond its own one: Tier.Nodes-1
	lastDepth  []int // Tier.Depth+1
	lastEnergy []*powerapi.EnergyStatus
	moves      int
	fails      []int  // consecutive steps with a failed call, per node
	quar       []bool // quarantined nodes

	// Optional instrumentation; nil handles no-op.
	mRealloc    *metrics.Counter
	mMovedWatts *metrics.Counter
	mNodeLimit  *metrics.GaugeVec
	mTotalPower *metrics.Gauge
	mFailures   *metrics.CounterVec
	mQuar       *metrics.GaugeVec
}

// pollerIdleTimeouts is how many NodeTimeouts without a round retire the
// pollers: long against any cadence at which a stack is worth keeping, short
// enough that a coordinator nobody steps any more is soon garbage.
const pollerIdleTimeouts = 2

// pollJob is one report of one round, handed to a poller.
type pollJob struct {
	wave context.Context
	rb   *tracing.RoundBuilder
	i    int
}

// roundScratch is the per-round working set, sized to the node count once
// and reused by every Step (stepMu serialises them). Nothing in it outlives
// the round that filled it, except failed: a grant wave outside a round
// (construction, SetBudget) leaves its failures to the next Step.
type roundScratch struct {
	reports []Report
	errs    []error
	obs     []NodeObservation // RPC and Finish filled only when a Fleet consumes them
	began   time.Time         // the round's start, read only for a Fleet
	healthy []bool
	failed  []bool // a call to the node failed since the last Step settled
	targets []units.Watts
	bids    []float64
	caps    []float64
	alloc   []float64
	idx     []int
	grows   []int
	renews  []int
}

func newRoundScratch(n int) roundScratch {
	return roundScratch{
		reports: make([]Report, n),
		errs:    make([]error, n),
		obs:     make([]NodeObservation, n),
		healthy: make([]bool, n),
		failed:  make([]bool, n),
		targets: make([]units.Watts, 0, n),
		bids:    make([]float64, 0, n),
		caps:    make([]float64, 0, n),
		alloc:   make([]float64, 0, n),
		idx:     make([]int, 0, n),
		grows:   make([]int, 0, n),
		renews:  make([]int, 0, n),
	}
}

// NewOverTransports builds a coordinator over node transports (in-process
// AgentTransports, or powerapi clients speaking to remote powerd daemons)
// and attempts the initial equal split. Unreachable nodes do not abort
// construction: they accumulate failures like any other step and receive
// their grant when they come back.
func NewOverTransports(ts []Transport, cfg Config) (*Coordinator, error) {
	if err := cfg.fill(len(ts)); err != nil {
		return nil, err
	}
	for i, t := range ts {
		if t == nil {
			return nil, fmt.Errorf("cluster: transport %d is nil", i)
		}
	}
	return newCoordinator(ts, cfg)
}

func newCoordinator(ts []Transport, cfg Config) (*Coordinator, error) {
	n := len(ts)
	floorBase := cfg.Budget
	if cfg.FloorBudget > 0 {
		floorBase = cfg.FloorBudget
	}
	var floorSum units.Watts
	for range ts {
		floorSum += floorBase * units.Watts(cfg.FloorFraction) / units.Watts(n)
	}
	if floorSum > cfg.Budget {
		return nil, fmt.Errorf("cluster: floors %v exceed budget %v", floorSum, cfg.Budget)
	}
	c := &Coordinator{
		cfg:        cfg,
		ts:         append([]Transport(nil), ts...),
		sc:         newRoundScratch(n),
		limits:     make([]units.Watts, n),
		granted:    make([]units.Watts, n),
		fbGranted:  make([]units.Watts, n),
		leaseUntil: make([]time.Time, n),
		lastPower:  make([]units.Watts, n),
		lastMax:    make([]units.Watts, n),
		lastExtra:  make([]int, n),
		lastDepth:  make([]int, n),
		lastEnergy: make([]*powerapi.EnergyStatus, n),
		fails:      make([]int, n),
		quar:       make([]bool, n),
	}
	if reg := cfg.Metrics; reg != nil {
		c.mRealloc = reg.Counter("cluster_reallocations_total", "Coordinator intervals that moved budget between nodes.")
		c.mMovedWatts = reg.Counter("cluster_budget_moved_watts_total", "Total absolute budget shifted between nodes, in watts.")
		c.mNodeLimit = reg.GaugeVec("cluster_node_limit_watts", "Current per-node power limit in watts.", "node")
		c.mTotalPower = reg.Gauge("cluster_total_power_watts", "Power summed over every node's last good report.")
		c.mFailures = reg.CounterVec("cluster_transport_failures_total", "Node calls that failed, by node.", "node")
		c.mQuar = reg.GaugeVec("cluster_node_quarantined", "1 while the node is quarantined for repeated failures.", "node")
	}
	equal := cfg.Budget / units.Watts(n)
	for i := range c.ts {
		c.limits[i] = equal
	}
	if cfg.PriorLedger != nil {
		now := cfg.Clock.Now()
		for i, t := range c.ts {
			if e, ok := cfg.PriorLedger[t.Name()]; ok && e.Granted > 0 && now.Before(e.Until) {
				c.granted[i] = e.Granted
				c.leaseUntil[i] = e.Until
			}
		}
	}
	// Construction phases the initial wave like any other round: survivors
	// seeded from a prior ledger shrink to the new equal split before
	// newcomers grow into it, so rebuilding a coordinator over changed
	// membership never transiently over-commits the budget.
	targets := make([]units.Watts, n)
	healthy := make([]bool, n)
	for i := range targets {
		targets[i] = equal
		healthy[i] = true
	}
	c.issueGrants(context.Background(), targets, healthy, nil)
	return c, nil
}

// LeaseLedger exports the acknowledged-grant ledger by node name, for
// seeding a rebuilt coordinator's Config.PriorLedger across membership
// changes.
func (c *Coordinator) LeaseLedger() map[string]LedgerEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]LedgerEntry, len(c.ts))
	for i, t := range c.ts {
		if c.granted[i] > 0 {
			out[t.Name()] = LedgerEntry{Granted: c.granted[i], Until: c.leaseUntil[i]}
		}
	}
	return out
}

// floor is the per-node guaranteed share, which doubles as the lease
// fallback cap. With FloorBudget set it is a constant, independent of
// whatever budget the coordinator currently holds.
func (c *Coordinator) floor() units.Watts {
	base := c.cfg.Budget
	if c.cfg.FloorBudget > 0 {
		base = c.cfg.FloorBudget
	}
	return base * units.Watts(c.cfg.FloorFraction) / units.Watts(len(c.ts))
}

// Limits reports the current per-node limits. An unreachable node's is
// the cap the coordinator must assume it holds: its last acknowledged
// grant while the lease lives, the fallback floor after.
func (c *Coordinator) Limits() []units.Watts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]units.Watts(nil), c.limits...)
}

// Reallocations reports how many intervals actually moved budget.
func (c *Coordinator) Reallocations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.moves
}

// Rounds reports how many reallocation rounds have run.
func (c *Coordinator) Rounds() uint64 { return c.round.Load() }

// Budget reports the budget the coordinator currently cascades.
func (c *Coordinator) Budget() units.Watts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg.Budget
}

// Quarantined reports whether node i is currently quarantined.
func (c *Coordinator) Quarantined(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.quar[i]
}

// noteFailure counts a failed call to node i and marks the node failed
// for the step that settles next. Caller holds c.mu.
func (c *Coordinator) noteFailure(i int) {
	c.sc.failed[i] = true
	c.mFailures.With(c.ts[i].Name()).Inc()
}

// settleFailures ends a step's count: a node with a failed call since the
// last settle strings one more failed step and is quarantined at
// QuarantineAfter; any other node's count resets, and it is re-admitted.
// Caller holds c.mu and stepMu.
func (c *Coordinator) settleFailures() {
	for i, failed := range c.sc.failed {
		if !failed {
			c.fails[i] = 0
			if c.quar[i] {
				c.quar[i] = false
				c.mQuar.With(c.ts[i].Name()).Set(0)
			}
			continue
		}
		c.sc.failed[i] = false
		c.fails[i]++
		if c.fails[i] >= c.cfg.QuarantineAfter && !c.quar[i] {
			c.quar[i] = true
			c.mQuar.With(c.ts[i].Name()).Set(1)
		}
	}
}

// effective is the worst-case cap the ledger must assume node i holds: its
// acknowledged grant while the lease lives, the fallback floor after.
// Caller holds c.mu.
func (c *Coordinator) effective(i int, now time.Time, floor units.Watts) units.Watts {
	if c.granted[i] > 0 && now.Before(c.leaseUntil[i]) {
		return c.granted[i]
	}
	return floor
}

// holdLimit records node i's limit as the cap its lease leaves it, for a
// node no grant reached: its grant while the lease lives, the floor after.
// Caller holds c.mu.
func (c *Coordinator) holdLimit(i int, now time.Time, floor units.Watts) {
	c.limits[i] = c.effective(i, now, floor)
	c.mNodeLimit.With(c.ts[i].Name()).Set(float64(c.limits[i]))
}

// pollReport is the round's one report path: it fills node i's slots of
// the round scratch. Step calls it directly for a Local transport and
// hands the rest to the pollers. The clock is read only for a Fleet,
// the one consumer of per-node RPC latencies and finish times.
func (c *Coordinator) pollReport(wave context.Context, rb *tracing.RoundBuilder, i int) {
	sc := &c.sc
	s0 := rb.Now()
	var t0 time.Duration
	if c.cfg.Fleet != nil {
		t0 = time.Since(sc.began)
	}
	sc.reports[i], sc.errs[i] = c.ts[i].Report(wave)
	if sc.errs[i] != nil {
		sc.reports[i] = Report{}
	}
	if c.cfg.Fleet != nil {
		sc.obs[i].Finish = time.Since(sc.began)
		sc.obs[i].RPC = sc.obs[i].Finish - t0
	}
	rb.Span("report", c.ts[i].Name(), s0, rb.Now(), sc.errs[i])
}

// startPollers starts one poller per non-Local transport, fed from one
// channel, and the timer that retires them. Caller holds stepMu.
func (c *Coordinator) startPollers() {
	polls := make(chan pollJob)
	c.polls, c.seenRound = polls, c.round.Load()
	for _, t := range c.ts {
		if !t.Local() {
			go func() {
				for j := range polls {
					c.pollReport(j.wave, j.rb, j.i)
					c.pollWG.Done()
				}
			}()
		}
	}
	c.cfg.Clock.AfterFunc(pollerIdleTimeouts*c.cfg.NodeTimeout, c.retirePollers)
}

// retirePollers runs every pollerIdleTimeouts × NodeTimeout while there
// are pollers and lets them go if no round has run since it last looked. It
// takes stepMu, so it never meets a round half way.
func (c *Coordinator) retirePollers() {
	c.stepMu.Lock()
	defer c.stepMu.Unlock()
	if n := c.round.Load(); n != c.seenRound {
		c.seenRound = n
		c.cfg.Clock.AfterFunc(pollerIdleTimeouts*c.cfg.NodeTimeout, c.retirePollers)
		return
	}
	close(c.polls)
	c.polls = nil
}

// Step performs one reallocation round: collect every node's report — the
// networked ones fanned out concurrently under one shared deadline, the
// Local ones polled inline — water-fill the budget over the healthy bids,
// then issue grants — shrinking grants first and growing ones only
// afterwards, so the sum of outstanding grants (plus expired nodes'
// fallback floors) never exceeds the budget even mid-step or under partial
// failure.
//
// Each round gets a monotonic ID, stamped on every node RPC through the
// powerapi envelope and recorded (with report/plan/grant spans) when a
// Tracer is configured; a Fleet, when configured, observes every round's
// reports and RPC latencies.
//
// A node that cannot be reached or refuses its grant is counted, keeps its
// reservation and is quarantined past QuarantineAfter; it never fails the
// round, so the returned error is always nil.
func (c *Coordinator) Step(ctx context.Context) error {
	c.stepMu.Lock()
	defer c.stepMu.Unlock()
	rid := c.cfg.RoundBase + c.round.Add(1)
	rb := c.cfg.Tracer.Begin(rid)
	defer rb.End()
	ctx = powerapi.WithRound(ctx, rid)
	n := len(c.ts)
	sc := &c.sc
	if c.cfg.Fleet != nil {
		sc.began = time.Now()
	}
	reports, errs, healthy := sc.reports, sc.errs, sc.healthy
	wave, cancel := c.cfg.Clock.WithTimeout(ctx, c.cfg.NodeTimeout)
	for i, t := range c.ts {
		if !t.Local() {
			if c.polls == nil {
				c.startPollers()
			}
			c.pollWG.Add(1)
			c.polls <- pollJob{wave, rb, i}
		}
	}
	for i, t := range c.ts {
		if t.Local() {
			c.pollReport(wave, rb, i)
		}
	}
	// A report that outlives the wave's deadline still holds up its round,
	// and stepMu the next: this round's scratch gets this round's reports.
	c.pollWG.Wait()
	cancel()

	// A report's Status is borrowed: what Aggregate reads of it is copied
	// out here, before the transport's next Report may overwrite it.
	c.mu.Lock()
	for i := 0; i < n; i++ {
		healthy[i] = errs[i] == nil
		if !healthy[i] {
			c.noteFailure(i)
			continue
		}
		c.lastPower[i] = reports[i].Power
		c.lastMax[i] = reports[i].Max
		if st := reports[i].Status; st != nil {
			c.lastExtra[i], c.lastDepth[i], c.lastEnergy[i] = 0, 0, st.Energy
			if st.Tier != nil {
				c.lastExtra[i], c.lastDepth[i] = st.Tier.Nodes-1, st.Tier.Depth+1
			}
		}
	}
	c.mu.Unlock()

	planStart := rb.Now()
	targets, moved, shifted := c.plan(reports, healthy)
	rb.Span("plan", "", planStart, rb.Now(), nil)
	c.issueGrants(ctx, targets, healthy, rb)

	if c.cfg.Fleet != nil {
		for i := range sc.obs {
			sc.obs[i].Node, sc.obs[i].Err, sc.obs[i].Report = c.ts[i].Name(), errs[i], reports[i]
		}
		c.cfg.Fleet.ObserveRound(rid, time.Since(sc.began), sc.obs)
	}

	c.mu.Lock()
	c.settleFailures()
	if moved {
		c.moves++
	}
	c.mu.Unlock()
	if moved {
		c.mRealloc.Inc()
		c.mMovedWatts.Add(shifted)
	}
	c.mTotalPower.Set(float64(c.TotalPower()))
	return nil
}

// plan computes per-node target limits from the healthy reports: floors
// plus a water-fill of the distributable budget over the bids. Unhealthy
// nodes keep their reservation — the last grant while its lease lives, the
// fallback floor after — as their limit, so the room total stays within
// budget no matter when they come back or expire. The returned targets
// alias the round scratch.
func (c *Coordinator) plan(reports []Report, healthy []bool) (targets []units.Watts, moved bool, shifted float64) {
	n := len(c.ts)
	floor := float64(c.floor())
	now := c.cfg.Clock.Now()

	c.mu.Lock()
	defer c.mu.Unlock()

	var reserved float64 // held by unhealthy nodes
	bids, caps, idx := c.sc.bids[:0], c.sc.caps[:0], c.sc.idx[:0]
	for i := 0; i < n; i++ {
		if !healthy[i] {
			c.holdLimit(i, now, units.Watts(floor))
			reserved += float64(c.limits[i])
			continue
		}
		power := float64(reports[i].Power)
		limit := float64(c.limits[i])
		bid := power
		if power >= limit*(1-bindMargin) {
			// The node is pressed against its limit: bid for growth.
			bid = limit * 1.25
		}
		if bid < floor {
			bid = floor
		}
		bids = append(bids, bid)
		cap := float64(reports[i].Max) - floor
		if cap < 0 {
			cap = 0
		}
		caps = append(caps, cap)
		idx = append(idx, i)
	}

	distributable := float64(c.cfg.Budget) - floor*float64(len(idx)) - reserved
	if distributable < 0 {
		distributable = 0
	}
	alloc := core.WaterFill(c.sc.alloc, distributable, bids, caps)

	targets = append(c.sc.targets[:0], c.limits...)
	for j, i := range idx {
		newLimit := units.Watts(floor + alloc[j])
		if diff := newLimit - c.limits[i]; diff > 0.5 || diff < -0.5 {
			moved = true
			if diff < 0 {
				diff = -diff
			}
			shifted += float64(diff)
		}
		targets[i] = newLimit
		c.limits[i] = newLimit
	}
	return targets, moved, shifted
}

// issueGrants applies the planned targets: shrinking (or renewing equal)
// grants fan out concurrently first, under one shared deadline; growing
// grants follow sequentially, each capped by the headroom the acknowledged
// ledger still shows, so a failed shrink can never combine with a
// successful grow to over-commit the budget. A grant that fails counts
// against its node (noteFailure) and leaves the ledger as it was.
func (c *Coordinator) issueGrants(ctx context.Context, targets []units.Watts, healthy []bool, rb *tracing.RoundBuilder) {
	n := len(c.ts)
	floor := c.floor()
	now := c.cfg.Clock.Now()

	grant := func(wave context.Context, i int, limit units.Watts) {
		s0 := rb.Now()
		g := Grant{Limit: limit, TTL: c.cfg.LeaseTTL, Fallback: floor}
		err := c.ts[i].Grant(wave, g)
		rb.Span("grant", c.ts[i].Name(), s0, rb.Now(), err)
		c.mu.Lock()
		if err != nil {
			c.noteFailure(i)
			c.holdLimit(i, c.cfg.Clock.Now(), floor)
			c.mu.Unlock()
			return
		}
		c.granted[i] = limit
		c.fbGranted[i] = floor
		c.limits[i] = limit // what the node actually enforces, headroom cap included
		c.leaseUntil[i] = c.cfg.Clock.Now().Add(c.cfg.LeaseTTL)
		c.mu.Unlock()
		c.mNodeLimit.With(c.ts[i].Name()).Set(float64(limit))
	}

	// Classify every healthy node in one pass: it grows, it needs a shrink
	// or renewal, or it is stable — its lease already says exactly what
	// this wave would tell it: same cap, same fallback floor, and more
	// than half its TTL still to run. Renewing a stable node would be a
	// no-op RPC; in steady state that is every node, so skipping here is
	// what lets a round over a quiet fleet cost only its status poll. The
	// half-TTL guard keeps renewals flowing well before expiry when rounds
	// are slow relative to the TTL.
	grows, renews := c.sc.grows[:0], c.sc.renews[:0]
	renewBy := now.Add(c.cfg.LeaseTTL / 2)
	c.mu.Lock()
	for i := 0; i < n; i++ {
		if !healthy[i] {
			continue
		}
		if targets[i] > c.effective(i, now, floor) {
			grows = append(grows, i)
			continue
		}
		d := targets[i] - c.granted[i]
		f := floor - c.fbGranted[i]
		stable := c.granted[i] > 0 &&
			d <= budgetSlack && d >= -budgetSlack &&
			f <= budgetSlack && f >= -budgetSlack &&
			renewBy.Before(c.leaseUntil[i])
		if !stable {
			renews = append(renews, i)
		}
	}
	c.mu.Unlock()

	// Phase 1: shrinks and renewals, concurrently.
	if len(renews) > 0 {
		wave, cancel := c.cfg.Clock.WithTimeout(ctx, c.cfg.NodeTimeout)
		var wg sync.WaitGroup
		for _, i := range renews {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				grant(wave, i, targets[i])
			}(i)
		}
		wg.Wait()
		cancel()
	}
	if len(grows) == 0 {
		return
	}

	// Phase 2: grows, one at a time and each under its own timeout, bounded
	// by the headroom the acknowledged ledger leaves. A node whose shrink
	// failed still occupies its old grant, so the grows squeeze rather than
	// overshoot.
	var held units.Watts
	c.mu.Lock()
	for i := 0; i < n; i++ {
		held += c.effective(i, now, floor)
	}
	c.mu.Unlock()
	headroom := c.cfg.Budget - held
	for _, i := range grows {
		c.mu.Lock()
		cur := c.effective(i, now, floor)
		limit := targets[i]
		delta := limit - cur
		if delta > headroom {
			delta = headroom
			limit = cur + delta
		}
		if delta <= 0 {
			// No room to grow into: the node keeps what it holds.
			c.holdLimit(i, now, floor)
			c.mu.Unlock()
			continue
		}
		c.mu.Unlock()
		wave, cancel := c.cfg.Clock.WithTimeout(ctx, c.cfg.NodeTimeout)
		grant(wave, i, limit)
		cancel()
		headroom -= delta
	}
}

// budgetSlack absorbs float rounding when comparing watt sums.
const budgetSlack = 1e-6

// SetBudget changes the budget the coordinator cascades — the tier's
// end of a lease granted (or expired) one level up. A growth commits
// immediately and the next Step water-fills the extra. A shrink must
// prove itself first: a scaled-down shrink wave goes out synchronously,
// and the new budget commits only if the acknowledged ledger fits under
// it — otherwise the old budget stays committed and an error tells the
// caller (the tier's agent) to refuse its own lease, which keeps the
// parent's ledger equally honest. That handshake is what makes
// Σ granted ≤ budget recursive across tiers.
//
// Requires Config.FloorBudget: floors must not move with the budget, or
// the fallback caps promised to children would drift.
func (c *Coordinator) SetBudget(ctx context.Context, b units.Watts) error {
	return c.setBudget(ctx, b, false)
}

// ForceBudget clamps the budget unconditionally — the lease-expiry and
// drain path, where the tier cannot refuse the change the way it can
// refuse a lease: the power is already gone one level up. Reachable
// children shrink in the same synchronous wave; unreachable ones hold
// their old caps only until their own leases lapse into fallback, and
// every wave the coordinator plans from here on distributes the clamped
// figure. That lapse window is the "one extra TTL per tier" in the
// fallback-cascade guarantee.
func (c *Coordinator) ForceBudget(ctx context.Context, b units.Watts) error {
	return c.setBudget(ctx, b, true)
}

func (c *Coordinator) setBudget(ctx context.Context, b units.Watts, force bool) error {
	if c.cfg.FloorBudget <= 0 {
		return fmt.Errorf("cluster: SetBudget requires Config.FloorBudget")
	}
	c.stepMu.Lock()
	defer c.stepMu.Unlock()

	n := len(c.ts)
	floor := c.floor()
	floorSum := floor * units.Watts(n)
	if b < floorSum-budgetSlack {
		return fmt.Errorf("cluster: budget %v below the floor sum %v of %d nodes", b, floorSum, n)
	}

	// Record the cascade under the parent's round ID when the context
	// carries one, so the cross-tier timeline joins on it.
	var rb *tracing.RoundBuilder
	if rid := powerapi.RoundFrom(ctx); rid != 0 {
		rb = c.cfg.Tracer.Begin(rid)
		defer rb.End()
	}

	now := c.cfg.Clock.Now()
	c.mu.Lock()
	old := c.cfg.Budget
	eff := make([]units.Watts, n)
	var held units.Watts
	for i := 0; i < n; i++ {
		eff[i] = c.effective(i, now, floor)
		held += eff[i]
	}
	if b >= held-budgetSlack {
		// Growth or no-op: nothing currently held can violate it.
		c.cfg.Budget = b
		c.mu.Unlock()
		return nil
	}
	// Shrink: scale every above-floor allocation so the targets sum to
	// the new budget, preserving the proportions the last plan chose.
	scale := 0.0
	if excess := held - floorSum; excess > 0 {
		scale = float64(b-floorSum) / float64(excess)
	}
	targets := make([]units.Watts, n)
	healthy := make([]bool, n)
	for i := 0; i < n; i++ {
		targets[i] = floor + units.Watts(float64(eff[i]-floor)*scale)
		healthy[i] = true
	}
	c.mu.Unlock()

	c.issueGrants(ctx, targets, healthy, rb)

	// Commit only what the ledger proves: children that refused or were
	// unreachable still hold their old caps until TTL.
	now = c.cfg.Clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	held = 0
	for i := 0; i < n; i++ {
		held += c.effective(i, now, floor)
	}
	if held > b+budgetSlack && !force {
		c.cfg.Budget = old
		return fmt.Errorf("cluster: shrink to %v unacknowledged: children still hold %v", b, held)
	}
	c.cfg.Budget = b
	return nil
}

// Aggregate is the subtree summary a mid-tier coordinator reports
// upward as one synthetic node.
type Aggregate struct {
	Power       units.Watts // Σ power over last good reports
	Max         units.Watts // Σ reported max watts
	Children    int         // direct children
	Reporting   int         // children with at least one good report
	Quarantined int
	Leaves      int // leaf nodes in the subtree (children count their own)
	Depth       int // coordinator levels at or below this one
	// Energy sums the children's piggybacked energy summaries; nil when
	// none reported one.
	Energy *powerapi.EnergyStatus
}

// Aggregate rolls the coordinator's last good reports into the summary
// its tier presents upward.
func (c *Coordinator) Aggregate() Aggregate {
	c.mu.Lock()
	defer c.mu.Unlock()
	agg := Aggregate{Children: len(c.ts), Depth: 1}
	for i := range c.ts {
		agg.Power += c.lastPower[i]
		agg.Max += c.lastMax[i]
		if c.quar[i] {
			agg.Quarantined++
		}
		if c.lastMax[i] > 0 {
			agg.Reporting++
		}
		agg.Leaves += 1 + c.lastExtra[i]
		if c.lastDepth[i] > agg.Depth {
			agg.Depth = c.lastDepth[i]
		}
		if e := c.lastEnergy[i]; e != nil {
			if agg.Energy == nil {
				agg.Energy = &powerapi.EnergyStatus{}
			}
			agg.Energy.Accumulate(e)
		}
	}
	return agg
}

// TotalPower reports the power across all nodes, summed over their last
// good reports.
func (c *Coordinator) TotalPower() units.Watts {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t units.Watts
	for _, p := range c.lastPower {
		t += p
	}
	return t
}
