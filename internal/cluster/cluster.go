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
	"slices"
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

func (c *Config) fill() error {
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

// Coordinator redistributes a power budget across nodes reached through
// Transports.
type Coordinator struct {
	cfg   Config
	round atomic.Uint64

	// stepMu serializes whole rounds against budget and node-set changes,
	// so a parent's cascaded SetBudget never interleaves with this tier's
	// own grant wave. kids changes under stepMu and mu both.
	stepMu sync.Mutex
	sc     roundScratch

	// The pollers: one goroutine for each non-Local call a wave has had in
	// flight at once, kept across rounds so the stack a call grows on its
	// way down the HTTP client is grown once. Guarded by pollMu, which a
	// wave holds only while it hands out its calls. Nobody has to stop
	// them: they retire once no round has run for
	// pollerIdleTimeouts × NodeTimeout, and the next wave starts new ones.
	pollMu    sync.Mutex
	polls     chan pollJob
	pollers   int
	pollWG    sync.WaitGroup
	seenRound uint64 // rounds run when retirePollers last looked

	// mu guards moves and every child's record.
	mu    sync.Mutex
	kids  []*child
	moves int

	// Optional instrumentation; nil handles no-op.
	mRealloc    *metrics.Counter
	mMovedWatts *metrics.Counter
	mNodeLimit  *metrics.GaugeVec
	mTotalPower *metrics.Gauge
	mFailures   *metrics.CounterVec
	mQuar       *metrics.GaugeVec
}

// child is the coordinator's whole record of one node. SetChildren keeps a
// survivor's record and gives a newcomer a fresh one, so every field
// carries by construction. Guarded by Coordinator.mu, except that t changes
// under stepMu too, so a wave reads it under stepMu alone.
type child struct {
	t     Transport
	limit units.Watts // current target limit

	// The lease: the last acknowledged grant, the fallback cap it carried
	// and the coordinator-side deadline.
	granted, fallback units.Watts
	until             time.Time

	// What the last good report left, its Status part copied out of the
	// borrowed frame; without a Tier, extra and depth stay 0.
	power, maxPower units.Watts
	extra           int // leaves under the node beyond its own one: Tier.Nodes-1
	depth           int // Tier.Depth+1
	energy          *powerapi.EnergyStatus

	fails  int  // consecutive steps with a failed call
	failed bool // a call failed since the last Step settled
	quar   bool

	// The node's series, bound when it joins and deleted when it leaves.
	mLimit *metrics.Gauge
	mQuar  *metrics.Gauge
	mFails *metrics.Counter
}

// pollerIdleTimeouts is how many NodeTimeouts without a round retire the
// pollers: long against any cadence at which a stack is worth keeping, short
// enough that a coordinator nobody steps any more is soon garbage.
const pollerIdleTimeouts = 2

// pollJob is one call of one wave to node i: a grant of limit when limit is
// positive, its report when it is zero.
type pollJob struct {
	wave  context.Context
	rb    *tracing.RoundBuilder
	i     int
	limit units.Watts
}

// roundScratch is the per-round working set, sized to the node count by
// SetChildren and reused by every Step and SetBudget (stepMu serialises
// them). Nothing in it outlives the round that filled it.
type roundScratch struct {
	all     []int     // 0..n-1: the report wave's nodes
	local   []pollJob // a wave's calls to Local nodes
	reports []Report
	errs    []error
	obs     []NodeObservation // RPC and Finish filled only when a Fleet consumes them
	began   time.Time         // the round's start, read only for a Fleet
	healthy []bool
	targets []units.Watts
	bids    []float64
	caps    []float64
	alloc   []float64
	idx     []int
	grows   []int
	renews  []int
}

func newRoundScratch(n int) roundScratch {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return roundScratch{
		all:     all,
		local:   make([]pollJob, 0, n),
		reports: make([]Report, n),
		errs:    make([]error, n),
		obs:     make([]NodeObservation, n),
		healthy: make([]bool, n),
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
// and attempts the initial equal split: SetChildren on a coordinator with
// no nodes yet. Unreachable nodes do not abort construction: they
// accumulate failures like any other step and receive their grant when
// they come back.
func NewOverTransports(ts []Transport, cfg Config) (*Coordinator, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	c := &Coordinator{cfg: cfg}
	if reg := cfg.Metrics; reg != nil {
		c.mRealloc = reg.Counter("cluster_reallocations_total", "Coordinator intervals that moved budget between nodes.")
		c.mMovedWatts = reg.Counter("cluster_budget_moved_watts_total", "Total absolute budget shifted between nodes, in watts.")
		c.mNodeLimit = reg.GaugeVec("cluster_node_limit_watts", "Current per-node power limit in watts.", "node")
		c.mTotalPower = reg.Gauge("cluster_total_power_watts", "Power summed over every node's last good report.")
		c.mFailures = reg.CounterVec("cluster_transport_failures_total", "Node calls that failed, by node.", "node")
		c.mQuar = reg.GaugeVec("cluster_node_quarantined", "1 while the node is quarantined for repeated failures.", "node")
	}
	if err := c.SetChildren(ts); err != nil {
		return nil, err
	}
	return c, nil
}

// SetChildren changes the node set in place, between rounds. A node that
// stays, by name, keeps its record: its lease (grant, fallback and
// deadline), its limit, its last report, its failure count and its
// quarantine. A newcomer starts a fresh record and fresh series, and a
// node that leaves takes its series with it. Then every node is sent the
// equal split of the budget, shrinks before grows, so survivors give back
// what newcomers grow into and the change never transiently over-commits
// the budget. The round counter, the pollers and the metrics carry on.
func (c *Coordinator) SetChildren(ts []Transport) error {
	if len(ts) == 0 {
		return fmt.Errorf("cluster: no nodes")
	}
	next := make(map[string]*child, len(ts)) // each name's record, nil for a newcomer
	for i, t := range ts {
		if t == nil {
			return fmt.Errorf("cluster: transport %d is nil", i)
		}
		if _, dup := next[t.Name()]; dup {
			return fmt.Errorf("cluster: node %q named twice", t.Name())
		}
		next[t.Name()] = nil
	}
	c.stepMu.Lock()
	defer c.stepMu.Unlock()
	for _, k := range c.kids {
		name := k.t.Name()
		if _, stays := next[name]; stays {
			next[name] = k
			continue
		}
		c.mNodeLimit.Delete(name)
		c.mQuar.Delete(name)
		c.mFailures.Delete(name)
	}
	kids := make([]*child, len(ts))
	for i, t := range ts {
		if kids[i] = next[t.Name()]; kids[i] == nil {
			name := t.Name()
			kids[i] = &child{mLimit: c.mNodeLimit.With(name), mQuar: c.mQuar.With(name), mFails: c.mFailures.With(name)}
		}
	}
	c.sc = newRoundScratch(len(ts))
	c.mu.Lock()
	for i, k := range kids {
		k.t = ts[i]
	}
	c.kids = kids
	equal := c.cfg.Budget / units.Watts(len(ts))
	c.mu.Unlock()
	targets, healthy := c.sc.targets[:len(ts)], c.sc.healthy
	for i := range targets {
		targets[i], healthy[i] = equal, true
	}
	c.issueGrants(context.Background(), targets, healthy, nil)
	return nil
}

// floor is the per-node guaranteed share, which doubles as the lease
// fallback cap. With FloorBudget set it is a constant, independent of
// whatever budget the coordinator currently holds.
func (c *Coordinator) floor() units.Watts {
	base := c.cfg.Budget
	if c.cfg.FloorBudget > 0 {
		base = c.cfg.FloorBudget
	}
	return base * units.Watts(c.cfg.FloorFraction) / units.Watts(len(c.kids))
}

// Nodes reports each node's name, its limit and whether it is quarantined,
// in index order. An unreachable node's limit is the cap the coordinator
// must assume it holds: its last acknowledged grant while the lease lives,
// the fallback that grant carried after, or the floor if higher.
func (c *Coordinator) Nodes() []powerapi.ClusterNode {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]powerapi.ClusterNode, len(c.kids))
	for i, k := range c.kids {
		out[i] = powerapi.ClusterNode{Name: k.t.Name(), LimitWatts: float64(k.limit), Quarantined: k.quar}
	}
	return out
}

// Local reports whether every node's transport is Local: then a grant to a
// tier over this coordinator, which cascades to these nodes, never waits on
// I/O either.
func (c *Coordinator) Local() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !slices.ContainsFunc(c.kids, func(k *child) bool { return !k.t.Local() })
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

// noteFailure counts a failed call to the node and marks it failed for the
// step that settles next. Caller holds c.mu.
func (k *child) noteFailure() {
	k.failed = true
	k.mFails.Inc()
}

// settle ends a step's count: a node with a failed call since the last
// settle strings one more failed step and is quarantined at after failed
// steps; any other node's count resets, and it is re-admitted. Caller holds
// c.mu and stepMu.
func (k *child) settle(after int) {
	if !k.failed {
		k.fails = 0
		if k.quar {
			k.quar = false
			k.mQuar.Set(0)
		}
		return
	}
	k.failed = false
	k.fails++
	if k.fails >= after && !k.quar {
		k.quar = true
		k.mQuar.Set(1)
	}
}

// effective is the worst-case cap the ledger must assume the node holds:
// its acknowledged grant while the lease lives; after, the fallback its
// last grant carried, or the floor if higher. Caller holds c.mu.
func (k *child) effective(now time.Time, floor units.Watts) units.Watts {
	if k.granted > 0 && now.Before(k.until) {
		return k.granted
	}
	return max(floor, k.fallback)
}

// holdLimit records the node's limit as the cap its lease leaves it, for a
// node no grant reached. Caller holds c.mu.
func (k *child) holdLimit(now time.Time, floor units.Watts) {
	k.limit = k.effective(now, floor)
	k.mLimit.Set(float64(k.limit))
}

// pollReport is the round's one report path: it fills node i's slots of
// the round scratch. The clock is read only for a Fleet, the one consumer
// of per-node RPC latencies and finish times.
func (c *Coordinator) pollReport(wave context.Context, rb *tracing.RoundBuilder, i int) {
	sc := &c.sc
	s0 := rb.Now()
	var t0 time.Duration
	if c.cfg.Fleet != nil {
		t0 = time.Since(sc.began)
	}
	t := c.kids[i].t
	sc.reports[i], sc.errs[i] = t.Report(wave)
	if sc.errs[i] != nil {
		sc.reports[i] = Report{}
	}
	if c.cfg.Fleet != nil {
		sc.obs[i].Finish = time.Since(sc.began)
		sc.obs[i].RPC = sc.obs[i].Finish - t0
	}
	rb.Span("report", t.Name(), s0, rb.Now(), sc.errs[i])
}

// startPollers starts one more poller; the first makes the channel that
// feeds them all and arms the timer that retires them. Caller holds pollMu.
func (c *Coordinator) startPollers() {
	if c.polls == nil {
		c.polls, c.seenRound = make(chan pollJob), c.round.Load()
		c.cfg.Clock.AfterFunc(pollerIdleTimeouts*c.cfg.NodeTimeout, c.retirePollers)
	}
	c.pollers++
	polls := c.polls
	go func() {
		for j := range polls {
			c.call(j)
			c.pollWG.Done()
		}
	}()
}

// wave makes one call to every node in idx under one NodeTimeout deadline:
// a grant of limits[i] to node i, or its report when limits is nil. A Local
// node is called on the calling goroutine, in index order; any other on a
// poller. Caller holds stepMu.
func (c *Coordinator) wave(ctx context.Context, rb *tracing.RoundBuilder, idx []int, limits []units.Watts) {
	wave, cancel := c.cfg.Clock.WithTimeout(ctx, c.cfg.NodeTimeout)
	local, remote := c.sc.local[:0], 0
	c.pollMu.Lock()
	for _, i := range idx {
		j := pollJob{wave: wave, rb: rb, i: i}
		if limits != nil {
			j.limit = limits[i]
		}
		if c.kids[i].t.Local() {
			local = append(local, j)
			continue
		}
		if remote++; remote > c.pollers {
			c.startPollers()
		}
		c.pollWG.Add(1)
		c.polls <- j
	}
	c.pollMu.Unlock()
	for _, j := range local {
		c.call(j)
	}
	clear(local)
	// A call that outlives the wave's deadline still holds up its wave, and
	// stepMu the next: this round's scratch gets this round's reports.
	c.pollWG.Wait()
	cancel()
}

// call is every node call's one path, inline or on a poller.
func (c *Coordinator) call(j pollJob) {
	if j.limit > 0 {
		c.grant(j.wave, j.rb, j.i, j.limit)
	} else {
		c.pollReport(j.wave, j.rb, j.i)
	}
}

// retirePollers runs every pollerIdleTimeouts × NodeTimeout while there
// are pollers and lets them go if no round has run since it last looked. It
// takes pollMu, never stepMu, so it never waits on a round, however long a
// hung node holds one; a wave's calls already handed out run to the end.
func (c *Coordinator) retirePollers() {
	c.pollMu.Lock()
	defer c.pollMu.Unlock()
	if n := c.round.Load(); n != c.seenRound {
		c.seenRound = n
		c.cfg.Clock.AfterFunc(pollerIdleTimeouts*c.cfg.NodeTimeout, c.retirePollers)
		return
	}
	close(c.polls)
	c.polls, c.pollers = nil, 0
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
	sc := &c.sc
	if c.cfg.Fleet != nil {
		sc.began = time.Now()
	}
	reports, errs, healthy := sc.reports, sc.errs, sc.healthy
	c.wave(ctx, rb, sc.all, nil)

	// A report's Status is borrowed: what Aggregate reads of it is copied
	// out here, before the transport's next Report may overwrite it.
	c.mu.Lock()
	for i, k := range c.kids {
		healthy[i] = errs[i] == nil
		if !healthy[i] {
			k.noteFailure()
			continue
		}
		k.power, k.maxPower = reports[i].Power, reports[i].Max
		if st := reports[i].Status; st != nil {
			k.extra, k.depth, k.energy = 0, 0, st.Energy
			if st.Tier != nil {
				k.extra, k.depth = st.Tier.Nodes-1, st.Tier.Depth+1
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
			sc.obs[i].Node, sc.obs[i].Err, sc.obs[i].Report = c.kids[i].t.Name(), errs[i], reports[i]
		}
		c.cfg.Fleet.ObserveRound(rid, time.Since(sc.began), sc.obs)
	}

	c.mu.Lock()
	var total units.Watts
	for _, k := range c.kids {
		k.settle(c.cfg.QuarantineAfter)
		total += k.power
	}
	if moved {
		c.moves++
	}
	c.mu.Unlock()
	if moved {
		c.mRealloc.Inc()
		c.mMovedWatts.Add(shifted)
	}
	c.mTotalPower.Set(float64(total))
	return nil
}

// plan computes per-node target limits from the healthy reports: floors
// plus a water-fill of the distributable budget over the bids. Unhealthy
// nodes keep their reservation — the last grant while its lease lives, its
// fallback or the floor after — as their limit, so the room total stays within
// budget no matter when they come back or expire. The returned targets
// alias the round scratch.
func (c *Coordinator) plan(reports []Report, healthy []bool) (targets []units.Watts, moved bool, shifted float64) {
	floor := float64(c.floor())
	now := c.cfg.Clock.Now()

	c.mu.Lock()
	defer c.mu.Unlock()

	var reserved float64 // held by unhealthy nodes
	bids, caps, idx := c.sc.bids[:0], c.sc.caps[:0], c.sc.idx[:0]
	targets = c.sc.targets[:len(c.kids)]
	for i, k := range c.kids {
		if !healthy[i] {
			k.holdLimit(now, units.Watts(floor))
			targets[i] = k.limit
			reserved += float64(k.limit)
			continue
		}
		power := float64(reports[i].Power)
		limit := float64(k.limit)
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

	for j, i := range idx {
		k := c.kids[i]
		newLimit := units.Watts(floor + alloc[j])
		if diff := newLimit - k.limit; diff > 0.5 || diff < -0.5 {
			moved = true
			if diff < 0 {
				diff = -diff
			}
			shifted += float64(diff)
		}
		targets[i] = newLimit
		k.limit = newLimit
	}
	return targets, moved, shifted
}

// grant leases node i the cap limit. A grant that fails counts against its
// node (noteFailure) and leaves the ledger as it was.
func (c *Coordinator) grant(wave context.Context, rb *tracing.RoundBuilder, i int, limit units.Watts) {
	k, floor := c.kids[i], c.floor()
	s0 := rb.Now()
	err := k.t.Grant(wave, Grant{Limit: limit, TTL: c.cfg.LeaseTTL, Fallback: floor})
	rb.Span("grant", k.t.Name(), s0, rb.Now(), err)
	c.mu.Lock()
	if err != nil {
		k.noteFailure()
		k.holdLimit(c.cfg.Clock.Now(), floor)
		c.mu.Unlock()
		return
	}
	k.granted, k.fallback = limit, floor
	k.limit = limit // what the node actually enforces, headroom cap included
	k.until = c.cfg.Clock.Now().Add(c.cfg.LeaseTTL)
	c.mu.Unlock()
	k.mLimit.Set(float64(limit))
}

// issueGrants applies the planned targets in two waves: shrinks and
// renewals first, then grows, each capped by the headroom the acknowledged
// ledger shows once the first wave is in, so a failed shrink can never
// combine with a successful grow to over-commit the budget. It caps each
// grow's target in place.
func (c *Coordinator) issueGrants(ctx context.Context, targets []units.Watts, healthy []bool, rb *tracing.RoundBuilder) {
	floor := c.floor()
	now := c.cfg.Clock.Now()

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
	for i, k := range c.kids {
		if !healthy[i] {
			continue
		}
		if targets[i] > k.effective(now, floor) {
			grows = append(grows, i)
			continue
		}
		d := targets[i] - k.granted
		f := floor - k.fallback
		stable := k.granted > 0 &&
			d <= budgetSlack && d >= -budgetSlack &&
			f <= budgetSlack && f >= -budgetSlack &&
			renewBy.Before(k.until)
		if !stable {
			renews = append(renews, i)
		}
	}
	c.mu.Unlock()

	if len(renews) > 0 {
		c.wave(ctx, rb, renews, targets)
	}
	if len(grows) == 0 {
		return
	}

	// Every grow's share of the headroom is reserved before any goes out.
	// A node whose shrink failed still occupies its old grant, so the grows
	// squeeze rather than overshoot; a failed grow keeps its reservation
	// until the next round, so Σ granted stays within the budget throughout.
	c.mu.Lock()
	headroom := c.cfg.Budget - c.held(now, floor)
	reserved := grows[:0]
	for _, i := range grows {
		k := c.kids[i]
		cur := k.effective(now, floor)
		limit, delta := targets[i], targets[i]-cur
		if delta > headroom {
			delta = headroom
			limit = cur + delta
		}
		if delta <= 0 {
			// No room to grow into: the node keeps what it holds.
			k.holdLimit(now, floor)
			continue
		}
		targets[i] = limit
		headroom -= delta
		reserved = append(reserved, i)
	}
	c.mu.Unlock()
	c.wave(ctx, rb, reserved, targets)
}

// held sums the caps the ledger must assume the nodes hold. Caller holds
// c.mu.
func (c *Coordinator) held(now time.Time, floor units.Watts) units.Watts {
	var sum units.Watts
	for _, k := range c.kids {
		sum += k.effective(now, floor)
	}
	return sum
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

	n := len(c.kids)
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
	held := c.held(now, floor)
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
	targets, healthy := c.sc.targets[:n], c.sc.healthy
	for i, k := range c.kids {
		targets[i] = floor + units.Watts(float64(k.effective(now, floor)-floor)*scale)
		healthy[i] = true
	}
	c.mu.Unlock()

	c.issueGrants(ctx, targets, healthy, rb)

	// Commit only what the ledger proves: children that refused or were
	// unreachable still hold their old caps until TTL.
	now = c.cfg.Clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if held = c.held(now, floor); held > b+budgetSlack && !force {
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
	agg := Aggregate{Children: len(c.kids), Depth: 1}
	for _, k := range c.kids {
		agg.Power += k.power
		agg.Max += k.maxPower
		if k.quar {
			agg.Quarantined++
		}
		if k.maxPower > 0 {
			agg.Reporting++
		}
		agg.Leaves += 1 + k.extra
		agg.Depth = max(agg.Depth, k.depth)
		if e := k.energy; e != nil {
			if agg.Energy == nil {
				agg.Energy = &powerapi.EnergyStatus{}
			}
			agg.Energy.Accumulate(e)
		}
	}
	return agg
}
