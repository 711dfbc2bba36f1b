// Package hierarchy stacks the machine-room coordinator into the
// datacenter tree the paper's deployment section sketches: rooms under
// rows under buildings, each tier a coordinator over its children that
// presents its whole subtree to the tier above as ONE synthetic node.
//
// The trick is that no new protocol exists between tiers. A Tier runs
// the unmodified cluster.Coordinator over its children and fronts it
// with the unmodified powerapi.Agent: demand aggregates upward as the
// one status report any node would send (power, max, energy rollups,
// plus a TierStatus describing the subtree), and budget cascades
// downward as the one TTL'd lease any node would receive — the agent's
// SetLimit becomes the coordinator's SetBudget. Because a tier refuses
// its own lease until the caps it holds over its children provably fit
// under the new budget, the flat coordinator's partition-safety
// invariants — Σ granted ≤ budget, fallback caps on lease expiry,
// shrink-before-grow — hold recursively at every level: a building that
// dies strands its rows, whose leases expire into fallback caps, whose
// floors bound their leaves, all without any tier seeing past its
// children.
package hierarchy

import (
	"context"
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/powerapi"
	"repro/internal/tracing"
	"repro/internal/units"
)

// TierConfig parameterises one mid-tier (or root) coordinator.
type TierConfig struct {
	// Name identifies the tier: its agent's node name toward the parent
	// and its round-ID namespace (tracing.RoundIDBase) in merged traces.
	Name string

	// Level is the tier's place in the tree for display and rollups —
	// "row", "building". Defaults to "tier".
	Level string

	// NodeID stamps the tier agent's flight events in a shared recorder.
	NodeID int16

	// Budget is the power the tier initially cascades. Ignored with
	// StartAtFallback, which begins at the Fallback cap until the parent
	// grants more — the conservative default for mid-tiers, whose real
	// budget always arrives as a lease.
	Budget          units.Watts
	StartAtFallback bool

	// Fallback is the cap the tier reverts to when its own lease expires.
	// It doubles as the coordinator's FloorBudget: the floors (and lease
	// fallback caps) promised to children are carved from this constant,
	// so they stay safe under any budget the tier can be held to.
	Fallback units.Watts

	// FloorFraction, Interval, LeaseTTL, NodeTimeout and QuarantineAfter
	// pass through to the tier's coordinator (see cluster.Config for
	// defaults), Clock to its coordinator and agent.
	FloorFraction   float64
	Interval        time.Duration
	LeaseTTL        time.Duration
	NodeTimeout     time.Duration
	QuarantineAfter int
	Clock           clock.Clock

	// Deprecated: has no effect; a failed call waits for the next round.
	// Only benchmark/ still sets it; Re-cut the ruler (e) deletes it.
	Retries int

	// Metrics, Flight, Tracer, and Fleet instrument both halves of the
	// tier: the coordinator records rounds and the agent records its
	// lease transitions into the same registries, so one dump shows the
	// tier as node and as coordinator.
	Metrics *metrics.Registry
	Flight  *flight.Recorder
	Tracer  *tracing.Tracer
	Fleet   *cluster.Fleet
}

// start checks cfg, fills in its level, and returns the budget a tier
// over it starts at.
func (cfg *TierConfig) start() (units.Watts, error) {
	if cfg.Name == "" {
		return 0, fmt.Errorf("hierarchy: tier needs a name")
	}
	if cfg.Level == "" {
		cfg.Level = "tier"
	}
	if cfg.Fallback <= 0 {
		return 0, fmt.Errorf("hierarchy: tier %s needs a positive fallback cap", cfg.Name)
	}
	budget := cfg.Budget
	if cfg.StartAtFallback || budget <= 0 {
		budget = cfg.Fallback
	}
	if cfg.Fallback > budget {
		return 0, fmt.Errorf("hierarchy: tier %s fallback %v exceeds its budget %v", cfg.Name, cfg.Fallback, budget)
	}
	return budget, nil
}

// Tier is one node of the coordination tree: a coordinator over its
// children fronted by an agent toward its parent.
//
// The tier keeps one coordinator for life, and it serialises the tier's
// steps, cascaded budget changes and child changes. Lock order is strictly
// parent tier → child tier (a cascade holds the parent's round while the
// child takes its own, and a parent's wave asks the child's coordinator
// whether it is Local); nothing ever locks upward.
type Tier struct {
	cfg    TierConfig
	coord  *cluster.Coordinator
	agent  *powerapi.Agent
	policy string // "tier-" + Level, the policy the agent's status names
}

// NewTier builds a tier over its child transports and issues the
// initial grant wave (equal split of the starting budget).
func NewTier(cfg TierConfig, children []cluster.Transport) (*Tier, error) {
	budget, err := cfg.start()
	if err != nil {
		return nil, err
	}
	coord, err := cluster.NewOverTransports(children, cluster.Config{
		Budget:          budget,
		Interval:        cfg.Interval,
		FloorFraction:   cfg.FloorFraction,
		FloorBudget:     cfg.Fallback,
		RoundBase:       tracing.RoundIDBase(cfg.Name),
		LeaseTTL:        cfg.LeaseTTL,
		NodeTimeout:     cfg.NodeTimeout,
		QuarantineAfter: cfg.QuarantineAfter,
		Clock:           cfg.Clock,
		Metrics:         cfg.Metrics,
		Tracer:          cfg.Tracer,
		Fleet:           cfg.Fleet,
	})
	if err != nil {
		return nil, fmt.Errorf("hierarchy: tier %s: %w", cfg.Name, err)
	}
	t := &Tier{cfg: cfg, coord: coord, policy: "tier-" + cfg.Level}
	a, err := powerapi.NewAgent(powerapi.AgentConfig{
		Name:     cfg.Name,
		NodeID:   cfg.NodeID,
		Backend:  tierBackend{t},
		Fallback: cfg.Fallback,
		Flight:   cfg.Flight,
		Tracer:   cfg.Tracer,
		Metrics:  cfg.Metrics,
		Clock:    cfg.Clock,
	})
	if err != nil {
		return nil, fmt.Errorf("hierarchy: tier %s: %w", cfg.Name, err)
	}
	t.agent = a
	return t, nil
}

// Name reports the tier's node name.
func (t *Tier) Name() string { return t.cfg.Name }

// Level reports the tier's level label ("row", "building", ...).
func (t *Tier) Level() string { return t.cfg.Level }

// Agent exposes the tier's upward-facing control-plane agent; mount
// Agent().Handler() to serve the tier as a node.
func (t *Tier) Agent() *powerapi.Agent { return t.agent }

// Coordinator exposes the tier's downward-facing coordinator.
func (t *Tier) Coordinator() *cluster.Coordinator { return t.coord }

// Transport returns an in-process transport for the tier's agent — how
// a parent in the same process adopts this tier as a child without a
// loopback hop. coord names the parent in lease messages. It is Local only
// while every child of the tier is: a grant cascades to the children, and
// one that waits on I/O must not hold up the tier's siblings.
func (t *Tier) Transport(coord string) cluster.Transport {
	return tierTransport{cluster.NewAgentTransport(t.agent, coord), t}
}

// tierTransport is a tier's in-process transport.
type tierTransport struct {
	*cluster.AgentTransport
	t *Tier
}

func (x tierTransport) Local() bool { return x.t.coord.Local() }

// Step runs one reallocation round over the tier's children.
func (t *Tier) Step(ctx context.Context) error { return t.coord.Step(ctx) }

// SetBudget cascades a budget change to the tier's children; see
// cluster.Coordinator.SetBudget for the shrink handshake.
func (t *Tier) SetBudget(ctx context.Context, b units.Watts) error {
	return t.coord.SetBudget(ctx, b)
}

// SetChildren changes the tier's children in place (registration, drain,
// re-admission); see cluster.Coordinator.SetChildren for what a child that
// stays keeps. Surviving children shrink before newcomers grow, so the
// change never transiently over-commits the tier's budget.
func (t *Tier) SetChildren(children []cluster.Transport) error {
	if err := t.coord.SetChildren(children); err != nil {
		return fmt.Errorf("hierarchy: tier %s: %w", t.cfg.Name, err)
	}
	return nil
}

// Close stops the tier agent's lease-expiry timer.
func (t *Tier) Close() { t.agent.Close() }

// tierBackend adapts the tier to the agent's Backend: the subtree
// aggregate is the status, a granted limit is a cascaded budget.
type tierBackend struct{ t *Tier }

func (b tierBackend) FillStatus(st *powerapi.NodeStatus) {
	c := b.t.coord
	agg := c.Aggregate()
	budget := c.Budget()
	st.Policy = b.t.policy
	st.LimitWatts = float64(budget)
	st.PowerWatts = float64(agg.Power)
	st.MaxWatts = float64(agg.Max)
	if agg.Max == 0 {
		// No child has reported yet; the budget is the best available
		// stand-in for what the subtree could absorb, and reporting 0
		// would make the parent starve the tier down to its floor.
		st.MaxWatts = float64(budget)
	}
	st.Iterations = int(c.Rounds())
	st.Energy = agg.Energy
	st.Tier = &powerapi.TierStatus{
		Tier:        b.t.cfg.Level,
		Children:    agg.Children,
		Nodes:       agg.Leaves,
		Depth:       agg.Depth,
		Quarantined: agg.Quarantined,
		BudgetWatts: float64(budget),
	}
}

// SetLimit is the recursive conservation hinge: the tier's granted cap
// becomes its coordinator's budget, and a shrink reports success only
// once the children's acknowledged ledger fits under it — so the
// refusing agent keeps the parent's ledger honest on failure.
func (b tierBackend) SetLimit(ctx context.Context, limit units.Watts) error {
	return b.t.SetBudget(ctx, limit)
}

// EnforceFallback clamps the cascaded budget when the tier's own lease
// expires (or it drains). Unlike a granted shrink — which the tier may
// refuse so the parent's ledger stays honest — an expiry cannot be
// refused: the parent already wrote the tier off at its fallback and
// may re-grant the difference. So the clamp is forced: reachable
// children shrink now, unreachable ones keep their stale caps only
// until their own leases lapse, and no future wave plans above the
// fallback. That bounded lapse is the "rows revert within one TTL,
// leaves within two" cascade.
func (b tierBackend) EnforceFallback(ctx context.Context, limit units.Watts) {
	// The only error ForceBudget can return is a budget below the floor
	// sum, and construction pins the floors to fractions of this same
	// fallback figure — so the clamp cannot fail.
	_ = b.t.coord.ForceBudget(ctx, limit)
}
