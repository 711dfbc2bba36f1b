package hierarchy

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/powerapi"
	"repro/internal/tracing"
	"repro/internal/units"
)

// LeafConfig parameterises one simulated leaf node.
type LeafConfig struct {
	// Name identifies the leaf to its row coordinator.
	Name string

	// NodeID stamps the leaf's flight events so a tree-wide recorder can
	// tell nodes apart; use distinct positive IDs (0 means unset).
	NodeID int16

	// Max is the highest cap the leaf can usefully absorb — the chip's
	// RAPL maximum in a real node.
	Max units.Watts

	// Fallback is the safe cap the leaf reverts to on lease expiry; it is
	// also the limit enforced before any coordinator speaks to the leaf.
	Fallback units.Watts

	// Demand is the power the leaf tries to draw; measured power is
	// min(Demand, limit). Adjustable at runtime via SetDemand.
	Demand units.Watts

	// Flight/Tracer/Metrics instrument the leaf's control-plane agent
	// exactly like a real node's; Clock is its clock.
	Flight  *flight.Recorder
	Tracer  *tracing.Tracer
	Metrics *metrics.Registry
	Clock   clock.Clock
}

// Leaf is a simulated leaf node: a full powerapi agent (lease state
// machine, TTL expiry, flight events) over a trivial settable backend
// instead of a power-delivery daemon. Hierarchy tests and benchmarks use
// thousands of them in-process, so the conservation machinery under test
// — leases, fallbacks, grant phasing — is exactly the production code
// path, with only the physics stubbed out.
type Leaf struct {
	be    *leafBackend
	agent *powerapi.Agent
}

// NewLeaf builds a leaf enforcing its fallback cap.
func NewLeaf(cfg LeafConfig) (*Leaf, error) {
	if cfg.Max <= 0 {
		return nil, fmt.Errorf("hierarchy: leaf %s needs a positive max, got %v", cfg.Name, cfg.Max)
	}
	if cfg.Fallback <= 0 || cfg.Fallback > cfg.Max {
		return nil, fmt.Errorf("hierarchy: leaf %s fallback %v outside (0, %v]", cfg.Name, cfg.Fallback, cfg.Max)
	}
	if cfg.Demand < 0 {
		return nil, fmt.Errorf("hierarchy: leaf %s demand %v negative", cfg.Name, cfg.Demand)
	}
	be := &leafBackend{limit: cfg.Fallback, demand: cfg.Demand, max: cfg.Max}
	a, err := powerapi.NewAgent(powerapi.AgentConfig{
		Name:     cfg.Name,
		NodeID:   cfg.NodeID,
		Backend:  be,
		Fallback: cfg.Fallback,
		Flight:   cfg.Flight,
		Tracer:   cfg.Tracer,
		Metrics:  cfg.Metrics,
		Clock:    cfg.Clock,
	})
	if err != nil {
		return nil, err
	}
	return &Leaf{be: be, agent: a}, nil
}

// Name reports the leaf's node name.
func (l *Leaf) Name() string { return l.agent.Name() }

// SetDemand changes the power the leaf tries to draw.
func (l *Leaf) SetDemand(w units.Watts) {
	l.be.mu.Lock()
	l.be.demand = w
	l.be.mu.Unlock()
}

// Limit reports the cap the leaf currently enforces.
func (l *Leaf) Limit() units.Watts {
	l.be.mu.Lock()
	defer l.be.mu.Unlock()
	return l.be.limit
}

// Transport returns an in-process coordinator transport for the leaf,
// naming coord as the granting coordinator in lease messages.
func (l *Leaf) Transport(coord string) *cluster.AgentTransport {
	return cluster.NewAgentTransport(l.agent, coord)
}

// Close stops the leaf's lease-expiry timer.
func (l *Leaf) Close() { l.agent.Close() }

// leafBackend is the settable stand-in for a leaf daemon.
type leafBackend struct {
	mu     sync.Mutex
	limit  units.Watts
	demand units.Watts
	max    units.Watts
	iters  int
}

// power is demand clipped to the enforced cap. Caller holds mu.
func (b *leafBackend) power() units.Watts {
	if b.demand < b.limit {
		return b.demand
	}
	return b.limit
}

func (b *leafBackend) FillStatus(st *powerapi.NodeStatus) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st.Policy = "sim-leaf"
	st.LimitWatts = float64(b.limit)
	st.PowerWatts = float64(b.power())
	st.MaxWatts = float64(b.max)
	st.Iterations = b.iters
}

func (b *leafBackend) SetLimit(_ context.Context, limit units.Watts) error {
	if limit <= 0 {
		return fmt.Errorf("hierarchy: leaf cap %v not positive", limit)
	}
	b.mu.Lock()
	b.limit = limit
	b.iters++
	b.mu.Unlock()
	return nil
}
