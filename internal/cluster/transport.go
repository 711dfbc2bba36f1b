package cluster

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/powerapi"
	"repro/internal/units"
)

// Report is one node's telemetry as the coordinator sees it: enough to bid
// in the room-level water-fill.
type Report struct {
	// Power is the node's package power as its status reports it: a
	// daemon's, averaged over its last control interval.
	Power units.Watts
	// Limit is the cap the node currently enforces.
	Limit units.Watts
	// Max is the highest cap the node can usefully absorb (the chip's
	// RAPL maximum).
	Max units.Watts
	// Status carries the node's full status frame when the transport has
	// one (networked transports piggyback it on the report RPC). Fleet
	// aggregation reads app shares and metrics from it; the water-fill
	// never does. It is complete — a transport that fetches deltas
	// merges them first — and read-only. Nil for transports that only
	// know power numbers. It is borrowed: valid until the transport's next
	// Report, which may overwrite it, so whoever keeps part of it past the
	// round copies that part. What it points to is never written again.
	Status *powerapi.NodeStatus
}

// Grant is one budget lease the coordinator extends to a node: the cap to
// enforce, how long the promise lasts without renewal, and the safe cap the
// node must revert to when it expires. The sum of outstanding grants (or
// fallbacks, once expired) never exceeds the room budget, so no partition
// can over-commit it.
type Grant struct {
	Limit    units.Watts
	TTL      time.Duration
	Fallback units.Watts
}

// TTLMillis is the TTL as a lease grant carries it. A positive TTL under a
// millisecond rounds up to one: zero is a grant every agent refuses.
func (g Grant) TTLMillis() int64 {
	if ms := g.TTL.Milliseconds(); ms != 0 || g.TTL <= 0 {
		return ms
	}
	return 1
}

// Transport is the coordinator's view of one node's powerapi agent. The
// in-process implementation (AgentTransport) calls the agent directly; the
// networked one speaks the powerapi wire protocol to a remote powerd. Either
// way the node holds a lease that lapses to its fallback cap unless renewed.
type Transport interface {
	// Name identifies the node in metrics and errors.
	Name() string
	// Report fetches the node's current telemetry.
	Report(ctx context.Context) (Report, error)
	// Grant leases part of the room budget to the node.
	Grant(ctx context.Context, g Grant) error
	// Local reports that Report and Grant act on state this process
	// already holds and never wait on I/O, as AgentTransport's do. The
	// coordinator calls a Local node on the stepping goroutine, one after
	// another in index order, and hands the rest to its pollers, whose
	// waits are worth overlapping. Every call still runs under its wave's
	// deadline context, so a transport that wrongly claims Local costs its
	// siblings sequential timeouts, never a hang. A wrapper that embeds a
	// Transport inherits the answer; one that adds blocking of its own
	// must answer false, and so must a tier whose grant cascades to a
	// child that is not Local.
	Local() bool
}

// AgentTransport drives a powerapi agent in-process: the coordinator's
// Transport without a network between. Reports come from the agent's
// own status (so lease state, tier rollups, and energy summaries ride
// along exactly as they would over HTTP); grants run the agent's full
// lease state machine with monotonic IDs. It is how a simulated node, or a
// SimTree's leaf, meets its coordinator without a loopback round-trip.
// It owns one status frame, refilled by every Report: the Status a Report
// returns is borrowed until the next, and a quiet report allocates nothing.
type AgentTransport struct {
	a       *powerapi.Agent
	coord   string
	leaseID atomic.Uint64
	st      powerapi.NodeStatus
	lease   powerapi.LeaseInfo
}

// NewAgentTransport wraps an agent; coord names the granting
// coordinator in lease messages (it may be empty).
func NewAgentTransport(a *powerapi.Agent, coord string) *AgentTransport {
	return &AgentTransport{a: a, coord: coord}
}

func (t *AgentTransport) Name() string { return t.a.Name() }

// Local is true: Report is a snapshot of the agent's status, state held
// in this process.
func (t *AgentTransport) Local() bool { return true }

func (t *AgentTransport) Report(ctx context.Context) (Report, error) {
	st := &t.st
	t.a.StatusInto(st, &t.lease)
	return Report{
		Power:  units.Watts(st.PowerWatts),
		Limit:  units.Watts(st.LimitWatts),
		Max:    units.Watts(st.MaxWatts),
		Status: st,
	}, nil
}

// Grant runs the agent's lease state machine; a renewal allocates nothing.
func (t *AgentTransport) Grant(ctx context.Context, g Grant) error {
	lg := powerapi.LeaseGrant{
		ID:            t.leaseID.Add(1),
		Coordinator:   t.coord,
		LimitWatts:    float64(g.Limit),
		TTLMS:         g.TTLMillis(),
		FallbackWatts: float64(g.Fallback),
	}
	_, err := t.a.GrantCtx(ctx, &lg)
	return err
}

var _ Transport = (*AgentTransport)(nil)
