package cluster

import (
	"context"
	"time"

	"repro/internal/powerapi"
	"repro/internal/units"
)

// Report is one node's telemetry as the coordinator sees it: enough to bid
// in the room-level water-fill.
type Report struct {
	// Power is the node's instantaneous package power.
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

// Transport is the coordinator's view of one node. The in-process
// implementation wraps a Node directly; the networked one speaks the
// powerapi wire protocol to a remote powerd. Both are exercised by the same
// coordinator code.
type Transport interface {
	// Name identifies the node in metrics and errors.
	Name() string
	// Report fetches the node's current telemetry.
	Report(ctx context.Context) (Report, error)
	// Grant leases part of the room budget to the node.
	Grant(ctx context.Context, g Grant) error
	// Local reports that Report reads state this process already holds
	// and never waits on I/O. The coordinator polls a Local node on the
	// stepping goroutine, one after another in index order, and spends a
	// goroutine per node only on the rest, whose waits are worth
	// overlapping. Every report still runs under the round's deadline
	// context, so a transport that wrongly claims Local costs its
	// siblings sequential timeouts, never a hang. A wrapper that embeds a
	// Transport inherits the answer; one that adds blocking of its own
	// must answer false. Grants are fanned out regardless: a tier's grant
	// cascades to its own children and may wait on them.
	Local() bool
}

// localTransport adapts an in-process Node: calls go straight into the
// daemon, cannot time out, and ignore lease TTLs (an in-process node cannot
// be partitioned from its coordinator).
type localTransport struct{ n *Node }

func (t localTransport) Name() string { return t.n.Name }

func (t localTransport) Local() bool { return true }

func (t localTransport) Report(context.Context) (Report, error) {
	return Report{
		Power: t.n.M.PackagePower(),
		Limit: t.n.Daemon.Limit(),
		Max:   t.n.M.Chip().RAPLMax,
	}, nil
}

func (t localTransport) Grant(_ context.Context, g Grant) error {
	return t.n.Daemon.SetLimit(g.Limit)
}
