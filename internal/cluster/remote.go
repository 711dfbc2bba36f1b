package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"

	"repro/internal/powerapi"
	"repro/internal/units"
)

// HTTPNode is a Transport over the powerapi wire protocol: the coordinator
// code that drives in-process simulations drives remote powerd daemons
// through this adapter unchanged.
type HTTPNode struct {
	name    string
	coord   string
	client  *powerapi.Client
	leaseID atomic.Uint64

	// collect enables piggybacked metrics snapshots on report RPCs.
	// synced tracks whether the node has a baseline for delta encoding:
	// the first report (and the first after any error) requests a full
	// snapshot, steady state requests deltas.
	collect bool
	synced  atomic.Bool

	// follower, when non-nil, switches status RPCs to the delta-encoded
	// stream: steady-state reports carry only changed fields, and any
	// inapplicable delta or transport error forces a full resync. The
	// coordinator serialises rounds, so the follower needs no lock here.
	follower *powerapi.StatusFollower
}

// NewHTTPNode builds a transport for a remote node reachable at addr
// (the node's observability listen address). coord names the granting
// coordinator in lease messages; it may be empty.
func NewHTTPNode(name, addr, coord string) *HTTPNode {
	return &HTTPNode{name: name, coord: coord, client: powerapi.NewClient(addr)}
}

// WithHTTPClient swaps the underlying HTTP client (tests, timeouts).
func (h *HTTPNode) WithHTTPClient(c *http.Client) *HTTPNode {
	h.client.WithHTTPClient(c)
	return h
}

// CollectMetrics makes every report RPC piggyback the node's metrics
// snapshot for fleet aggregation: full on first contact and after any
// transport error, delta-encoded once a baseline exists.
func (h *HTTPNode) CollectMetrics() *HTTPNode {
	h.collect = true
	return h
}

// DeltaStatus switches report RPCs to the delta-encoded status stream
// (see powerapi.StatusFollower): after the first full snapshot the node
// replies with only the fields that changed since the last report,
// which is what keeps a thousand-leaf tier tree's uplink traffic flat.
// Deltas are stateful on the server side, so enable this only when this
// transport is the node's sole status poller.
func (h *HTTPNode) DeltaStatus() *HTTPNode {
	h.follower = &powerapi.StatusFollower{}
	return h
}

func (h *HTTPNode) Name() string { return h.name }

// Local is false: every report is an HTTP round trip.
func (h *HTTPNode) Local() bool { return false }

func (h *HTTPNode) Report(ctx context.Context) (Report, error) {
	mode := powerapi.MetricsNone
	full := false
	if h.collect {
		if full = !h.synced.Load(); full {
			mode = powerapi.MetricsFull
		} else {
			mode = powerapi.MetricsDelta
		}
	}
	var st *powerapi.NodeStatus
	var err error
	if h.follower != nil {
		st, err = h.client.FollowStatus(ctx, h.follower, mode)
	} else {
		st, err = h.client.StatusWithMetrics(ctx, mode)
	}
	if err != nil {
		// The reply (and any delta it carried) is lost; resync with a
		// full snapshot on the next report.
		h.synced.Store(false)
		return Report{}, err
	}
	if h.collect {
		h.synced.Store(true)
	}
	return Report{
		Power:       units.Watts(st.PowerWatts),
		Limit:       units.Watts(st.LimitWatts),
		Max:         units.Watts(st.MaxWatts),
		Status:      st,
		MetricsFull: full,
	}, nil
}

func (h *HTTPNode) Grant(ctx context.Context, g Grant) error {
	ack, err := h.client.Lease(ctx, &powerapi.LeaseGrant{
		ID:            h.leaseID.Add(1),
		Coordinator:   h.coord,
		LimitWatts:    float64(g.Limit),
		TTLMS:         g.TTL.Milliseconds(),
		FallbackWatts: float64(g.Fallback),
	})
	if err != nil {
		return err
	}
	if !ack.Applied {
		return fmt.Errorf("cluster: node %s refused grant: %s", h.name, ack.Reason)
	}
	return nil
}
