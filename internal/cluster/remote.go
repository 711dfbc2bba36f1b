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

	// collect asks every status poll for the node's metrics field.
	collect bool

	// follower holds this transport's view of the node: steady-state
	// polls fetch a delta frame on top of it, and whenever the node
	// cannot produce one the reply is a full frame (see
	// powerapi.StatusFollower). The coordinator never has two reports
	// to one node in flight, and the follower locks itself.
	follower powerapi.StatusFollower
}

// NewHTTPNode builds a transport for a remote node reachable at addr
// (the node's observability listen address). coord names the granting
// coordinator in lease messages; it may be empty.
func NewHTTPNode(name, addr, coord string) *HTTPNode {
	return &HTTPNode{name: name, coord: coord, client: powerapi.NewClient(addr)}
}

// WithHTTPClient sends every call through c's Transport, under a deadline
// of c.Timeout when it is set; only those two are used
// (powerapi.Client.WithHTTPClient).
func (h *HTTPNode) WithHTTPClient(c *http.Client) *HTTPNode {
	h.client.WithHTTPClient(c)
	return h
}

// CollectMetrics makes every report carry the node's metrics registry
// for fleet aggregation, as one more field of the status frame.
func (h *HTTPNode) CollectMetrics() *HTTPNode {
	h.collect = true
	return h
}

// DeltaStatus does nothing: every HTTPNode follows the status frame
// chain.
//
// Deprecated: kept only until benchmark/, which may not change in the
// same PR as the code it measures, drops its call.
func (h *HTTPNode) DeltaStatus() *HTTPNode { return h }

func (h *HTTPNode) Name() string { return h.name }

// Local is false: every report is an HTTP round trip.
func (h *HTTPNode) Local() bool { return false }

// Report polls the node's status. The Status it returns is the
// follower's view, shared with later views: read it, never modify it.
func (h *HTTPNode) Report(ctx context.Context) (Report, error) {
	st, err := h.client.FollowStatus(ctx, &h.follower, h.collect)
	if err != nil {
		return Report{}, err
	}
	return Report{
		Power:  units.Watts(st.PowerWatts),
		Limit:  units.Watts(st.LimitWatts),
		Max:    units.Watts(st.MaxWatts),
		Status: st,
	}, nil
}

func (h *HTTPNode) Grant(ctx context.Context, g Grant) error {
	ack, err := h.client.Lease(ctx, &powerapi.LeaseGrant{
		ID:            h.leaseID.Add(1),
		Coordinator:   h.coord,
		LimitWatts:    float64(g.Limit),
		TTLMS:         g.TTLMillis(),
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
