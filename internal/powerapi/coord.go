package powerapi

import (
	"context"
	"net/http"
)

// CoordClient speaks the coordinator side of the protocol — how nodes
// register themselves and operators inspect the room.
type CoordClient struct{ c *Client }

// NewCoordClient builds a client for a coordinator's address.
func NewCoordClient(addr string) *CoordClient {
	return &CoordClient{c: NewClient(addr)}
}

// Register announces a node to the coordinator.
func (c *CoordClient) Register(ctx context.Context, node, addr string) (*RegisterAck, error) {
	reply, err := c.c.roundTrip(ctx, http.MethodPost, ClusterPrefix+"register", nil, &Register{Node: node, Addr: addr}, KindRegisterAck)
	if err != nil {
		return nil, err
	}
	return reply.(*RegisterAck), nil
}

// Heartbeat keeps a node's registration alive.
func (c *CoordClient) Heartbeat(ctx context.Context, node string) (*HeartbeatAck, error) {
	reply, err := c.c.roundTrip(ctx, http.MethodPost, ClusterPrefix+"heartbeat", nil, &Heartbeat{Node: node}, KindHeartbeatAck)
	if err != nil {
		return nil, err
	}
	return reply.(*HeartbeatAck), nil
}

// ClusterStatus fetches the coordinator's view of its tier.
func (c *CoordClient) ClusterStatus(ctx context.Context) (*ClusterStatus, error) {
	reply, err := c.c.roundTrip(ctx, http.MethodGet, ClusterPrefix+"status", nil, nil, KindClusterStatus)
	if err != nil {
		return nil, err
	}
	return reply.(*ClusterStatus), nil
}

// Members is what a coordinator's cluster endpoints answer from: the
// nodes that registered, and its view of the tier they make up.
type Members interface {
	// Register adds a node under a name, or moves it to a new address.
	Register(node, addr string)
	// Known reports whether a node is registered.
	Known(node string) bool
	ClusterStatus() *ClusterStatus
}

// CoordHandler serves a coordinator's cluster endpoints over m: register
// and heartbeat (POST), status (GET). Mount it under ClusterPrefix.
func CoordHandler(m Members) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(ClusterPrefix+"register", func(w http.ResponseWriter, r *http.Request) {
		msg, round, ok := readMsg(w, r, KindRegister)
		if !ok {
			return
		}
		reg := msg.(*Register)
		if reg.Node == "" || reg.Addr == "" {
			writeErr(w, http.StatusBadRequest, CodeInvalid, "register needs node and addr")
			return
		}
		m.Register(reg.Node, reg.Addr)
		writeMsgRound(w, http.StatusOK, &RegisterAck{Accepted: true}, round)
	})
	mux.HandleFunc(ClusterPrefix+"heartbeat", func(w http.ResponseWriter, r *http.Request) {
		msg, round, ok := readMsg(w, r, KindHeartbeat)
		if !ok {
			return
		}
		writeMsgRound(w, http.StatusOK, &HeartbeatAck{Known: m.Known(msg.(*Heartbeat).Node)}, round)
	})
	mux.HandleFunc(ClusterPrefix+"status", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			writeErr(w, http.StatusMethodNotAllowed, CodeBadRequest, "%s requires GET", r.URL.Path)
			return
		}
		writeMsg(w, http.StatusOK, m.ClusterStatus())
	})
	return mux
}
