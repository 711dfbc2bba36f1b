package powerapi

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Client speaks the node side of the protocol to one powerd daemon —
// the coordinator's and powerctl's view of a remote node.
type Client struct {
	base string
	http *http.Client
}

// NewClient builds a client for a node's observability address
// (e.g. "127.0.0.1:9090" or "http://node7:9090").
func NewClient(addr string) *Client {
	return &Client{base: normalize(addr), http: http.DefaultClient}
}

// WithHTTPClient swaps the underlying HTTP client (tests, timeouts).
func (c *Client) WithHTTPClient(h *http.Client) *Client {
	c.http = h
	return c
}

func normalize(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// roundTrip performs one request and decodes the expected reply kind;
// ErrorReply envelopes surface as *ErrorReply errors. A control-round
// ID on the context (WithRound) is propagated: bodied requests carry it
// in the envelope, body-less ones as a ?round= query parameter.
func (c *Client) roundTrip(ctx context.Context, method, path string, msg any, want string) (any, error) {
	round := RoundFrom(ctx)
	var body io.Reader
	if msg != nil {
		data, err := MarshalRound(msg, round)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(data)
	} else if round != 0 {
		sep := "?"
		if strings.Contains(path, "?") {
			sep = "&"
		}
		path += sep + "round=" + strconv.FormatUint(round, 10)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, fmt.Errorf("powerapi: %w", err)
	}
	if msg != nil {
		req.Header.Set("Content-Type", ContentType)
	}
	req.Header.Set("Accept", ContentType)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("powerapi: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBody+1))
	if err != nil {
		return nil, fmt.Errorf("powerapi: %s %s: reading reply: %w", method, path, err)
	}
	if len(data) > maxBody {
		return nil, fmt.Errorf("powerapi: %s %s: reply over %d bytes", method, path, maxBody)
	}
	reply, err := UnmarshalAs(data, want)
	if err != nil {
		if _, ok := err.(*ErrorReply); !ok && resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("powerapi: %s %s: HTTP %d: %s", method, path, resp.StatusCode, firstLine(data))
		}
		return nil, err
	}
	return reply, nil
}

func firstLine(data []byte) string {
	s := strings.TrimSpace(string(data))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// Status fetches the node's control-plane status: a stateless full read
// that leaves the agent's follower baseline alone.
func (c *Client) Status(ctx context.Context) (*NodeStatus, error) {
	reply, err := c.roundTrip(ctx, http.MethodGet, PathPrefix+"status", nil, KindStatus)
	if err != nil {
		return nil, err
	}
	return reply.(*NodeStatus), nil
}

// FollowStatus advances f by one poll and returns its view: the request
// names the frame f holds (0.0 on first contact and after a refused
// frame), and the agent answers with a delta on top of it or, when it
// cannot, a full frame. metrics asks for the metrics field. An error
// costs this poll only: a lost reply leaves f naming a frame the agent
// has moved past, a refused frame leaves it naming none, and either
// way the next poll's reply is a full frame.
func (c *Client) FollowStatus(ctx context.Context, f *StatusFollower, metrics bool) (*NodeStatus, error) {
	epoch, rev := f.held()
	path := fmt.Sprintf("%sstatus?follow=%d.%d", PathPrefix, epoch, rev)
	if metrics {
		path += "&metrics=1"
	}
	reply, err := c.roundTrip(ctx, http.MethodGet, path, nil, KindStatus)
	if err != nil {
		return nil, err
	}
	return f.Apply(reply.(*NodeStatus))
}

// Lease extends a budget grant to the node.
func (c *Client) Lease(ctx context.Context, g *LeaseGrant) (*LeaseAck, error) {
	reply, err := c.roundTrip(ctx, http.MethodPost, PathPrefix+"lease", g, KindLeaseAck)
	if err != nil {
		return nil, err
	}
	return reply.(*LeaseAck), nil
}

// Reconfigure applies a live configuration change to the node's daemon.
func (c *Client) Reconfigure(ctx context.Context, rc *Reconfigure) (*ReconfigureAck, error) {
	reply, err := c.roundTrip(ctx, http.MethodPost, PathPrefix+"reconfigure", rc, KindReconfigureAck)
	if err != nil {
		return nil, err
	}
	return reply.(*ReconfigureAck), nil
}

// Drain toggles the node's drain mode.
func (c *Client) Drain(ctx context.Context, on bool) (*DrainAck, error) {
	reply, err := c.roundTrip(ctx, http.MethodPost, PathPrefix+"drain", &Drain{On: on}, KindDrainAck)
	if err != nil {
		return nil, err
	}
	return reply.(*DrainAck), nil
}

// CoordClient speaks the coordinator side of the protocol — how nodes
// register themselves and operators inspect the room.
type CoordClient struct {
	base string
	http *http.Client
}

// NewCoordClient builds a client for a coordinator's address.
func NewCoordClient(addr string) *CoordClient {
	return &CoordClient{base: normalize(addr), http: http.DefaultClient}
}

func (c *CoordClient) roundTrip(ctx context.Context, method, path string, msg any, want string) (any, error) {
	nc := Client{base: c.base, http: c.http}
	return nc.roundTrip(ctx, method, path, msg, want)
}

// Register announces a node to the coordinator.
func (c *CoordClient) Register(ctx context.Context, node, addr string) (*RegisterAck, error) {
	reply, err := c.roundTrip(ctx, http.MethodPost, ClusterPrefix+"register", &Register{Node: node, Addr: addr}, KindRegisterAck)
	if err != nil {
		return nil, err
	}
	return reply.(*RegisterAck), nil
}

// Heartbeat keeps a node's registration alive.
func (c *CoordClient) Heartbeat(ctx context.Context, node string) (*HeartbeatAck, error) {
	reply, err := c.roundTrip(ctx, http.MethodPost, ClusterPrefix+"heartbeat", &Heartbeat{Node: node}, KindHeartbeatAck)
	if err != nil {
		return nil, err
	}
	return reply.(*HeartbeatAck), nil
}
