package powerapi

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client speaks the node side of the protocol to one powerd daemon —
// the coordinator's and powerctl's view of a remote node.
type Client struct {
	base *url.URL // the address, parsed once; every request's URL is a copy
	err  error    // why the address did not parse, reported by every call

	// All the client takes of an http.Client (WithHTTPClient): the
	// control plane follows no redirect and keeps no cookie, so requests
	// skip http.Client.Do and its per-request header copy.
	rt      http.RoundTripper
	timeout time.Duration // each request's deadline, when positive
}

// NewClient builds a client for a node's observability address
// (e.g. "127.0.0.1:9090" or "http://node7:9090").
func NewClient(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	base, err := url.Parse(strings.TrimRight(addr, "/"))
	return &Client{base: base, err: err, rt: http.DefaultTransport}
}

// WithHTTPClient sends every request through h's Transport
// (http.DefaultTransport when nil) and, when h.Timeout is set, gives each
// request a deadline that far away. Nothing else of h is used: a redirect
// is not followed but returned as an error, and no cookie is kept.
func (c *Client) WithHTTPClient(h *http.Client) *Client {
	c.rt, c.timeout = h.Transport, h.Timeout
	if c.rt == nil {
		c.rt = http.DefaultTransport
	}
	return c
}

// The request headers, shared by every request: a RoundTripper does not
// modify the request it is given.
var (
	getHeader  = http.Header{"Accept": jsonHeader}
	postHeader = http.Header{"Accept": jsonHeader, "Content-Type": jsonHeader}
)

// readReply reads r to its end into b, or to one byte past limit.
func readReply(r io.Reader, b []byte, limit int) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):min(cap(b), limit+1)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil || len(b) > limit {
			return b, err
		}
	}
}

// roundTrip performs one request and decodes the expected reply kind;
// ErrorReply envelopes surface as *ErrorReply errors. A control-round
// ID on the context (WithRound) is propagated: bodied requests carry it in
// the envelope, body-less ones as round= appended to the caller's query.
func (c *Client) roundTrip(ctx context.Context, method, path string, query []byte, msg any, want string) (any, error) {
	if c.err != nil {
		return nil, fmt.Errorf("powerapi: %w", c.err)
	}
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	u := *c.base
	u.Path += path
	if u.RawPath != "" {
		u.RawPath += path
	}
	req := (&http.Request{Method: method, URL: &u, Host: u.Host, Header: getHeader,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1}).WithContext(ctx)
	if round := RoundFrom(ctx); msg != nil {
		data, err := MarshalRound(msg, round)
		if err != nil {
			return nil, err
		}
		req.Header = postHeader
		req.ContentLength = int64(len(data))
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(data)), nil }
		req.Body, _ = req.GetBody()
	} else if round != 0 {
		if len(query) > 0 {
			query = append(query, '&')
		}
		query = strconv.AppendUint(append(query, "round="...), round, 10)
	}
	u.RawQuery = string(query)
	resp, err := c.rt.RoundTrip(req)
	if err != nil {
		return nil, fmt.Errorf("powerapi: %s %s: %w", method, u.RequestURI(), err)
	}
	defer resp.Body.Close()
	// The reply is read into a pooled buffer; every decoder copies what
	// it keeps, so nothing returned below aliases it.
	buf := bufPool.Get().(*[]byte)
	defer bufPool.Put(buf)
	data, err := readReply(resp.Body, (*buf)[:0], maxBody)
	*buf = data
	if err != nil {
		return nil, fmt.Errorf("powerapi: %s %s: reading reply: %w", method, u.RequestURI(), err)
	}
	if len(data) > maxBody {
		return nil, fmt.Errorf("powerapi: %s %s: reply over %d bytes", method, u.RequestURI(), maxBody)
	}
	reply, err := UnmarshalAs(data, want)
	if err != nil {
		if _, ok := err.(*ErrorReply); !ok && resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("powerapi: %s %s: HTTP %d: %s", method, u.RequestURI(), resp.StatusCode, firstLine(data))
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
	reply, err := c.roundTrip(ctx, http.MethodGet, PathPrefix+"status", nil, nil, KindStatus)
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
	var scratch [96]byte // follow=<20>.<20>&metrics=1&round=<20>
	q := strconv.AppendUint(append(scratch[:0], "follow="...), epoch, 10)
	q = strconv.AppendUint(append(q, '.'), rev, 10)
	if metrics {
		q = append(q, "&metrics=1"...)
	}
	reply, err := c.roundTrip(ctx, http.MethodGet, PathPrefix+"status", q, nil, KindStatus)
	if err != nil {
		return nil, err
	}
	return f.Apply(reply.(*NodeStatus))
}

// Lease extends a budget grant to the node.
func (c *Client) Lease(ctx context.Context, g *LeaseGrant) (*LeaseAck, error) {
	reply, err := c.roundTrip(ctx, http.MethodPost, PathPrefix+"lease", nil, g, KindLeaseAck)
	if err != nil {
		return nil, err
	}
	return reply.(*LeaseAck), nil
}

// Reconfigure applies a live configuration change to the node's daemon.
func (c *Client) Reconfigure(ctx context.Context, rc *Reconfigure) (*ReconfigureAck, error) {
	reply, err := c.roundTrip(ctx, http.MethodPost, PathPrefix+"reconfigure", nil, rc, KindReconfigureAck)
	if err != nil {
		return nil, err
	}
	return reply.(*ReconfigureAck), nil
}

// Drain toggles the node's drain mode.
func (c *Client) Drain(ctx context.Context, on bool) (*DrainAck, error) {
	reply, err := c.roundTrip(ctx, http.MethodPost, PathPrefix+"drain", nil, &Drain{On: on}, KindDrainAck)
	if err != nil {
		return nil, err
	}
	return reply.(*DrainAck), nil
}

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
