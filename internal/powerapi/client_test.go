package powerapi

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestCoordClientRoundTrips drives Register and Heartbeat against a fake
// coordinator mounted under a path prefix: the requests arrive where the
// prefix says, as the protocol's POSTs with the context's round in the
// envelope, and an error envelope comes back as its *ErrorReply.
func TestCoordClientRoundTrips(t *testing.T) {
	type seen struct {
		method, path, contentType, accept string
		round                             uint64
		msg                               any
	}
	var got []seen
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := seen{method: r.Method, path: r.URL.Path, contentType: r.Header.Get("Content-Type"), accept: r.Header.Get("Accept")}
		want := KindHeartbeat
		if strings.HasSuffix(r.URL.Path, "register") {
			want = KindRegister
		}
		msg, round, ok := readMsg(w, r, want)
		if !ok {
			return
		}
		s.msg, s.round = msg, round
		got = append(got, s)
		switch m := msg.(type) {
		case *Register:
			writeMsgRound(w, http.StatusOK, &RegisterAck{Accepted: true}, round)
		case *Heartbeat:
			if m.Node == "stranger" {
				writeErr(w, http.StatusConflict, CodeInvalid, "node %s never registered", m.Node)
				return
			}
			writeMsgRound(w, http.StatusOK, &HeartbeatAck{Known: true}, round)
		}
	}))
	defer srv.Close()

	for _, tc := range []struct{ base, prefix string }{
		{srv.URL, ""},
		{srv.URL + "/coord/", "/coord"},
		{strings.TrimPrefix(srv.URL, "http://") + "/a/b", "/a/b"},
	} {
		got = nil
		base, prefix := tc.base, tc.prefix
		c := NewCoordClient(base)
		ctx := WithRound(context.Background(), 41)
		ack, err := c.Register(ctx, "n0", "host0:9090")
		if err != nil || !ack.Accepted {
			t.Fatalf("%s: register: %+v, %v", base, ack, err)
		}
		hb, err := c.Heartbeat(ctx, "n0")
		if err != nil || !hb.Known {
			t.Fatalf("%s: heartbeat: %+v, %v", base, hb, err)
		}
		_, err = c.Heartbeat(context.Background(), "stranger")
		var reply *ErrorReply
		if !errors.As(err, &reply) || reply.Code != CodeInvalid || !strings.Contains(reply.Message, "stranger") {
			t.Fatalf("%s: heartbeat of a stranger: %v, want the coordinator's invalid reply", base, err)
		}
		want := []seen{
			{http.MethodPost, prefix + ClusterPrefix + "register", ContentType, ContentType, 41, &Register{Node: "n0", Addr: "host0:9090"}},
			{http.MethodPost, prefix + ClusterPrefix + "heartbeat", ContentType, ContentType, 41, &Heartbeat{Node: "n0"}},
			{http.MethodPost, prefix + ClusterPrefix + "heartbeat", ContentType, ContentType, 0, &Heartbeat{Node: "stranger"}},
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d requests arrived, want %d", base, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.method != w.method || g.path != w.path || g.contentType != w.contentType || g.accept != w.accept || g.round != w.round {
				t.Errorf("%s: request %d arrived as %+v, want %+v", base, i, g, w)
			}
			if gm, _ := Marshal(g.msg); string(gm) != string(mustMarshal(t, w.msg)) {
				t.Errorf("%s: request %d carried %s, want %s", base, i, gm, mustMarshal(t, w.msg))
			}
		}
	}

	// An address that does not parse fails every call, as it always did,
	// rather than the constructor.
	if _, err := NewCoordClient("http://bad host/").Register(context.Background(), "n0", "a"); err == nil || !strings.HasPrefix(err.Error(), "powerapi: ") {
		t.Fatalf("unparseable address: %v", err)
	}
}

func mustMarshal(t *testing.T, msg any) []byte {
	t.Helper()
	data, err := Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// deadlineTripper answers every request with one status frame and records
// the deadline each request's context carried.
type deadlineTripper struct {
	deadlines []time.Time
	has       []bool
}

func (d *deadlineTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	dl, ok := req.Context().Deadline()
	d.deadlines, d.has = append(d.deadlines, dl), append(d.has, ok)
	body, err := Marshal(&NodeStatus{Node: "n0"})
	if err != nil {
		return nil, err
	}
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(bytes.NewReader(body)), Request: req}, nil
}

// TestClientTimeoutIsTheRequestDeadline: a client's Timeout reaches its
// transport as each request's context deadline, that far from the call;
// without one a request carries no deadline.
func TestClientTimeoutIsTheRequestDeadline(t *testing.T) {
	const d = time.Hour
	ctx := context.Background()
	rt := &deadlineTripper{}
	timed := NewClient("n0:9090").WithHTTPClient(&http.Client{Transport: rt, Timeout: d})
	before := time.Now()
	if _, err := timed.Status(ctx); err != nil {
		t.Fatal(err)
	}
	var f StatusFollower
	if _, err := timed.FollowStatus(ctx, &f, false); err != nil {
		t.Fatal(err)
	}
	after := time.Now()
	for i, dl := range rt.deadlines {
		if !rt.has[i] || dl.Before(before.Add(d)) || dl.After(after.Add(d)) {
			t.Errorf("request %d: deadline %v (set %v), want %v after the call", i, dl, rt.has[i], d)
		}
	}
	rt = &deadlineTripper{}
	if _, err := NewClient("n0:9090").WithHTTPClient(&http.Client{Transport: rt}).Status(ctx); err != nil {
		t.Fatal(err)
	}
	if rt.has[0] {
		t.Errorf("a client without a timeout gave its request the deadline %v", rt.deadlines[0])
	}
}

// TestClientDoesNotFollowRedirects: a redirect is the node's answer, and
// not a status frame, so the call fails naming it and never asks the
// address it points to.
func TestClientDoesNotFollowRedirects(t *testing.T) {
	followed := 0
	mux := http.NewServeMux()
	mux.HandleFunc(PathPrefix+"status", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "/elsewhere", http.StatusFound)
	})
	mux.HandleFunc("/elsewhere", func(w http.ResponseWriter, r *http.Request) {
		followed++
		writeMsg(w, http.StatusOK, &NodeStatus{Node: "n0"})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	_, err := NewClient(srv.URL).Status(context.Background())
	if err == nil || !strings.Contains(err.Error(), "HTTP 302") {
		t.Fatalf("redirected status: %v, want an error naming HTTP 302", err)
	}
	if followed != 0 {
		t.Fatalf("the redirect was followed %d times", followed)
	}
}
