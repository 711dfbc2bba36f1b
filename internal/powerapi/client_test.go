package powerapi

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
