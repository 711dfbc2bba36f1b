package powerapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

func TestEnvelopeRoundTripsRoundID(t *testing.T) {
	data, err := MarshalRound(&Heartbeat{Node: "n1"}, 42)
	if err != nil {
		t.Fatal(err)
	}
	env, msg, err := UnmarshalEnvelope(data)
	if err != nil {
		t.Fatal(err)
	}
	if env.Round != 42 || env.Kind != KindHeartbeat {
		t.Fatalf("envelope = %+v", env)
	}
	if msg.(*Heartbeat).Node != "n1" {
		t.Fatalf("body = %+v", msg)
	}

	// Round zero stays off the wire entirely.
	data, err = Marshal(&Heartbeat{Node: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "round") {
		t.Fatalf("round 0 serialised: %s", data)
	}
	if env, _, err := UnmarshalEnvelope(data); err != nil || env.Round != 0 {
		t.Fatalf("env = %+v, err = %v", env, err)
	}
}

// legacyEnvelope is the envelope shape peers decoded before the round
// ID existed. A new envelope must decode into it cleanly, with the
// round field simply ignored — the forward-compatibility contract that
// lets a new coordinator talk to an old node.
type legacyEnvelope struct {
	V    int             `json:"v"`
	Kind string          `json:"kind"`
	Body json.RawMessage `json:"body"`
}

func TestOldDecoderIgnoresRoundField(t *testing.T) {
	data, err := MarshalRound(&Drain{On: true}, 99)
	if err != nil {
		t.Fatal(err)
	}
	var env legacyEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("old decoder rejected new envelope: %v", err)
	}
	if env.V != Version || env.Kind != KindDrain {
		t.Fatalf("old decoder misread envelope: %+v", env)
	}
	var body Drain
	if err := json.Unmarshal(env.Body, &body); err != nil || !body.On {
		t.Fatalf("old decoder misread body: %+v, %v", body, err)
	}
}

func TestEnvelopeToleratesUnknownFields(t *testing.T) {
	// Future envelope metadata must pass through today's decoder...
	wire := `{"v":1,"kind":"drain","body":{"on":true},"round":7,"hop_count":3,"shard":"b"}`
	env, msg, err := UnmarshalEnvelope([]byte(wire))
	if err != nil {
		t.Fatalf("unknown envelope fields rejected: %v", err)
	}
	if env.Round != 7 || !msg.(*Drain).On {
		t.Fatalf("env = %+v, msg = %+v", env, msg)
	}
	// ...while bodies stay strict: drift inside a message is still loud.
	wire = `{"v":1,"kind":"drain","body":{"on":true,"hop_count":3}}`
	if _, _, err := UnmarshalEnvelope([]byte(wire)); err == nil {
		t.Fatal("unknown body field accepted")
	}
}

func TestWithRoundContext(t *testing.T) {
	ctx := context.Background()
	if RoundFrom(ctx) != 0 {
		t.Fatal("fresh context carries a round")
	}
	if RoundFrom(nil) != 0 {
		t.Fatal("nil context carries a round")
	}
	ctx = WithRound(ctx, 5)
	if RoundFrom(ctx) != 5 {
		t.Fatalf("RoundFrom = %d, want 5", RoundFrom(ctx))
	}
	if got := RoundFrom(WithRound(context.Background(), 0)); got != 0 {
		t.Fatalf("zero round stored: %d", got)
	}
}

// TestClientPropagatesRound drives a Client against a fake node and
// checks both propagation paths: the ?round= query parameter on GETs
// and the envelope field on POSTs.
func TestClientPropagatesRound(t *testing.T) {
	var gotQuery, gotEnvelope uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "status"):
			gotQuery, _ = strconv.ParseUint(r.URL.Query().Get("round"), 10, 64)
			writeMsgRound(w, http.StatusOK, &NodeStatus{Node: "n"}, gotQuery)
		case strings.HasSuffix(r.URL.Path, "lease"):
			_, round, ok := readMsg(w, r, KindLeaseGrant)
			if !ok {
				return
			}
			gotEnvelope = round
			writeMsgRound(w, http.StatusOK, &LeaseAck{ID: 1, Applied: true}, round)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	ctx := WithRound(context.Background(), 11)
	if _, err := c.Status(ctx); err != nil {
		t.Fatal(err)
	}
	if gotQuery != 11 {
		t.Fatalf("status round = %d, want 11", gotQuery)
	}
	gotQuery = 0
	if _, err := c.FollowStatus(ctx, &StatusFollower{}, true); err != nil {
		t.Fatal(err)
	}
	if gotQuery != 11 {
		t.Fatalf("follow-status round = %d, want 11", gotQuery)
	}
	if _, err := c.Lease(ctx, &LeaseGrant{ID: 1, LimitWatts: 40, TTLMS: 1000}); err != nil {
		t.Fatal(err)
	}
	if gotEnvelope != 11 {
		t.Fatalf("lease round = %d, want 11", gotEnvelope)
	}
	// Without a round on the context, nothing is stamped.
	if _, err := c.Status(context.Background()); err != nil {
		t.Fatal(err)
	}
	if gotQuery != 0 {
		t.Fatalf("round leaked onto bare context: %d", gotQuery)
	}
}

// TestStatusQueryMatchesParseQuery holds serveStatus's in-place reading of
// its parameters to url.ParseQuery's: the first value of each, whether
// follow is there at all, with duplicates, empty pairs, bare keys, escapes
// and a ';' in the query.
func TestStatusQueryMatchesParseQuery(t *testing.T) {
	for _, raw := range []string{
		"",
		"follow=12.3&metrics=1&round=99",
		"round=7",
		"follow",
		"follow=",
		"follow=1.2&follow=3.4",
		"metrics=2&metrics=1",
		"&&round=5&",
		"=3&round&metrics",
		"x=1&followx=2&round=3=4",
		"follow=1%2E2&metrics=%31",
		"round=1+2&follow=a+b",
		"follow=1.2;metrics=1&round=4",
		"met%72ics=1&follow=%zz&round=6",
	} {
		v, _ := url.ParseQuery(raw)
		want := statusQuery{metrics: v.Get("metrics"), follow: v.Get("follow"), round: v.Get("round"), hasFollow: v.Has("follow")}
		if got := parseStatusQuery(raw); got != want {
			t.Errorf("%q: read %+v, url.ParseQuery reads %+v", raw, got, want)
		}
	}
}
