package powerapi

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// one populated instance of every message kind — shared with the fuzz
// corpus so the codec is seeded with realistic traffic.
func sampleMessages() []any {
	return []any{
		&NodeStatus{
			Node: "n0", Policy: "frequency-shares", LimitWatts: 42.5, PowerWatts: 39.1,
			MaxWatts: 85, FallbackWatts: 25, Iterations: 17, Draining: true,
			Epoch: 7, Rev: 12,
			Lease:   &LeaseInfo{ID: 9, Coordinator: "coord", LimitWatts: 42.5, TTLMS: 1500, RemainingMS: 900},
			Apps:    []AppShare{{Name: "gcc", Core: 0, Shares: 90, Priority: "hp", Watts: 3.25}, {Name: "cam4", Core: 1, Shares: 10, Priority: "lp"}},
			SLO:     &SLOStatus{Services: []ServiceSLOStatus{{Name: "web", P50MS: 12, P90MS: 31, P99MS: 54, TargetMS: 65, Rate: 300, QueueLen: 2, Met: true}}},
			Metrics: map[string]float64{"powerd_iterations_total": 17, `powerapi_lease_events_total{event="grant"}`: 2},
		},
		&LeaseGrant{ID: 10, Coordinator: "coord", LimitWatts: 40, TTLMS: 1500, FallbackWatts: 25},
		&LeaseAck{ID: 10, Applied: true, LimitWatts: 40},
		&Reconfigure{Policy: "priority-shares", LimitWatts: 30,
			Shares: map[string]int{"gcc": 70}, Priorities: map[string]string{"gcc": "hp"}},
		&ReconfigureAck{Policy: "priority-shares", LimitWatts: 30},
		&Drain{On: true},
		&DrainAck{Draining: true},
		&Register{Node: "n0", Addr: "host0:9090"},
		&RegisterAck{Accepted: true},
		&Heartbeat{Node: "n0"},
		&HeartbeatAck{Known: true},
		&ClusterStatus{BudgetWatts: 200, TotalPowerWatts: 151.5, Reallocations: 4, Tier: "row", Children: 2, Leaves: 2, Depth: 1,
			Nodes: []ClusterNode{{Name: "n0", Addr: "host0:9090", LimitWatts: 100}, {Name: "n1", LimitWatts: 50, Quarantined: true}}},
		&ErrorReply{Code: CodeDraining, Message: "node n0 is draining"},
	}
}

func TestRoundTripEveryKind(t *testing.T) {
	for _, msg := range sampleMessages() {
		kind := KindOf(msg)
		if kind == "" {
			t.Fatalf("%T has no kind", msg)
		}
		data, err := Marshal(msg)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		gotKind, got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if gotKind != kind {
			t.Errorf("kind %s round-tripped as %s", kind, gotKind)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("%s round trip:\n got %+v\nwant %+v", kind, got, msg)
		}
	}
}

func TestUnmarshalRejects(t *testing.T) {
	good, err := Marshal(&Drain{On: true})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data string
		want string
	}{
		{"empty", ``, "envelope"},
		{"not json", `nope`, "envelope"},
		{"wrong version", `{"v":2,"kind":"drain","body":{"on":true}}`, "version"},
		{"unknown kind", `{"v":1,"kind":"self_destruct","body":{}}`, "unknown kind"},
		{"unknown body field", `{"v":1,"kind":"drain","body":{"on":true,"blast_radius":3}}`, "unknown field"},
		{"body type mismatch", `{"v":1,"kind":"drain","body":{"on":"yes"}}`, "body"},
	}
	for _, c := range cases {
		if _, _, err := Unmarshal([]byte(c.data)); err == nil {
			t.Errorf("%s: accepted %q", c.name, c.data)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	// Sanity: the valid envelope still parses.
	if _, _, err := Unmarshal(good); err != nil {
		t.Errorf("valid envelope rejected: %v", err)
	}
}

func TestMarshalRejectsForeignTypes(t *testing.T) {
	if _, err := Marshal(struct{ X int }{1}); err == nil {
		t.Error("non-protocol type marshaled")
	}
	if _, err := Marshal(&struct{ X int }{1}); err == nil {
		t.Error("non-protocol pointer marshaled")
	}
}

func TestUnmarshalAs(t *testing.T) {
	data, err := Marshal(&LeaseAck{ID: 1, Applied: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalAs(data, KindLeaseAck); err != nil {
		t.Errorf("expected kind rejected: %v", err)
	}
	if _, err := UnmarshalAs(data, KindStatus); err == nil {
		t.Error("kind mismatch accepted")
	}
	edata, err := Marshal(&ErrorReply{Code: CodeInvalid, Message: "nope"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = UnmarshalAs(edata, KindLeaseAck)
	er, ok := err.(*ErrorReply)
	if !ok {
		t.Fatalf("error envelope surfaced as %T (%v), want *ErrorReply", err, err)
	}
	if er.Code != CodeInvalid {
		t.Errorf("code %q, want %q", er.Code, CodeInvalid)
	}
}

// The registry and KindOf must agree: every registered kind's zero value
// must map back to its kind string, so the codec cannot silently drop a
// message type from one side.
func TestRegistryAndKindOfAgree(t *testing.T) {
	for kind, mk := range kinds {
		if got := KindOf(mk()); got != kind {
			t.Errorf("registry kind %q maps to KindOf %q", kind, got)
		}
	}
	if len(kinds) != len(sampleMessages()) {
		t.Errorf("%d registered kinds but %d samples; keep sampleMessages in sync", len(kinds), len(sampleMessages()))
	}
}

// Envelope bodies must stay valid JSON after Marshal (no double encoding).
func TestEnvelopeBodyIsPlainJSON(t *testing.T) {
	data, err := Marshal(&Register{Node: "n0", Addr: "a:1"})
	if err != nil {
		t.Fatal(err)
	}
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if err := json.Unmarshal(env.Body, &body); err != nil {
		t.Fatalf("body is not a JSON object: %v", err)
	}
	if body["node"] != "n0" {
		t.Errorf("body = %v", body)
	}
}
