package powerapi

import (
	"context"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/units"
)

// stubBackend is a minimal settable backend: what a leaf looks like to
// the agent, without a daemon underneath.
type stubBackend struct {
	mu     sync.Mutex
	limit  units.Watts
	power  float64
	iters  int
	apps   []AppShare
	tier   *TierStatus
	energy *EnergyStatus
	fail   error

	// forwarded records ForwardGrant calls when forwarding is enabled.
	forward   bool
	forwarded []string
}

func (b *stubBackend) FillStatus(st *NodeStatus) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st.Policy = "stub"
	st.LimitWatts = float64(b.limit)
	st.PowerWatts = b.power
	st.MaxWatts = 100
	st.Iterations = b.iters
	st.Apps = append([]AppShare(nil), b.apps...)
	if b.tier != nil {
		t := *b.tier
		st.Tier = &t
	}
	st.Energy = b.energy
}

func (b *stubBackend) SetLimit(_ context.Context, w units.Watts) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fail != nil {
		return b.fail
	}
	b.limit = w
	return nil
}

func (b *stubBackend) ForwardGrant(_ context.Context, node string, g *LeaseGrant) (*LeaseAck, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.forward {
		return nil, &ErrorReply{Code: CodeUnknownNode, Message: "no such child " + node}
	}
	b.forwarded = append(b.forwarded, node)
	return &LeaseAck{ID: g.ID, Applied: true, LimitWatts: g.LimitWatts}, nil
}

func (b *stubBackend) set(power float64, iters int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.power, b.iters = power, iters
}

func newStubAgent(t *testing.T, name string) (*Agent, *stubBackend) {
	t.Helper()
	be := &stubBackend{limit: 50, power: 42, iters: 1}
	a, err := NewAgent(AgentConfig{Name: name, Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	return a, be
}

// TestBackendAgentDefaults checks the generic fallback default: with no
// explicit fallback the agent adopts whatever limit the backend
// enforces at construction.
func TestBackendAgentDefaults(t *testing.T) {
	a, _ := newStubAgent(t, "n0")
	st := a.Status()
	if st.FallbackWatts != 50 {
		t.Fatalf("fallback = %v, want the backend's construction-time limit 50", st.FallbackWatts)
	}
	if st.Node != "n0" || st.Policy != "stub" || st.MaxWatts != 100 {
		t.Fatalf("status = %+v", st)
	}
	if _, err := NewAgent(AgentConfig{Name: "x"}); err == nil {
		t.Fatal("agent without daemon or backend was accepted")
	}
	if _, err := NewAgent(AgentConfig{Name: "x", Backend: &stubBackend{}, Daemon: nil}); err != nil {
		t.Fatalf("backend-only agent rejected: %v", err)
	}
}

// TestDiffStatusApplyRoundTrip drives the encoder and follower through
// a sequence of status mutations: every diff applied on top of the
// previous frame must reproduce the new frame exactly.
func TestDiffStatusApplyRoundTrip(t *testing.T) {
	frames := []*NodeStatus{
		{Node: "n0", Policy: "p", LimitWatts: 50, PowerWatts: 40, MaxWatts: 100, Iterations: 1},
		{Node: "n0", Policy: "p", LimitWatts: 50, PowerWatts: 44, MaxWatts: 100, Iterations: 2,
			Lease: &LeaseInfo{ID: 1, LimitWatts: 50, TTLMS: 1000, RemainingMS: 900},
			Apps:  []AppShare{{Name: "gcc", Core: 0, Shares: 90, Watts: 11}}},
		{Node: "n0", Policy: "q", LimitWatts: 30, PowerWatts: 29, MaxWatts: 100, Iterations: 3,
			Apps:   []AppShare{{Name: "gcc", Core: 0, Shares: 90, Watts: 8}},
			Energy: &EnergyStatus{TotalUJ: 12345, TotalJoules: 0.012, Apps: []AppEnergy{{Name: "gcc", TotalUJ: 12000}}}},
		{Node: "n0", Policy: "q", LimitWatts: 30, PowerWatts: 28, MaxWatts: 100, Iterations: 4, Draining: true,
			Tier: &TierStatus{Tier: "row", Children: 4, Nodes: 4, Depth: 1, BudgetWatts: 120}},
	}
	var f StatusFollower
	rev := uint64(1)
	if _, err := f.Apply(&StatusDelta{V: DeltaVersion, Node: "n0", Epoch: 9, Rev: rev, Full: frames[0]}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(frames); i++ {
		d := DiffStatus(frames[i-1], frames[i])
		d.Epoch, d.Base, d.Rev = 9, rev, rev+1
		rev++
		got, err := f.Apply(d)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, frames[i]) {
			t.Fatalf("frame %d:\n got %+v\nwant %+v", i, got, frames[i])
		}
	}
}

// TestStatusFollowerRefusals enumerates the frames a follower must
// refuse — and checks that after each refusal only a full frame
// restores it.
func TestStatusFollowerRefusals(t *testing.T) {
	base := &NodeStatus{Node: "n0", Policy: "p", LimitWatts: 50}
	full := func(rev uint64) *StatusDelta {
		return &StatusDelta{V: DeltaVersion, Node: "n0", Epoch: 9, Rev: rev, Full: base}
	}
	w := 51.0
	cases := []struct {
		name  string
		frame *StatusDelta
	}{
		{"foreign delta version", &StatusDelta{V: DeltaVersion + 1, Node: "n0", Epoch: 9, Rev: 2, Base: 1, LimitWatts: &w}},
		{"epoch change", &StatusDelta{V: DeltaVersion, Node: "n0", Epoch: 10, Rev: 2, Base: 1, LimitWatts: &w}},
		{"missed frame", &StatusDelta{V: DeltaVersion, Node: "n0", Epoch: 9, Rev: 5, Base: 3, LimitWatts: &w}},
		{"stale replay", &StatusDelta{V: DeltaVersion, Node: "n0", Epoch: 9, Rev: 1, Base: 1, LimitWatts: &w}},
		{"unknown clear field", &StatusDelta{V: DeltaVersion, Node: "n0", Epoch: 9, Rev: 2, Base: 1, Clear: []string{"future"}}},
		{"wrong node", &StatusDelta{V: DeltaVersion, Node: "n1", Epoch: 9, Rev: 2, Base: 1, LimitWatts: &w}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var f StatusFollower
			if _, err := f.Apply(full(1)); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Apply(tc.frame); err == nil {
				t.Fatal("frame was applied")
			} else if _, ok := err.(*ResyncError); !ok {
				t.Fatalf("error %T, want *ResyncError", err)
			}
			if f.Synced() {
				t.Fatal("follower still synced after refusal")
			}
			if _, err := f.Apply(&StatusDelta{V: DeltaVersion, Node: "n0", Epoch: 9, Rev: 7, Base: 6, LimitWatts: &w}); err == nil {
				t.Fatal("delta applied while unsynchronized")
			}
			if _, err := f.Apply(full(8)); err != nil {
				t.Fatalf("full frame did not resync: %v", err)
			}
		})
	}
}

// TestFollowStatusOverHTTP runs the whole loop against a live agent:
// full resync on first contact, deltas on the steady path, and a
// transparent re-resync when a second follower steals the server-side
// baseline (the single-poller caveat, exercised deliberately).
func TestFollowStatusOverHTTP(t *testing.T) {
	a, be := newStubAgent(t, "n0")
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)

	var f StatusFollower
	st, err := c.FollowStatus(context.Background(), &f, MetricsNone)
	if err != nil {
		t.Fatal(err)
	}
	if st.PowerWatts != 42 || st.Iterations != 1 {
		t.Fatalf("first frame = %+v", st)
	}
	be.set(47.5, 2)
	if st, err = c.FollowStatus(context.Background(), &f, MetricsNone); err != nil {
		t.Fatal(err)
	}
	if st.PowerWatts != 47.5 || st.Iterations != 2 {
		t.Fatalf("delta frame = %+v", st)
	}

	// A second follower advances the agent's revision chain; the first
	// follower's next delta no longer applies and must resync.
	var thief StatusFollower
	if _, err := c.FollowStatus(context.Background(), &thief, MetricsNone); err != nil {
		t.Fatal(err)
	}
	be.set(33, 3)
	if st, err = c.FollowStatus(context.Background(), &f, MetricsNone); err != nil {
		t.Fatalf("resync after stolen baseline: %v", err)
	}
	if st.PowerWatts != 33 || st.Iterations != 3 {
		t.Fatalf("post-resync frame = %+v", st)
	}
}

// TestApplyBatchRouting checks a grant wave splits correctly: entries
// for the agent apply locally, entries for descendants go through the
// forwarding backend, and unroutable entries fail inside the ack
// without failing the wave.
func TestApplyBatchRouting(t *testing.T) {
	a, be := newStubAgent(t, "row0")
	be.forward = true
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)

	ack, err := c.LeaseBatch(context.Background(), &GrantBatch{
		Coordinator: "building",
		Grants: []NamedGrant{
			{Node: "row0", Grant: LeaseGrant{ID: 1, LimitWatts: 40, TTLMS: 60000}},
			{Node: "leaf3", Grant: LeaseGrant{ID: 2, LimitWatts: 10, TTLMS: 60000}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ack.Acks) != 2 {
		t.Fatalf("acks = %+v", ack.Acks)
	}
	if ack.Acks[0].Ack == nil || !ack.Acks[0].Ack.Applied {
		t.Fatalf("local entry not applied: %+v", ack.Acks[0])
	}
	if be.limit != 40 {
		t.Fatalf("local limit = %v, want 40", be.limit)
	}
	if ack.Acks[1].Ack == nil || len(be.forwarded) != 1 || be.forwarded[0] != "leaf3" {
		t.Fatalf("forwarded entry: ack %+v, forwarded %v", ack.Acks[1], be.forwarded)
	}
	st := a.Status()
	if st.Lease == nil || st.Lease.Coordinator != "building" {
		t.Fatalf("batch coordinator not adopted: %+v", st.Lease)
	}

	// Forwarding off: descendant entries fail per-entry, the wave and
	// its local entries still succeed.
	be.forward = false
	ack, err = c.LeaseBatch(context.Background(), &GrantBatch{Grants: []NamedGrant{
		{Node: "row0", Grant: LeaseGrant{ID: 3, LimitWatts: 35, TTLMS: 60000}},
		{Node: "leaf9", Grant: LeaseGrant{ID: 4, LimitWatts: 10, TTLMS: 60000}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Acks[0].Ack == nil || !ack.Acks[0].Ack.Applied {
		t.Fatalf("local entry: %+v", ack.Acks[0])
	}
	if ack.Acks[1].Err == nil {
		t.Fatalf("unroutable entry did not fail: %+v", ack.Acks[1])
	}
}

// captureDeltaEnvelopes records real frames an agent serves in delta
// mode — the fuzz corpus the issue asks for.
func captureDeltaEnvelopes(f *testing.F) [][]byte {
	f.Helper()
	be := &stubBackend{limit: 50, power: 42, iters: 1}
	a, err := NewAgent(AgentConfig{Name: "n0", Backend: be})
	if err != nil {
		f.Fatal(err)
	}
	defer a.Close()
	var out [][]byte
	add := func(d *StatusDelta) {
		data, err := MarshalRound(d, 7)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, data)
	}
	add(a.statusDelta(a.Status(), true)) // full resync frame
	be.set(44, 2)
	add(a.statusDelta(a.Status(), false)) // scalar delta
	if _, err := a.Grant(&LeaseGrant{ID: 1, LimitWatts: 40, TTLMS: 60_000}); err != nil {
		f.Fatal(err)
	}
	add(a.statusDelta(a.Status(), false)) // lease appears
	be.mu.Lock()
	be.tier = &TierStatus{Tier: "row", Children: 8, Nodes: 64, Depth: 1, BudgetWatts: 400}
	be.mu.Unlock()
	add(a.statusDelta(a.Status(), false)) // tier appears
	if _, err := a.SetDrain(true); err != nil {
		f.Fatal(err)
	}
	add(a.statusDelta(a.Status(), false)) // lease cleared, draining set
	return out
}

// FuzzStatusDelta hammers the delta-status decoder: any envelope, however
// mangled, must either be refused (after which only a full frame
// resyncs the follower) or be provably contiguous with the follower's
// state. It must never panic and never apply a stale or foreign frame.
func FuzzStatusDelta(f *testing.F) {
	for _, data := range captureDeltaEnvelopes(f) {
		f.Add(data)
	}
	mk := func(body string) []byte {
		return []byte(`{"v":1,"kind":"status_delta","body":` + body + `}`)
	}
	f.Add(mk(`{"v":1,"node":"n0","epoch":9,"rev":5,"base":5,"power_watts":1}`)) // stale
	f.Add(mk(`{"v":1,"node":"n0","epoch":9,"rev":2,"base":9,"power_watts":1}`)) // gap
	f.Add(mk(`{"v":2,"node":"n0","epoch":9,"rev":2,"base":1}`))                 // foreign version
	f.Add(mk(`{"v":1,"node":"n0","epoch":9,"rev":2,"base":1,"clear":["huh"]}`)) // unknown clear
	f.Add(mk(`{"v":1,"node":"n0","epoch":8,"rev":2,"base":1,"iterations":3}`))  // wrong epoch
	f.Add(mk(`{"v":1,"node":"n0","epoch":9,"rev":3,"base":2,"full":{"node":"n0"},"power_watts":4}`))
	f.Add([]byte(`{"v":1,"kind":"status_delta","body":{}}`))
	f.Add([]byte(`{"v":1,"kind":"status_delta","body":{"v":1,"bogus":3}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		_, msg, err := UnmarshalEnvelope(data)
		if err != nil {
			return
		}
		d, ok := msg.(*StatusDelta)
		if !ok {
			return
		}
		// Seed a follower that is, by construction, contiguous with the
		// frame's own (epoch, base) claim — the hardest state to fool.
		base := &NodeStatus{Node: d.Node, Policy: "p", LimitWatts: 10,
			Lease: &LeaseInfo{ID: 1, LimitWatts: 10, TTLMS: 500},
			Apps:  []AppShare{{Name: "a", Core: 0}}}
		var fl StatusFollower
		if _, err := fl.Apply(&StatusDelta{V: DeltaVersion, Node: d.Node, Epoch: d.Epoch, Rev: d.Base, Full: base}); err != nil {
			t.Fatalf("seeding follower: %v", err)
		}
		st, err := fl.Apply(d)
		if err != nil {
			if _, ok := err.(*ResyncError); !ok {
				t.Fatalf("refusal error %T, want *ResyncError", err)
			}
			if fl.Synced() {
				t.Fatal("follower stayed synced after refusing a frame")
			}
			// A delta must now be refused, and a full frame accepted.
			w := 1.0
			if _, err := fl.Apply(&StatusDelta{V: DeltaVersion, Node: d.Node, Epoch: d.Epoch, Rev: d.Rev + 1, Base: d.Rev, PowerWatts: &w}); err == nil {
				t.Fatal("delta applied while unsynchronized")
			}
			if _, err := fl.Apply(&StatusDelta{V: DeltaVersion, Node: d.Node, Epoch: d.Epoch, Rev: d.Rev + 2, Full: base}); err != nil {
				t.Fatalf("full frame did not resync: %v", err)
			}
			return
		}
		// The frame applied: it must have been provably contiguous.
		if d.V != DeltaVersion {
			t.Fatalf("applied foreign delta version %d", d.V)
		}
		if d.Full == nil && d.Rev <= d.Base {
			t.Fatalf("applied stale delta rev %d over base %d", d.Rev, d.Base)
		}
		if st == nil {
			t.Fatal("applied frame returned nil status")
		}
		// And a replay of the very same frame must now be refused.
		if d.Full == nil {
			if _, err := fl.Apply(d); err == nil {
				t.Fatal("replayed delta applied twice")
			}
		}
	})
}
