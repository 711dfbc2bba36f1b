package powerapi

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
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
	slo    *SLOStatus
	fail   error
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
	st.SLO = b.slo
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

func (b *stubBackend) set(power float64, iters int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.power, b.iters = power, iters
}

func newStubAgent(t testing.TB, name string, reg *metrics.Registry) (*Agent, *stubBackend) {
	t.Helper()
	be := &stubBackend{limit: 50, power: 42, iters: 1}
	a, err := NewAgent(AgentConfig{Name: name, Backend: be, Metrics: reg})
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
	a, _ := newStubAgent(t, "n0", nil)
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

// fill sets v to a non-zero value derived from seed, recursing through
// pointers, structs, slices and maps, so two seeds give values that
// differ in every leaf.
func fill(v reflect.Value, seed int) {
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), seed)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), seed+i)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fill(v.Index(0), seed)
		fill(v.Index(1), seed+1)
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(k, i) // the same keys under every seed, with different values
			fill(e, seed+i)
			v.SetMapIndex(k, e)
		}
	case reflect.String:
		v.SetString(fmt.Sprint("s", seed))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(seed))
	case reflect.Uint64:
		v.SetUint(uint64(seed))
	case reflect.Float64:
		v.SetFloat(float64(seed) + 0.5)
	default:
		panic("fill: unhandled kind " + v.Kind().String())
	}
}

// TestDiffStatusApplyRoundTrip walks every exported field of NodeStatus
// — so a field added later is covered without anyone remembering to —
// and modifies, clears and sets it between polls while every other
// field holds steady at a non-zero value. Each time the frame the agent
// encodes, once through the wire codec and applied by the follower,
// must reproduce the agent's status exactly: the walked field as it now
// is, and nothing else dropped for having been left off the wire.
func TestDiffStatusApplyRoundTrip(t *testing.T) {
	// The frame's identity and chain fields are not payload: the agent
	// stamps them, and the refusal tests cover them.
	chain := map[string]bool{"Node": true, "Epoch": true, "Rev": true, "Base": true, "Clear": true}
	a, _ := newStubAgent(t, "n0", nil)
	var f StatusFollower
	typ := reflect.TypeOf(NodeStatus{})
	polls := 0
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if chain[name] {
			continue
		}
		for step, mutate := range []func(reflect.Value){
			func(v reflect.Value) { fill(v, 40) }, // modify
			func(v reflect.Value) { v.SetZero() }, // clear
			func(v reflect.Value) { fill(v, 3) },  // set
		} {
			st := &NodeStatus{}
			fill(reflect.ValueOf(st).Elem(), 7)
			st.Node, st.Epoch, st.Rev, st.Base, st.Clear = "n0", 0, 0, 0, nil
			mutate(reflect.ValueOf(st).Elem().Field(i))
			want := *st
			epoch, rev := f.held()
			data, err := Marshal(a.frame(st, epoch, rev))
			if err != nil {
				t.Fatal(err)
			}
			if polls++; polls > 1 && !bytes.Contains(data, []byte(`"base":`)) {
				t.Fatalf("%s step %d: agent sent a full frame to a follower holding its baseline: %s", name, step, data)
			}
			msg, err := UnmarshalAs(data, KindStatus)
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.Apply(msg.(*NodeStatus))
			if err != nil {
				t.Fatalf("%s step %d: %v", name, step, err)
			}
			want.Epoch, want.Rev = got.Epoch, got.Rev
			if !reflect.DeepEqual(got, &want) {
				t.Fatalf("%s step %d:\n got %+v\nwant %+v\nwire %s", name, step, got, &want, data)
			}
		}
	}
}

// tamperTripper sits under a Client: it counts requests, and while
// armed rewrites the status frame in one reply.
type tamperTripper struct {
	requests atomic.Int64
	tamper   func(*NodeStatus) // applied to the next reply, then disarmed
	drop     bool              // fail the next exchange after the agent served it
}

func (tt *tamperTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	tt.requests.Add(1)
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if tt.drop {
		tt.drop = false
		resp.Body.Close()
		return nil, fmt.Errorf("reply lost")
	}
	if tt.tamper == nil {
		return resp, nil
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	env, msg, err := UnmarshalEnvelope(data)
	if err != nil {
		return nil, err
	}
	tt.tamper(msg.(*NodeStatus))
	tt.tamper = nil
	if data, err = MarshalRound(msg, env.Round); err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	resp.ContentLength = int64(len(data))
	return resp, nil
}

// TestStatusFollowerRefusals enumerates the frames a follower must
// refuse, as they would arrive off the wire: each is an error, leaves
// the follower unsynchronized, and is healed by the very next poll —
// one request, whose reply the agent makes a full frame because the
// follower names nothing held.
func TestStatusFollowerRefusals(t *testing.T) {
	cases := []struct {
		name   string
		tamper func(*NodeStatus)
	}{
		{"epoch change", func(fr *NodeStatus) { fr.Epoch++ }},
		{"missed frame", func(fr *NodeStatus) { fr.Base++; fr.Rev++ }},
		{"stale replay", func(fr *NodeStatus) { fr.Rev = fr.Base }},
		{"unknown clear field", func(fr *NodeStatus) { fr.Clear = []string{"future"} }},
		{"wrong node", func(fr *NodeStatus) { fr.Node = "n1" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, be := newStubAgent(t, "n0", nil)
			srv := httptest.NewServer(a.Handler())
			defer srv.Close()
			tt := &tamperTripper{}
			c := NewClient(srv.URL).WithHTTPClient(&http.Client{Transport: tt})
			ctx := context.Background()

			var f StatusFollower
			if _, err := c.FollowStatus(ctx, &f, false); err != nil {
				t.Fatal(err)
			}
			be.set(44, 2)
			tt.tamper = func(fr *NodeStatus) {
				if fr.Base == 0 {
					t.Errorf("second poll was not a delta: %+v", fr)
				}
				tc.tamper(fr)
			}
			if _, err := c.FollowStatus(ctx, &f, false); err == nil {
				t.Fatal("frame was applied")
			}
			if f.cur != nil {
				t.Fatal("follower still synced after refusal")
			}
			be.set(45, 3)
			st, err := c.FollowStatus(ctx, &f, false)
			if err != nil {
				t.Fatalf("next poll did not heal: %v", err)
			}
			want := a.Status()
			want.Epoch, want.Rev = st.Epoch, st.Rev
			if !reflect.DeepEqual(st, want) {
				t.Fatalf("healed view:\n got %+v\nwant %+v", st, want)
			}
			if n := tt.requests.Load(); n != 3 {
				t.Fatalf("%d requests for 3 polls", n)
			}
		})
	}
	// Never on the wire, but Apply is exported: a delta with nothing to
	// apply it to.
	var f StatusFollower
	if _, err := f.Apply(&NodeStatus{Node: "n0", Epoch: 9, Rev: 2, Base: 1}); err == nil || f.cur != nil {
		t.Fatalf("delta applied while unsynchronized (err %v)", err)
	}
}

// TestFollowStatusOverHTTP runs the loop against a live agent: a full
// frame on first contact, deltas that leave unchanged fields off the
// wire on the steady path, and a full frame again — without being asked
// — after a reply is lost on the way back.
func TestFollowStatusOverHTTP(t *testing.T) {
	a, be := newStubAgent(t, "n0", nil)
	be.apps = []AppShare{{Name: "gcc", Core: 0, Shares: 90}}
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()
	var last *NodeStatus // the frame of the latest reply, as sent
	tt := &tamperTripper{}
	observe := func() { tt.tamper = func(fr *NodeStatus) { cp := *fr; last = &cp } }
	c := NewClient(srv.URL).WithHTTPClient(&http.Client{Transport: tt})
	ctx := context.Background()

	var f StatusFollower
	observe()
	st, err := c.FollowStatus(ctx, &f, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.PowerWatts != 42 || st.Iterations != 1 || len(st.Apps) != 1 || last.Base != 0 {
		t.Fatalf("first view = %+v, frame %+v", st, last)
	}
	be.set(47.5, 2)
	observe()
	if st, err = c.FollowStatus(ctx, &f, false); err != nil {
		t.Fatal(err)
	}
	if st.PowerWatts != 47.5 || st.Iterations != 2 || len(st.Apps) != 1 {
		t.Fatalf("delta view = %+v", st)
	}
	if last.Base == 0 || last.Apps != nil {
		t.Fatalf("steady-path frame is not a delta without apps: %+v", last)
	}

	// The agent serves a frame the follower never sees: the follower
	// still names the one before, the agent's baseline has moved on,
	// and the reply to the next poll is whole.
	be.set(33, 3)
	tt.drop = true
	if _, err = c.FollowStatus(ctx, &f, false); err == nil {
		t.Fatal("lost reply went unnoticed")
	}
	be.set(34, 4)
	observe()
	if st, err = c.FollowStatus(ctx, &f, false); err != nil {
		t.Fatalf("poll after a lost reply: %v", err)
	}
	if st.PowerWatts != 34 || st.Iterations != 4 || len(st.Apps) != 1 || last.Base != 0 {
		t.Fatalf("view after a lost reply = %+v, frame %+v", st, last)
	}
	if n := tt.requests.Load(); n != 4 {
		t.Fatalf("%d requests for 4 polls", n)
	}
}

// TestPollersCannotHurtEachOther interleaves two followers (one asking
// for metrics) and stateless reads against one agent while everything
// a status carries changes underneath. The agent keeps one baseline for
// all of them, so they keep stealing it from each other; what must hold
// is that after every call each caller's view is the agent's status at
// that instant (plus the registry, for the one that asked), at exactly
// one HTTP request per call.
func TestPollersCannotHurtEachOther(t *testing.T) {
	reg := metrics.NewRegistry()
	series := reg.Gauge("test_series", "Moves every step.")
	a, be := newStubAgent(t, "n0", reg)
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()
	tt := &tamperTripper{}
	c := NewClient(srv.URL).WithHTTPClient(&http.Client{Transport: tt})
	ctx := context.Background()

	var plain, withMetrics StatusFollower
	callers := []struct {
		name string
		poll func() (*NodeStatus, error)
		reg  bool
	}{
		{"follower", func() (*NodeStatus, error) { return c.FollowStatus(ctx, &plain, false) }, false},
		{"metrics follower", func() (*NodeStatus, error) { return c.FollowStatus(ctx, &withMetrics, true) }, true},
		{"stateless read", func() (*NodeStatus, error) { return c.Status(ctx) }, false},
	}
	// A fixed schedule that has every caller follow every other, and
	// itself, at least once.
	schedule := []int{0, 1, 2, 0, 0, 1, 1, 2, 2, 1, 0, 2, 0, 1, 0, 0, 2, 1, 1}
	for step, who := range schedule {
		be.mu.Lock()
		be.power, be.iters = float64(40+step), step
		be.apps = []AppShare{{Name: "gcc", Watts: float64(step)}}[:step%2]
		be.slo = &SLOStatus{Services: []ServiceSLOStatus{{Name: "web", P99MS: float64(50 + step), Met: step%3 != 0}}}
		be.mu.Unlock()
		if step%4 == 0 {
			if _, err := a.GrantCtx(context.Background(), &LeaseGrant{ID: uint64(step + 1), LimitWatts: float64(30 + step), TTLMS: 3_600_000}); err != nil {
				t.Fatal(err)
			}
		}
		series.Set(float64(step))

		before := tt.requests.Load()
		got, err := callers[who].poll()
		if err != nil {
			t.Fatalf("step %d, %s: %v", step, callers[who].name, err)
		}
		if n := tt.requests.Load() - before; n != 1 {
			t.Fatalf("step %d, %s: %d requests for one call", step, callers[who].name, n)
		}
		want := a.Status()
		want.Epoch, want.Rev = got.Epoch, got.Rev
		if callers[who].reg {
			want.Metrics = reg.Values()
		}
		// The lease's remaining time is read off the wall clock.
		if got.Lease != nil && want.Lease != nil {
			want.Lease.RemainingMS = got.Lease.RemainingMS
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d, %s:\n got %+v\nwant %+v", step, callers[who].name, got, want)
		}
	}
}

// TestClientRefusesOversizeReply: a reply over the body bound is an
// error that says so, not a truncated body that fails to parse.
func TestClientRefusesOversizeReply(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeMsg(w, http.StatusOK, &NodeStatus{Node: "n0", Policy: strings.Repeat("x", maxBody)})
	}))
	defer srv.Close()
	_, err := NewClient(srv.URL).Status(context.Background())
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("reply over %d bytes", maxBody)) {
		t.Fatalf("oversize reply: %v", err)
	}
}

// captureFrames records real frames an agent serves a follower — the
// fuzz corpus.
func captureFrames(f *testing.F) [][]byte {
	f.Helper()
	reg := metrics.NewRegistry()
	a, be := newStubAgent(f, "n0", reg)
	var fl StatusFollower
	var out [][]byte
	poll := func() {
		st := a.Status()
		st.Metrics = reg.Values()
		epoch, rev := fl.held()
		fr := a.frame(st, epoch, rev)
		data, err := MarshalRound(fr, 7)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, data)
		cp := *fr
		if _, err := fl.Apply(&cp); err != nil {
			f.Fatal(err)
		}
	}
	poll() // full frame
	be.set(44, 2)
	poll() // scalars only
	if _, err := a.GrantCtx(context.Background(), &LeaseGrant{ID: 1, LimitWatts: 40, TTLMS: 60_000}); err != nil {
		f.Fatal(err)
	}
	poll() // lease appears, lease counters move
	be.mu.Lock()
	be.tier = &TierStatus{Tier: "row", Children: 8, Nodes: 64, Depth: 1, BudgetWatts: 400}
	be.slo = &SLOStatus{Services: []ServiceSLOStatus{{Name: "web", P99MS: 50, TargetMS: 80, Met: true}}}
	be.mu.Unlock()
	poll() // tier and slo appear
	if _, err := a.SetDrain(true); err != nil {
		f.Fatal(err)
	}
	poll() // lease cleared, draining set
	return out
}

// statusFrameSeeds is the status frame fuzz corpus: real frames an agent
// served, and deltas that are hard to refuse.
func statusFrameSeeds(f *testing.F) [][]byte {
	f.Helper()
	out := captureFrames(f)
	mk := func(body string) []byte {
		return []byte(`{"v":1,"kind":"status","body":` + body + `}`)
	}
	out = append(out, mk(`{"node":"n0","epoch":9,"rev":5,"base":5,"power_watts":1}`))                  // stale
	out = append(out, mk(`{"node":"n0","epoch":9,"rev":12,"base":9,"power_watts":1}`))                 // gap
	out = append(out, mk(`{"node":"n0","epoch":9,"rev":6,"base":5,"clear":["huh"]}`))                  // unknown clear
	out = append(out, mk(`{"node":"n0","epoch":8,"rev":6,"base":5,"iterations":3}`))                   // wrong epoch
	out = append(out, mk(`{"node":"n0","epoch":9,"rev":6,"base":5,"clear":["apps"],"apps":[]}`))       // clear and empty
	out = append(out, mk(`{"node":"n0","epoch":9,"rev":6,"base":5,"clear":["metrics","lease"]}`))      // clears only
	out = append(out, mk(`{"node":"n0","epoch":9,"rev":6,"base":5,"metrics":{"a":2,"c":3}}`))          // series merge
	out = append(out, mk(`{"node":"n0","epoch":9,"rev":6,"base":5,"slo":{"services":[{"name":""}]}}`)) // field swap
	return out
}

// FuzzStatusFrame hammers the status frame decoder and the follower:
// any envelope, however mangled, either fails to decode or is applied
// or refused without a panic, and leaves the follower unsynchronized
// or holding a view that is a canonical full frame — encoded, decoded
// and applied afresh it reproduces itself.
func FuzzStatusFrame(f *testing.F) {
	for _, data := range statusFrameSeeds(f) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		_, msg, err := UnmarshalEnvelope(data)
		if err != nil {
			return
		}
		fr, ok := msg.(*NodeStatus)
		if !ok {
			return
		}
		// A follower holding epoch 9, rev 5: the frames above that are
		// deltas on top of exactly that are the ones hardest to refuse.
		var fl StatusFollower
		if _, err := fl.Apply(&NodeStatus{Node: "n0", Epoch: 9, Rev: 5, Policy: "p", LimitWatts: 10,
			Lease:   &LeaseInfo{ID: 1, LimitWatts: 10, TTLMS: 500},
			Apps:    []AppShare{{Name: "a", Core: 0}},
			Metrics: map[string]float64{"a": 1, "b": 1}}); err != nil {
			t.Fatalf("seeding follower: %v", err)
		}
		sent := *fr
		view, err := fl.Apply(fr)
		if err != nil {
			if fl.cur != nil {
				t.Fatal("follower stayed synced after refusing a frame")
			}
			return
		}
		if sent.Base != 0 && (sent.Epoch != 9 || sent.Base != 5 || sent.Rev <= 5 || sent.Node != "n0") {
			t.Fatalf("applied a delta that is not the next frame: %+v", sent)
		}
		if epoch, rev := fl.held(); epoch != sent.Epoch || rev != sent.Rev {
			t.Fatalf("holding %d.%d after applying %d.%d", epoch, rev, sent.Epoch, sent.Rev)
		}
		enc, err := Marshal(view)
		if err != nil {
			t.Fatalf("view does not marshal: %v", err)
		}
		msg2, err := UnmarshalAs(enc, KindStatus)
		if err != nil {
			t.Fatalf("encoded view does not decode: %v", err)
		}
		var fresh StatusFollower
		view2, err := fresh.Apply(msg2.(*NodeStatus))
		if err != nil {
			t.Fatalf("a view is not a full frame: %v", err)
		}
		if enc2, err := Marshal(view2); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("view is not a fixed point (%v):\n first %s\nsecond %s", err, enc, enc2)
		}
	})
}
