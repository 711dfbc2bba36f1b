package powerapi_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/flight"
	"repro/internal/metrics/decisions"
	nodepkg "repro/internal/node"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/powerapi"
	"repro/internal/sim"
	"repro/internal/units"
)

// node is one loopback control-plane node: a simulated machine, its
// daemon, the powerapi agent fronting it, and an obs server carrying the
// agent's endpoints — the exact wiring cmd/powerd -listen -node-name uses.
type node struct {
	m       *sim.Machine
	d       *daemon.Daemon
	agent   *powerapi.Agent
	journal *decisions.Journal
	srv     *httptest.Server
}

// newNode builds a Skylake loopback node running two workloads under the
// frequency-share policy at the given limit, its lease timer on clk (nil:
// the wall clock).
func newNode(t *testing.T, name string, limit units.Watts, fallback units.Watts, rec *flight.Recorder, id int16, clk clock.Clock) *node {
	t.Helper()
	chip := platform.Skylake()
	specs := []core.AppSpec{{Name: "gcc", Core: 0, Shares: 50}, {Name: "cam4", Core: 1, Shares: 50, AVX: true}}
	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := nodepkg.New(nodepkg.Spec{
		Chip: chip, Apps: specs, Policy: pol, Limit: limit, Recorders: &nodepkg.Recorders{}, Flight: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	agent, err := powerapi.NewAgent(powerapi.AgentConfig{
		Name: name, NodeID: id, Daemon: n.Daemon, Fallback: fallback,
		PolicyName: "frequency", Metrics: n.Metrics, Flight: rec, Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	osrv := obs.New(n.Metrics, n.Journal, obs.DaemonStatusFunc(n.Daemon),
		obs.WithHandler(powerapi.PathPrefix, agent.Handler()))
	srv := httptest.NewServer(osrv.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(agent.Close)
	return &node{m: n.M, d: n.Daemon, agent: agent, journal: n.Journal, srv: srv}
}

func TestStatusOverTheWire(t *testing.T) {
	n := newNode(t, "n0", 50, 0, nil, 0, nil)
	n.m.Run(3 * time.Second)
	c := powerapi.NewClient(n.srv.URL)
	st, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Node != "n0" {
		t.Errorf("node = %q", st.Node)
	}
	if st.Policy != n.d.PolicyName() {
		t.Errorf("policy = %q, want %q", st.Policy, n.d.PolicyName())
	}
	if st.LimitWatts != 50 {
		t.Errorf("limit = %v", st.LimitWatts)
	}
	if st.FallbackWatts != 50 { // defaulted to the construction limit
		t.Errorf("fallback = %v", st.FallbackWatts)
	}
	if st.PowerWatts <= 0 {
		t.Errorf("power = %v, want positive after a run", st.PowerWatts)
	}
	if st.MaxWatts != float64(platform.Skylake().RAPLMax) {
		t.Errorf("max = %v", st.MaxWatts)
	}
	if st.Iterations != 3 {
		t.Errorf("iterations = %d, want 3", st.Iterations)
	}
	if len(st.Apps) != 2 || st.Apps[0].Name != "gcc" || st.Apps[0].Shares != 50 {
		t.Errorf("apps = %+v", st.Apps)
	}
	if st.Lease != nil {
		t.Errorf("unsolicited lease: %+v", st.Lease)
	}
}

func TestLeaseLifecycle(t *testing.T) {
	rec := flight.New(0)
	vc := clock.NewVirtual(time.Unix(0, 0))
	n := newNode(t, "n0", 50, 30, rec, 3, vc)
	c := powerapi.NewClient(n.srv.URL)
	ctx := context.Background()

	ttl := 120 * time.Millisecond
	ack, err := c.Lease(ctx, &powerapi.LeaseGrant{ID: 1, Coordinator: "coord", LimitWatts: 40, TTLMS: ttl.Milliseconds()})
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Applied || ack.LimitWatts != 40 {
		t.Fatalf("ack = %+v", ack)
	}
	if got := n.d.Limit(); got != 40 {
		t.Fatalf("daemon limit = %v after grant", got)
	}
	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Lease == nil || st.Lease.ID != 1 || st.Lease.Coordinator != "coord" {
		t.Fatalf("status lease = %+v", st.Lease)
	}

	// Renewal at a new cap while the lease is live.
	if _, err := c.Lease(ctx, &powerapi.LeaseGrant{ID: 2, LimitWatts: 45, TTLMS: ttl.Milliseconds()}); err != nil {
		t.Fatal(err)
	}
	if got := n.d.Limit(); got != 45 {
		t.Fatalf("daemon limit = %v after renewal", got)
	}

	// Let the lease lapse: the node must revert to the fallback cap on
	// its own, one TTL after the renewal and not before.
	if vc.Advance(ttl - 1); n.d.Limit() != 45 {
		t.Fatalf("daemon limit = %v before the lease's deadline, want 45", n.d.Limit())
	}
	vc.Advance(1)
	if got := n.d.Limit(); got != 30 {
		t.Fatalf("daemon limit = %v after expiry, want fallback 30", got)
	}

	// The whole state machine must be in the flight recorder.
	var codes []uint32
	for _, e := range rec.Dump("test").Events {
		if e.Kind != flight.KindLease {
			continue
		}
		if e.Source != flight.SourceControl {
			t.Errorf("lease event source = %v", e.Source)
		}
		if e.Core != 3 {
			t.Errorf("lease event node id = %d, want 3", e.Core)
		}
		codes = append(codes, e.Arg)
	}
	want := []uint32{flight.LeaseGrant, flight.LeaseRenew, flight.LeaseExpire, flight.LeaseFallback}
	if len(codes) != len(want) {
		t.Fatalf("lease events = %v, want %v", codes, want)
	}
	for i := range want {
		if codes[i] != want[i] {
			t.Fatalf("lease event %d = %s, want %s", i, flight.LeaseName(codes[i]), flight.LeaseName(want[i]))
		}
	}
}

// capBackend is a leaf backend that enforces the caps it is given, or,
// while refusing, refuses them.
type capBackend struct {
	mu       sync.Mutex
	limit    units.Watts
	refusing bool
}

func (b *capBackend) FillStatus(st *powerapi.NodeStatus) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st.LimitWatts = float64(b.limit)
}

func (b *capBackend) SetLimit(_ context.Context, w units.Watts) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.refusing {
		return errors.New("cap refused")
	}
	b.limit = w
	return nil
}

func (b *capBackend) cap() units.Watts {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.limit
}

// TestRefusedGrantKeepsTheLease: a grant the backend refuses changes
// nothing the agent holds. The lease it could not replace still runs, with
// its own fallback, and lapses at its own deadline — which is when the
// coordinator, whose ledger never saw the refused grant, writes the node
// off and may re-grant the difference.
func TestRefusedGrantKeepsTheLease(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	be := &capBackend{limit: 30}
	a, err := powerapi.NewAgent(powerapi.AgentConfig{Name: "n0", Backend: be, Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ctx := context.Background()
	ttl := 100 * time.Millisecond
	if _, err := a.GrantCtx(ctx, &powerapi.LeaseGrant{ID: 1, LimitWatts: 80, TTLMS: ttl.Milliseconds(), FallbackWatts: 40}); err != nil {
		t.Fatal(err)
	}
	vc.Advance(ttl / 2)
	be.mu.Lock()
	be.refusing = true
	be.mu.Unlock()
	if _, err := a.GrantCtx(ctx, &powerapi.LeaseGrant{ID: 2, LimitWatts: 50, TTLMS: ttl.Milliseconds(), FallbackWatts: 20}); err == nil {
		t.Fatal("the backend refused the cap, but the grant was acknowledged")
	}
	be.mu.Lock()
	be.refusing = false
	be.mu.Unlock()
	st := a.Status()
	if st.Lease == nil || st.Lease.ID != 1 || st.Lease.LimitWatts != 80 || st.Lease.RemainingMS != 50 || st.FallbackWatts != 40 {
		t.Fatalf("after the refused grant: lease %+v, fallback %v W; want lease 1 at 80 W with 50 ms left, fallback 40 W", st.Lease, st.FallbackWatts)
	}
	if vc.Advance(ttl/2 - 1); be.cap() != 80 {
		t.Fatalf("cap %v before lease 1's deadline, want 80 W", be.cap())
	}
	vc.Advance(1)
	if got := be.cap(); got != 40 || a.Status().Lease != nil {
		t.Fatalf("at lease 1's deadline: cap %v, lease %+v; want lease 1's 40 W fallback and no lease", got, a.Status().Lease)
	}
	if vc.Advance(4 * ttl); be.cap() != 40 {
		t.Fatalf("cap %v four TTLs on, want the 40 W fallback", be.cap())
	}
}

func TestStaleLeaseRefused(t *testing.T) {
	n := newNode(t, "n0", 50, 0, nil, 0, nil)
	c := powerapi.NewClient(n.srv.URL)
	ctx := context.Background()
	if _, err := c.Lease(ctx, &powerapi.LeaseGrant{ID: 5, LimitWatts: 40, TTLMS: 60_000}); err != nil {
		t.Fatal(err)
	}
	_, err := c.Lease(ctx, &powerapi.LeaseGrant{ID: 3, LimitWatts: 60, TTLMS: 60_000})
	er, ok := err.(*powerapi.ErrorReply)
	if !ok || er.Code != powerapi.CodeStaleLease {
		t.Fatalf("stale grant -> %v, want %s", err, powerapi.CodeStaleLease)
	}
	if got := n.d.Limit(); got != 40 {
		t.Errorf("stale grant changed the limit to %v", got)
	}
}

func TestDrainRefusesLeases(t *testing.T) {
	n := newNode(t, "n0", 50, 35, nil, 0, nil)
	c := powerapi.NewClient(n.srv.URL)
	ctx := context.Background()

	if _, err := c.Lease(ctx, &powerapi.LeaseGrant{ID: 1, LimitWatts: 48, TTLMS: 60_000}); err != nil {
		t.Fatal(err)
	}
	ack, err := c.Drain(ctx, true)
	if err != nil || !ack.Draining {
		t.Fatalf("drain on: %+v, %v", ack, err)
	}
	if got := n.d.Limit(); got != 35 {
		t.Errorf("draining node limit = %v, want fallback 35", got)
	}
	_, err = c.Lease(ctx, &powerapi.LeaseGrant{ID: 2, LimitWatts: 48, TTLMS: 60_000})
	er, ok := err.(*powerapi.ErrorReply)
	if !ok || er.Code != powerapi.CodeDraining {
		t.Fatalf("grant while draining -> %v, want %s", err, powerapi.CodeDraining)
	}
	if ack, err := c.Drain(ctx, false); err != nil || ack.Draining {
		t.Fatalf("drain off: %+v, %v", ack, err)
	}
	if _, err := c.Lease(ctx, &powerapi.LeaseGrant{ID: 3, LimitWatts: 48, TTLMS: 60_000}); err != nil {
		t.Fatalf("grant after undrain: %v", err)
	}
}

// TestLiveReconfigure is the acceptance check for live reconfiguration:
// switch a running daemon's policy and shares over the wire (exactly what
// powerctl sends), and verify the decision journal shows the change on the
// next interval with no dropped sample.
func TestLiveReconfigure(t *testing.T) {
	n := newNode(t, "n0", 50, 0, nil, 0, nil)
	c := powerapi.NewClient(n.srv.URL)
	ctx := context.Background()

	n.m.Run(5 * time.Second)
	oldName := n.d.PolicyName()
	before := n.journal.Total()
	if before != 5 {
		t.Fatalf("journal has %d entries after 5 intervals", before)
	}

	ack, err := c.Reconfigure(ctx, &powerapi.Reconfigure{
		Policy: "performance",
		Shares: map[string]int{"gcc": 80, "cam4": 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	newName := n.d.PolicyName()
	if newName == oldName {
		t.Fatalf("policy name still %q after reconfigure", newName)
	}
	if ack.Policy != newName {
		t.Errorf("ack policy = %q, want %q", ack.Policy, newName)
	}

	n.m.Run(5 * time.Second)

	// No dropped sample: 5 intervals + 1 reconfigure mark + 5 intervals,
	// contiguous Seq.
	entries := n.journal.Tail(int(n.journal.Total()))
	if len(entries) != 11 {
		t.Fatalf("journal has %d entries, want 11", len(entries))
	}
	for i, e := range entries {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d; a sample was dropped", i, e.Seq)
		}
	}

	// The reconfigure mark sits between the two runs and the very next
	// decision runs under the new policy.
	mark := entries[5]
	if len(mark.Reasons) != 1 || mark.Reasons[0] != string(core.ReasonReconfigure) {
		t.Fatalf("entry 6 reasons = %v, want [%s]", mark.Reasons, core.ReasonReconfigure)
	}
	for _, e := range entries[:5] {
		if e.Policy != oldName {
			t.Errorf("pre-reconfigure entry seq %d under policy %q, want %q", e.Seq, e.Policy, oldName)
		}
	}
	for _, e := range entries[6:] {
		if e.Policy != newName {
			t.Errorf("post-reconfigure entry seq %d under policy %q, want %q", e.Seq, e.Policy, newName)
		}
	}

	// The share change is visible in the daemon's spec set.
	for _, s := range n.d.Apps() {
		want := units.Shares(80)
		if s.Name == "cam4" {
			want = 20
		}
		if s.Shares != want {
			t.Errorf("app %s shares = %v, want %v", s.Name, s.Shares, want)
		}
	}
}

func TestReconfigureValidation(t *testing.T) {
	n := newNode(t, "n0", 50, 0, nil, 0, nil)
	c := powerapi.NewClient(n.srv.URL)
	ctx := context.Background()
	cases := []*powerapi.Reconfigure{
		{},                                  // empty
		{Shares: map[string]int{"nope": 5}}, // unknown app
		{Shares: map[string]int{"gcc": 0}},  // non-positive shares
		{Priorities: map[string]string{"gcc": "vip"}}, // bad priority class
		{LimitWatts: -3},             // negative limit
		{Policy: "thermal-roulette"}, // unknown policy
	}
	for _, rc := range cases {
		if _, err := c.Reconfigure(ctx, rc); err == nil {
			t.Errorf("reconfigure %+v accepted", rc)
		}
	}
	if got := n.d.PolicyName(); got != "frequency-shares" {
		t.Errorf("policy changed to %q by rejected reconfigures", got)
	}
	if got := n.d.Limit(); got != 50 {
		t.Errorf("limit changed to %v by rejected reconfigures", got)
	}
}

// TestAgentEndpointHardening covers the method and media-type contract of
// every control-plane endpoint.
func TestAgentEndpointHardening(t *testing.T) {
	n := newNode(t, "n0", 50, 0, nil, 0, nil)
	base := n.srv.URL

	// Wrong methods get 405 with an Allow header.
	cases := []struct {
		method, path, allow string
	}{
		{http.MethodPost, powerapi.PathPrefix + "status", "GET"},
		{http.MethodGet, powerapi.PathPrefix + "lease", "POST"},
		{http.MethodGet, powerapi.PathPrefix + "reconfigure", "POST"},
		{http.MethodGet, powerapi.PathPrefix + "drain", "POST"},
		{http.MethodDelete, powerapi.PathPrefix + "lease", "POST"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, base+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s -> %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s Allow = %q, want %q", tc.method, tc.path, got, tc.allow)
		}
		if ct := resp.Header.Get("Content-Type"); ct != powerapi.ContentType {
			t.Errorf("%s %s error Content-Type = %q", tc.method, tc.path, ct)
		}
	}

	// Wrong media type on a POST gets 415.
	body, err := powerapi.Marshal(&powerapi.Drain{On: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+powerapi.PathPrefix+"drain", "text/plain", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("text/plain POST -> %d, want 415", resp.StatusCode)
	}

	// Malformed and oversized bodies are rejected, not 500s.
	resp, err = http.Post(base+powerapi.PathPrefix+"drain", powerapi.ContentType, strings.NewReader(`{"v":1,`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated body -> %d, want 400", resp.StatusCode)
	}
	big := strings.NewReader(`{"pad":"` + strings.Repeat("x", 1<<21) + `"}`)
	resp, err = http.Post(base+powerapi.PathPrefix+"drain", powerapi.ContentType, big)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body -> %d, want 413", resp.StatusCode)
	}

	// Happy-path responses declare their media type too.
	resp, err = http.Get(base + powerapi.PathPrefix + "status")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != powerapi.ContentType {
		t.Errorf("status Content-Type = %q", ct)
	}
}
