package cluster

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/powerapi"
	"repro/internal/sim"
	"repro/internal/tracing"
	"repro/internal/units"
)

// wireNode is one loopback-HTTP node: machine, daemon, control-plane
// agent, and an obs server carrying the agent — the full cmd/powerd
// -listen -node-name stack, reached only through the wire.
type wireNode struct {
	name string
	m    *sim.Machine
	d    *daemon.Daemon
	srv  *httptest.Server
	tr   *tracing.Tracer
}

// newWireNode builds a Skylake node whose daemon starts at the given
// limit, which doubles as the agent's lease-fallback cap. A non-nil
// tracer makes the agent record a round trace per coordinator RPC; the
// agent's lease timer runs on clk (nil: the wall clock).
func newWireNode(tb testing.TB, name string, limit units.Watts, rec *flight.Recorder, id int16, tr *tracing.Tracer, clk clock.Clock) *wireNode {
	tb.Helper()
	chip := platform.Skylake()
	specs := []core.AppSpec{{Name: "gcc", Core: 0, Shares: 50}, {Name: "cam4", Core: 1, Shares: 50, AVX: true}}
	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	n, err := node.New(node.Spec{Chip: chip, Apps: specs, Policy: pol, Limit: limit, Recorders: &node.Recorders{}})
	if err != nil {
		tb.Fatal(err)
	}
	agent, err := powerapi.NewAgent(powerapi.AgentConfig{
		Name: name, NodeID: id, Daemon: n.Daemon, Fallback: limit,
		PolicyName: "frequency", Metrics: n.Metrics, Flight: rec, Tracer: tr, Clock: clk,
	})
	if err != nil {
		tb.Fatal(err)
	}
	osrv := obs.New(n.Metrics, n.Journal, obs.DaemonStatusFunc(n.Daemon),
		obs.WithHandler(powerapi.PathPrefix, agent.Handler()))
	srv := httptest.NewServer(osrv.Handler())
	tb.Cleanup(srv.Close)
	tb.Cleanup(agent.Close)
	return &wireNode{name: name, m: n.M, d: n.Daemon, srv: srv, tr: tr}
}

// TestPartitionFallsBackWithinTTL is the acceptance check for lease
// safety: run a coordinator over loopback-HTTP nodes, kill it mid-run, and
// verify every node reverts to its fallback cap exactly one lease TTL after
// its last grant — and that, replaying the shared flight recorder, the sum
// of live caps never exceeded the room budget at any point. Coordinator,
// agents and recorder read one virtual clock.
func TestPartitionFallsBackWithinTTL(t *testing.T) {
	const n = 4
	budget := units.Watts(120)
	fallback := budget * 0.5 / n // == the coordinator's floor
	epoch := time.Unix(0, 0)
	vc := clock.NewVirtual(epoch)
	rec := flight.New(0)
	rec.SetClock(func() time.Duration { return vc.Now().Sub(epoch) })

	nodes := make([]*wireNode, n)
	ts := make([]Transport, n)
	for i := range nodes {
		// Node IDs are 1-based: the agent treats NodeID 0 as unset.
		nodes[i] = newWireNode(t, fmt.Sprintf("n%d", i), fallback, rec, int16(i+1), nil, vc)
		nodes[i].m.Run(2 * time.Second) // non-zero power so nodes bid
		ts[i] = NewHTTPNode(nodes[i].name, nodes[i].srv.URL, "coord")
	}

	ttl := 250 * time.Millisecond
	c, err := NewOverTransports(ts, Config{
		Budget:   budget,
		Interval: 40 * time.Millisecond,
		LeaseTTL: ttl,
		Clock:    vc,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, nd := range nodes {
		if got := nd.d.Limit(); got != budget/n {
			t.Fatalf("node %d limit = %v after initial split, want %v", i, got, budget/n)
		}
	}

	// Coordinator runs and renews for seven intervals...
	for round := 0; round < 7; round++ {
		vc.Advance(40 * time.Millisecond)
		if err := c.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// ...and dies. No revocation reaches the nodes; only TTLs. Every lease
	// was granted or renewed by now, so one TTL later all have lapsed.
	vc.Advance(ttl)
	for i, nd := range nodes {
		if got := nd.d.Limit(); got != fallback {
			t.Errorf("node %d limit = %v after coordinator death, want fallback %v", i, got, fallback)
		}
	}

	events := rec.Dump("partition").Events
	sort.Slice(events, func(i, j int) bool { return events[i].Seq < events[j].Seq })

	// Every node must have expired exactly one TTL after its last grant or
	// renewal, and then reverted.
	// Virtual time starts at zero, so a zero time does not mean "never".
	var lastGrant, expired, reverted [n]time.Duration
	var granted [n]bool
	for _, e := range events {
		if e.Kind != flight.KindLease || e.Core < 1 || int(e.Core) > n {
			continue
		}
		idx := int(e.Core) - 1
		switch e.Arg {
		case flight.LeaseGrant, flight.LeaseRenew:
			lastGrant[idx], granted[idx] = e.Time, true
		case flight.LeaseExpire:
			expired[idx] = e.Time
		case flight.LeaseFallback:
			reverted[idx] = e.Time
		}
	}
	for i := 0; i < n; i++ {
		if !granted[i] || expired[i] == 0 || reverted[i] == 0 {
			t.Fatalf("node %d missing lease lifecycle events (grant=%v expire=%v fallback=%v)",
				i, lastGrant[i], expired[i], reverted[i])
		}
		if lag := expired[i] - lastGrant[i]; lag != ttl || reverted[i] != expired[i] {
			t.Errorf("node %d expired %v and reverted %v after its last grant, want both one TTL (%v)",
				i, lag, reverted[i]-lastGrant[i], ttl)
		}
	}

	// Replay the lease ledger: at every event, the sum of the caps nodes
	// are actually enforcing must stay within the room budget. This is
	// the paper-level safety property: no partition over-commits power.
	var caps [n]float64
	for i := range caps {
		caps[i] = float64(fallback) * 1e6 // µW; nodes start at their fallback
	}
	budgetUW := float64(budget) * 1e6
	for _, e := range events {
		if e.Kind != flight.KindLease || e.Core < 1 || int(e.Core) > n {
			continue
		}
		switch e.Arg {
		case flight.LeaseGrant, flight.LeaseRenew, flight.LeaseFallback:
			caps[e.Core-1] = float64(e.Value)
		}
		var sum float64
		for _, v := range caps {
			sum += v
		}
		if sum > budgetUW*1.000001 {
			t.Fatalf("after seq %d (%s node %d), granted caps sum to %.1f W > budget %v",
				e.Seq, flight.LeaseName(e.Arg), int(e.Core)-1, sum/1e6, budget)
		}
	}
}

// flakyTransport is an in-process Transport whose failures are switchable.
type flakyTransport struct {
	mu    sync.Mutex
	name  string
	limit units.Watts
	power units.Watts
	max   units.Watts
	fail  bool
}

func (f *flakyTransport) Name() string { return f.name }

func (f *flakyTransport) Local() bool { return false }

func (f *flakyTransport) setFail(v bool) {
	f.mu.Lock()
	f.fail = v
	f.mu.Unlock()
}

func (f *flakyTransport) Report(context.Context) (Report, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return Report{}, fmt.Errorf("%s: connection refused", f.name)
	}
	return Report{Power: f.power, Limit: f.limit, Max: f.max}, nil
}

func (f *flakyTransport) Grant(_ context.Context, g Grant) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return fmt.Errorf("%s: connection refused", f.name)
	}
	f.limit = g.Limit
	return nil
}

// TestQuarantineAndReadmission: a node that keeps failing is quarantined;
// once its lease expires its reservation decays to the floor so the
// healthy node can absorb the freed budget; and its first good report
// re-admits it.
func TestQuarantineAndReadmission(t *testing.T) {
	reg := metrics.NewRegistry()
	vc := clock.NewVirtual(time.Unix(1000, 0))
	f0 := &flakyTransport{name: "flaky", power: 48, max: 85}
	f1 := &flakyTransport{name: "steady", power: 48, max: 85}
	cfg := Config{
		Budget:          100,
		Interval:        time.Second,
		LeaseTTL:        5 * time.Second,
		NodeTimeout:     50 * time.Millisecond,
		QuarantineAfter: 2,
		Metrics:         reg,
		Clock:           vc,
	}
	c, err := NewOverTransports([]Transport{f0, f1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f0.limit != 50 || f1.limit != 50 {
		t.Fatalf("initial split = %v/%v", f0.limit, f1.limit)
	}

	ctx := context.Background()
	f0.setFail(true)
	if err := c.Step(ctx); err != nil {
		t.Fatal(err)
	}
	if c.quar[0] {
		t.Fatal("quarantined after a single failure, want after 2")
	}
	if err := c.Step(ctx); err != nil {
		t.Fatal(err)
	}
	if !c.quar[0] {
		t.Fatal("not quarantined after 2 consecutive failed steps")
	}
	if v := reg.GaugeVec("cluster_node_quarantined", "", "node").With("flaky").Value(); v != 1 {
		t.Errorf("quarantine gauge = %v", v)
	}
	if v := reg.CounterVec("cluster_transport_failures_total", "", "node").With("flaky").Value(); v < 2 {
		t.Errorf("failure counter = %v", v)
	}

	// While the dead node's lease lives, its 50 W stay reserved: the
	// healthy node cannot be granted past budget - reservation.
	if f1.limit > 50 {
		t.Errorf("healthy node at %v W while dead node's lease still holds 50 W", f1.limit)
	}

	// After the lease expires the reservation decays to the floor (25 W)
	// and the healthy node absorbs the freed budget.
	vc.Advance(6 * time.Second)
	if err := c.Step(ctx); err != nil {
		t.Fatal(err)
	}
	if f1.limit <= 50 {
		t.Errorf("healthy node still at %v W after dead node's lease expired", f1.limit)
	}
	if f1.limit > 75 { // budget 100 - floor 25 reserved for the dead node
		t.Errorf("healthy node at %v W, over budget minus the dead node's floor", f1.limit)
	}

	// Recovery: the first good report re-admits the node and budget
	// flows back.
	f0.setFail(false)
	if err := c.Step(ctx); err != nil {
		t.Fatal(err)
	}
	if c.quar[0] {
		t.Error("still quarantined after a good report")
	}
	if v := reg.GaugeVec("cluster_node_quarantined", "", "node").With("flaky").Value(); v != 0 {
		t.Errorf("quarantine gauge = %v after re-admission", v)
	}
	if f0.limit < 25 {
		t.Errorf("re-admitted node limit = %v, below the floor", f0.limit)
	}
	total := float64(f0.limit + f1.limit)
	if total > 100.001 {
		t.Errorf("granted %v W total, over the 100 W budget", total)
	}
}

// BenchmarkCoordinatorTick measures one reallocation round over 64
// loopback-HTTP nodes: 64 status fetches fanned out concurrently plus the
// grant wave the plan produces.
func BenchmarkCoordinatorTick(b *testing.B) {
	const n = 64
	budget := units.Watts(n * 30)
	nodes := make([]*wireNode, n)
	ts := make([]Transport, n)
	for i := range nodes {
		nodes[i] = newWireNode(b, fmt.Sprintf("n%d", i), budget/n, nil, int16(i), nil, nil)
		nodes[i].m.Run(time.Second)
		ts[i] = NewHTTPNode(nodes[i].name, nodes[i].srv.URL, "bench")
	}
	c, err := NewOverTransports(ts, Config{
		Budget:   budget,
		LeaseTTL: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Step(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
