package cluster

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/platform"
	"repro/internal/powerapi"
	"repro/internal/units"
	"repro/internal/workload"
)

// simNode is a simulated node as a deployment puts it under a coordinator:
// node.New's machine and daemon, the daemon fronted by a powerapi agent
// that holds the coordinator's lease.
type simNode struct {
	*node.Node
	t *AgentTransport
}

// newNode builds a Skylake node running the named profiles under a
// frequency-share daemon with equal shares, its agent on clock vc.
func newNode(t *testing.T, vc *clock.Virtual, name string, apps []string) simNode {
	t.Helper()
	chip := platform.Skylake()
	specs := make([]core.AppSpec, len(apps))
	for i, a := range apps {
		specs[i] = core.AppSpec{Name: a, Core: i, Shares: 50, AVX: workload.MustByName(a).AVX}
	}
	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.New(node.Spec{Chip: chip, Apps: specs, Policy: pol, Limit: chip.RAPLMax})
	if err != nil {
		t.Fatal(err)
	}
	a, err := powerapi.NewAgent(powerapi.AgentConfig{Name: name, Daemon: n.Daemon, Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	return simNode{n, NewAgentTransport(a, "room")}
}

func hungry(t *testing.T, vc *clock.Virtual, name string) simNode {
	apps := make([]string, 10)
	for i := range apps {
		apps[i] = "cactusBSSN"
	}
	return newNode(t, vc, name, apps)
}

func light(t *testing.T, vc *clock.Virtual, name string) simNode {
	return newNode(t, vc, name, []string{"leela", "leela"})
}

// newRoom builds a coordinator over the nodes on their clock vc.
func newRoom(t *testing.T, vc *clock.Virtual, cfg Config, nodes ...simNode) *Coordinator {
	t.Helper()
	ts := make([]Transport, len(nodes))
	for i, n := range nodes {
		ts[i] = n.t
	}
	cfg.Clock = vc
	c, err := NewOverTransports(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// lockstep advances the machines and the coordinator's virtual clock
// together for d, one coordinator interval at a time, and steps the
// coordinator after each: every node bids the power its daemon measured
// over the interval, and the coordinator water-fills the budget over the
// bids above the per-node floors.
func lockstep(t *testing.T, c *Coordinator, nodes []simNode, d time.Duration) {
	t.Helper()
	vc := c.cfg.Clock.(*clock.Virtual)
	for elapsed := time.Duration(0); elapsed < d; elapsed += c.cfg.Interval {
		step := min(c.cfg.Interval, d-elapsed)
		for _, n := range nodes {
			if err := n.Run(step); err != nil {
				t.Fatal(err)
			}
		}
		vc.Advance(step)
		if err := c.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := NewOverTransports(nil, Config{Budget: 80}); err == nil {
		t.Error("no nodes accepted")
	}
	if _, err := NewOverTransports([]Transport{nil}, Config{Budget: 80}); err == nil {
		t.Error("nil transport accepted")
	}
	twice := []Transport{&probeTransport{name: "a"}, &probeTransport{name: "b"}, &probeTransport{name: "a"}}
	if _, err := NewOverTransports(twice, Config{Budget: 80}); err == nil {
		t.Error("a node named twice accepted")
	}
	vc := clock.NewVirtual(time.Time{})
	if _, err := NewOverTransports([]Transport{hungry(t, vc, "a").t}, Config{Clock: vc}); err == nil {
		t.Error("zero budget accepted")
	}
}

// limitsOf reads every node's limit, in index order.
func limitsOf(c *Coordinator) []units.Watts {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]units.Watts, len(c.kids))
	for i, k := range c.kids {
		out[i] = k.limit
	}
	return out
}

// grantedOf reads every node's last acknowledged grant, in index order.
func grantedOf(c *Coordinator) []units.Watts {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]units.Watts, len(c.kids))
	for i, k := range c.kids {
		out[i] = k.granted
	}
	return out
}

// TestSetChildrenCarriesByName: a change of node set that reorders, drops
// and adds nodes keeps each survivor's record — the same record, with its
// last report, its failures and its lease — and gives a newcomer a fresh
// one that holds only its transport, its series and the lease its first
// grant set. The equal split it sends shrinks the survivor holding more
// than its share before the newcomer grows, and the round counter goes on.
func TestSetChildrenCarriesByName(t *testing.T) {
	var (
		grants []string
		down   bool // c's calls fail
	)
	probe := func(name string, power units.Watts) *probeTransport {
		return &probeTransport{
			name: name, local: true,
			report: func(context.Context) (Report, error) {
				if name == "c" && down {
					return Report{}, fmt.Errorf("c: unreachable")
				}
				return Report{Power: power, Limit: 50, Max: 85}, nil
			},
			grant: func(context.Context, Grant) error {
				if name == "c" && down {
					return fmt.Errorf("c: unreachable")
				}
				grants = append(grants, name)
				return nil
			},
		}
	}
	pa, pb, pc, pd := probe("a", 40), probe("b", 10), probe("c", 30), probe("d", 20)
	vc := clock.NewVirtual(time.Time{})
	c, err := NewOverTransports([]Transport{pa, pb, pc}, Config{Budget: 150, Clock: vc, Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.Step(ctx); err != nil {
		t.Fatal(err)
	}
	down = true
	if err := c.Step(ctx); err != nil {
		t.Fatal(err)
	}
	ka, kc := c.kids[0], c.kids[2]
	heldC, untilC := kc.granted, kc.until
	if ka.granted <= 50 {
		t.Fatalf("a holds %v, want more than the 50 W equal split", ka.granted)
	}
	if err := c.SetChildren(nil); err == nil {
		t.Fatal("an empty node set accepted")
	}

	grants = nil
	if err := c.SetChildren([]Transport{pc, pd, pa}); err != nil {
		t.Fatal(err)
	}
	if c.kids[0] != kc || c.kids[2] != ka {
		t.Fatal("a survivor's record was not carried whole")
	}
	if kc.power != 30 || kc.fails != 1 || !kc.failed || kc.granted != heldC || !kc.until.Equal(untilC) {
		t.Errorf("c: last power %v, %d failed steps, failed since %v, holds %v until %v; want 30 W, 1, true, %v until %v",
			kc.power, kc.fails, kc.failed, kc.granted, kc.until, heldC, untilC)
	}
	if ka.power != 40 || ka.maxPower != 85 || ka.granted != 50 {
		t.Errorf("a: last power %v, max %v, granted %v; want 40 W, 85 W and its 50 W share", ka.power, ka.maxPower, ka.granted)
	}

	// A newcomer's record is zero but for these, every one of them set. A
	// field added to child later is held to zero until it joins this list.
	kd := c.kids[1]
	set := map[string]bool{"t": true, "limit": true, "granted": true, "fallback": true, "until": true, "mLimit": true, "mQuar": true, "mFails": true}
	rec := reflect.ValueOf(kd).Elem()
	for name := range set {
		if f := rec.FieldByName(name); !f.IsValid() || f.IsZero() {
			t.Errorf("newcomer's %s is unset", name)
		}
	}
	for i := 0; i < rec.NumField(); i++ {
		if name := rec.Type().Field(i).Name; !set[name] && !rec.Field(i).IsZero() {
			t.Errorf("newcomer starts with %s = %v", name, rec.Field(i))
		}
	}
	if kd.t != pd || kd.granted != 50 || kd.limit != 50 || kd.fallback != c.floor() || !kd.until.Equal(vc.Now().Add(c.cfg.LeaseTTL)) {
		t.Errorf("newcomer: transport %s, granted %v, limit %v, fallback %v until %v; want d, its 50 W share and the %v floor until %v",
			kd.t.Name(), kd.granted, kd.limit, kd.fallback, kd.until, c.floor(), vc.Now().Add(c.cfg.LeaseTTL))
	}
	if fmt.Sprint(grants) != "[a d]" {
		t.Errorf("grants went out in the order %v, want a's shrink before the newcomer's grow", grants)
	}
	if len(c.sc.reports) != 3 || c.Rounds() != 2 {
		t.Errorf("%d report slots and %d rounds after the change, want 3 and 2", len(c.sc.reports), c.Rounds())
	}
	if err := c.Step(ctx); err != nil {
		t.Fatal(err)
	}
	if kc.fails != 2 || c.Rounds() != 3 {
		t.Errorf("after the next round: c has %d failed steps and the coordinator %d rounds, want 2 and 3", kc.fails, c.Rounds())
	}
}

// TestRemovedChildTakesItsSeries: a node that leaves takes its limit,
// quarantine and failure series off /metrics, and one that rejoins under
// the same name starts them afresh.
func TestRemovedChildTakesItsSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	down := true // b's reports fail
	pa := &probeTransport{name: "a", local: true, report: func(context.Context) (Report, error) { return okReport, nil }}
	pb := &probeTransport{name: "b", local: true, report: func(context.Context) (Report, error) {
		if down {
			return Report{}, fmt.Errorf("b: unreachable")
		}
		return okReport, nil
	}}
	c, err := NewOverTransports([]Transport{pa, pb}, Config{Budget: 100, Metrics: reg, Clock: clock.NewVirtual(time.Time{})})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for range 3 { // the default QuarantineAfter
		if err := c.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	series := []string{`cluster_node_limit_watts{node="b"}`, `cluster_node_quarantined{node="b"}`, `cluster_transport_failures_total{node="b"}`}
	if v := reg.Values(); v[series[0]] != 50 || v[series[1]] != 1 || v[series[2]] != 3 {
		t.Fatalf("before b leaves: limit %v, quarantined %v, failures %v; want 50, 1 and 3", v[series[0]], v[series[1]], v[series[2]])
	}

	if err := c.SetChildren([]Transport{pa}); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), `node="b"`) {
		t.Errorf("b left, but /metrics still shows it:\n%s", out.String())
	}
	if !strings.Contains(out.String(), `cluster_node_limit_watts{node="a"} 100`) {
		t.Errorf("a's limit series is not its whole 100 W budget:\n%s", out.String())
	}

	down = false
	if err := c.SetChildren([]Transport{pa, pb}); err != nil {
		t.Fatal(err)
	}
	if err := c.Step(ctx); err != nil {
		t.Fatal(err)
	}
	limit := c.Nodes()[1].LimitWatts
	if v := reg.Values(); v[series[0]] != limit || v[series[1]] != 0 || v[series[2]] != 0 {
		t.Errorf("b rejoined: limit %v, quarantined %v, failures %v; want its %v W limit, 0 and 0", v[series[0]], v[series[1]], v[series[2]], limit)
	}
}

// leaseProbe is a node that enforces what an agent would: its last grant
// while that grant's lease lives, the fallback the grant carried after, and
// nothing before its first grant. It reports drawing all of it, so it bids
// for more every round.
type leaseProbe struct {
	probeTransport
	down            bool // its calls fail
	limit, fallback units.Watts
	until           time.Time
	now             func() time.Time
}

func newLeaseProbe(name string, vc *clock.Virtual) *leaseProbe {
	p := &leaseProbe{now: vc.Now}
	p.probeTransport = probeTransport{
		name: name, local: true,
		report: func(context.Context) (Report, error) {
			if p.down {
				return Report{}, fmt.Errorf("%s: unreachable", name)
			}
			return Report{Power: p.enforced(), Limit: p.enforced(), Max: 200}, nil
		},
		grant: func(_ context.Context, g Grant) error {
			if p.down {
				return fmt.Errorf("%s: unreachable", name)
			}
			p.limit, p.fallback, p.until = g.Limit, g.Fallback, p.now().Add(g.TTL)
			return nil
		},
	}
	return p
}

func (p *leaseProbe) enforced() units.Watts {
	if p.now().Before(p.until) {
		return p.limit
	}
	return p.fallback
}

// TestLapsedLeaseCountsItsFallback: a node cut off past its lease enforces
// the fallback its last grant carried. When the node set then grows, the
// floor falls below that fallback; the coordinator goes on counting what
// the node enforces, so the caps the nodes enforce never sum above the
// budget.
func TestLapsedLeaseCountsItsFallback(t *testing.T) {
	const budget = 200
	vc := clock.NewVirtual(time.Time{})
	a, b, d := newLeaseProbe("a", vc), newLeaseProbe("b", vc), newLeaseProbe("d", vc)
	c, err := NewOverTransports([]Transport{a, b}, Config{
		Budget: budget, FloorBudget: budget, Interval: time.Second, LeaseTTL: 3 * time.Second, Clock: vc,
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes := []*leaseProbe{a, b}
	check := func(when string) {
		t.Helper()
		var sum units.Watts
		for _, p := range nodes {
			sum += p.enforced()
		}
		if sum > budget+budgetSlack {
			t.Errorf("%s: the nodes enforce %v under a %v W budget", when, sum, budget)
		}
	}
	steps := 0
	step := func() {
		t.Helper()
		steps++
		vc.Advance(time.Second)
		if err := c.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("round %d", steps))
	}

	step()
	b.down = true
	for range 5 {
		step()
	}
	if got := b.enforced(); got != 50 {
		t.Fatalf("b enforces %v past its lease, want the 50 W fallback its grant carried", got)
	}
	nodes = append(nodes, d)
	if err := c.SetChildren([]Transport{a, b, d}); err != nil {
		t.Fatal(err)
	}
	check("the change to three nodes")
	for range 3 {
		step()
	}
	if got := c.Nodes()[1].LimitWatts; got != 50 {
		t.Errorf("the coordinator holds b at %v, want the 50 W it enforces", got)
	}
}

func TestInitialEqualSplit(t *testing.T) {
	vc := clock.NewVirtual(time.Time{})
	nodes := []simNode{hungry(t, vc, "a"), light(t, vc, "b")}
	c := newRoom(t, vc, Config{Budget: 80}, nodes...)
	for i, l := range limitsOf(c) {
		if l != 40 {
			t.Errorf("node %d initial limit = %v, want 40", i, l)
		}
	}
	if nodes[0].Daemon.Limit() != 40 {
		t.Errorf("daemon limit = %v", nodes[0].Daemon.Limit())
	}
}

// The headline behaviour: with one hungry and one light node, the
// coordinator shifts budget to the hungry node, and its throughput beats a
// static equal split.
func TestBudgetFlowsToConstrainedNode(t *testing.T) {
	// run returns the hungry node's instruction rate over a final window,
	// and the coordinator when there is one.
	run := func(dynamic bool) (hungryIPS float64, c *Coordinator) {
		vc := clock.NewVirtual(time.Time{})
		nodes := []simNode{hungry(t, vc, "hungry"), light(t, vc, "light")}
		if dynamic {
			c = newRoom(t, vc, Config{Budget: 80}, nodes...)
			lockstep(t, c, nodes, 120*time.Second)
		} else {
			// Static split: each daemon holds half the budget, and
			// nothing reallocates it.
			for _, n := range nodes {
				if err := n.Daemon.SetLimit(40); err != nil {
					t.Fatal(err)
				}
				if err := n.Run(120 * time.Second); err != nil {
					t.Fatal(err)
				}
			}
		}
		i0 := 0.0
		for core := 0; core < 10; core++ {
			i0 += nodes[0].M.Counters(core).Instr
		}
		for _, n := range nodes {
			n.M.Run(10 * time.Second)
		}
		i1 := 0.0
		for core := 0; core < 10; core++ {
			i1 += nodes[0].M.Counters(core).Instr
		}
		return (i1 - i0) / 10, c
	}

	staticIPS, _ := run(false)
	dynIPS, c := run(true)
	limits, total := limitsOf(c), c.Aggregate().Power

	if limits[0] <= 41 {
		t.Errorf("hungry node limit = %v, expected growth above the equal split", limits[0])
	}
	if limits[1] >= 40 {
		t.Errorf("light node limit = %v, expected to shrink", limits[1])
	}
	// Floors hold.
	if limits[1] < 20-0.5 {
		t.Errorf("light node limit %v below the 20 W floor", limits[1])
	}
	// Budget conserved.
	if got := limits[0] + limits[1]; got > 80+0.5 {
		t.Errorf("limits sum %v exceeds budget", got)
	}
	if total > 80*1.05 {
		t.Errorf("total power %v exceeds budget", total)
	}
	// And the reallocation bought real throughput.
	if dynIPS <= staticIPS*1.05 {
		t.Errorf("dynamic %0.4g not >5%% above static %0.4g", dynIPS, staticIPS)
	}
}

// Two equally hungry nodes split the budget evenly — no oscillating
// favouritism.
func TestSymmetricNodesStayBalanced(t *testing.T) {
	vc := clock.NewVirtual(time.Time{})
	nodes := []simNode{hungry(t, vc, "a"), hungry(t, vc, "b")}
	c := newRoom(t, vc, Config{Budget: 80}, nodes...)
	lockstep(t, c, nodes, 60*time.Second)
	limits := limitsOf(c)
	diff := float64(limits[0] - limits[1])
	if diff < 0 {
		diff = -diff
	}
	if diff > 4 {
		t.Errorf("symmetric nodes diverged: %v vs %v", limits[0], limits[1])
	}
}

// The light node's own workload must not be harmed by donating budget: its
// applications were nowhere near the old limit.
func TestDonorUnharmed(t *testing.T) {
	vc := clock.NewVirtual(time.Time{})
	nodes := []simNode{hungry(t, vc, "hungry"), light(t, vc, "light")}
	c := newRoom(t, vc, Config{Budget: 80}, nodes...)
	lockstep(t, c, nodes, 60*time.Second)
	// leela on 2 cores of an otherwise idle Skylake draws ~25 W at full
	// speed, under the light node's floor-protected limit: its cores must
	// still run at their ceiling.
	for core := 0; core < 2; core++ {
		if f := nodes[1].M.EffectiveFreq(core); f < 2900*units.MHz {
			t.Errorf("donor core %d throttled to %v", core, f)
		}
	}
	if c.Reallocations() == 0 {
		t.Error("coordinator never moved budget")
	}
}

func TestCoordinatorMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	vc := clock.NewVirtual(time.Time{})
	nodes := []simNode{hungry(t, vc, "n0"), light(t, vc, "n1")}
	c := newRoom(t, vc, Config{
		Budget:   100,
		Interval: 2 * time.Second,
		Metrics:  reg,
	}, nodes...)
	lockstep(t, c, nodes, 20*time.Second)
	if c.Reallocations() == 0 {
		t.Fatal("no reallocations happened; cannot exercise the counters")
	}
	if v := reg.Counter("cluster_reallocations_total", "").Value(); v != float64(c.Reallocations()) {
		t.Errorf("cluster_reallocations_total = %v, want %d", v, c.Reallocations())
	}
	if v := reg.Counter("cluster_budget_moved_watts_total", "").Value(); v <= 0 {
		t.Errorf("cluster_budget_moved_watts_total = %v", v)
	}
	limits := limitsOf(c)
	gv := reg.GaugeVec("cluster_node_limit_watts", "", "node")
	for i, name := range []string{"n0", "n1"} {
		if got := gv.With(name).Value(); got != float64(limits[i]) {
			t.Errorf("node %s limit gauge = %v, want %v", name, got, limits[i])
		}
	}
	if v := reg.Gauge("cluster_total_power_watts", "").Value(); v <= 0 {
		t.Errorf("cluster_total_power_watts = %v", v)
	}
}

// refusingNode is an in-process node whose cap cannot be set: Grant — the
// daemon's SetLimit — fails, while its reports keep flowing.
type refusingNode struct{ Transport }

func (n refusingNode) Grant(context.Context, Grant) error {
	return fmt.Errorf("%s: SetLimit failed", n.Name())
}

// deadNode is an in-process node the coordinator cannot reach: every call
// fails.
type deadNode struct{ Transport }

func (n deadNode) Report(context.Context) (Report, error) {
	return Report{}, fmt.Errorf("%s: unreachable", n.Name())
}

func (n deadNode) Grant(context.Context, Grant) error {
	return fmt.Errorf("%s: unreachable", n.Name())
}

// An in-process room degrades like one over the wire: when the light node
// stops accepting caps, or stops answering at all, no round fails or
// waits, the node is quarantined once QuarantineAfter steps in a row have
// each had a failed call to it, and — its shrink never acknowledged — the
// hungry node is not grown into budget the light one may still be holding.
// The light node's lease is real: it holds its last accepted cap until the
// lease's deadline, then exactly its fallback floor, and only then may the
// hungry node grow into what it gave back.
func TestInProcessNodeRefusingGrantsIsQuarantined(t *testing.T) {
	for _, tc := range []struct {
		name   string
		broken func(Transport) Transport
	}{
		{"refuses grants", func(t Transport) Transport { return refusingNode{t} }},
		{"every call fails", func(t Transport) Transport { return deadNode{t} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const budget = units.Watts(80)
			vc := clock.NewVirtual(time.Time{})
			nodes := []simNode{hungry(t, vc, "hungry"), light(t, vc, "light")}
			reg := metrics.NewRegistry()
			c := newRoom(t, vc, Config{Budget: budget, Metrics: reg}, nodes...)
			limitGauge := reg.GaugeVec("cluster_node_limit_watts", "", "node")
			deadline := c.kids[1].until
			c.kids[1].t = tc.broken(c.kids[1].t)
			lapsed := false
			for step := 1; step <= 6; step++ {
				lockstep(t, c, nodes, 5*time.Second)
				if want := step >= c.cfg.QuarantineAfter; c.kids[1].quar != want || c.kids[0].quar {
					t.Errorf("step %d: quarantined hungry/light = %v/%v, want false/%v", step, c.kids[0].quar, c.kids[1].quar, want)
				}
				var planned, enforced units.Watts
				for i, l := range limitsOf(c) {
					planned += l
					enforced += nodes[i].Daemon.Limit()
					// What the coordinator reports of a node is the cap
					// the node's daemon enforces.
					if got, gauge := nodes[i].Daemon.Limit(), limitGauge.With(c.kids[i].t.Name()).Value(); l != got || gauge != float64(got) {
						t.Errorf("step %d: %s reported at limits %v and gauge %v, enforcing %v", step, c.kids[i].t.Name(), l, gauge, got)
					}
				}
				if planned > budget+budgetSlack || enforced > budget+budgetSlack {
					t.Errorf("step %d: Σ limits planned %v, enforced %v, over the %v budget", step, planned, enforced, budget)
				}
				if vc.Now().Before(deadline) {
					if got := nodes[1].Daemon.Limit(); got != budget/2 {
						t.Errorf("step %d: light node enforces %v before its lease's deadline, want the %v it last accepted", step, got, budget/2)
					}
					if got := nodes[0].Daemon.Limit(); got > budget-budget/2 {
						t.Errorf("step %d: hungry node enforces %v while the light node's lease holds %v", step, got, budget/2)
					}
					continue
				}
				lapsed = true
				if got, floor := nodes[1].Daemon.Limit(), c.floor(); got != floor {
					t.Errorf("step %d: light node enforces %v after its lease's deadline, want its %v fallback", step, got, floor)
				}
			}
			if !lapsed {
				t.Errorf("the light node's lease, due %v, never lapsed", deadline.Sub(time.Time{}))
			}
			if v := reg.CounterVec("cluster_transport_failures_total", "", "node").With("light").Value(); v != 6 {
				t.Errorf("transport failures = %v, want one per step", v)
			}
		})
	}
}

// Three nodes with mixed demand: budget concentrates on the two hungry
// nodes while the idle one keeps only its floor-ish share.
func TestThreeNodeMixedDemand(t *testing.T) {
	vc := clock.NewVirtual(time.Time{})
	nodes := []simNode{hungry(t, vc, "a"), hungry(t, vc, "b"), light(t, vc, "c")}
	c := newRoom(t, vc, Config{Budget: 120}, nodes...)
	lockstep(t, c, nodes, 90*time.Second)
	limits := limitsOf(c)
	if limits[0] <= 40 || limits[1] <= 40 {
		t.Errorf("hungry nodes did not grow past the equal split: %v", limits)
	}
	if limits[2] >= 40 {
		t.Errorf("light node kept %v, expected to shrink below the equal split", limits[2])
	}
	var sum float64
	for _, l := range limits {
		sum += float64(l)
	}
	if sum > 120.5 {
		t.Errorf("limits sum %.1f over budget", sum)
	}
	if total := c.Aggregate().Power; total > 120*1.05 {
		t.Errorf("total power %v over budget", total)
	}
}
