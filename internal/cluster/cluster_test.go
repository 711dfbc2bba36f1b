package cluster

import (
	"context"
	"fmt"
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

// newRoom builds a coordinator over the nodes on their clock vc. It does
// not retry: a backoff on the virtual clock would wait for an advance that
// comes only after the round.
func newRoom(t *testing.T, vc *clock.Virtual, cfg Config, nodes ...simNode) *Coordinator {
	t.Helper()
	ts := make([]Transport, len(nodes))
	for i, n := range nodes {
		ts[i] = n.t
	}
	cfg.Clock, cfg.Retries = vc, -1
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
	vc := clock.NewVirtual(time.Time{})
	if _, err := NewOverTransports([]Transport{hungry(t, vc, "a").t}, Config{Clock: vc}); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestInitialEqualSplit(t *testing.T) {
	vc := clock.NewVirtual(time.Time{})
	nodes := []simNode{hungry(t, vc, "a"), light(t, vc, "b")}
	c := newRoom(t, vc, Config{Budget: 80}, nodes...)
	for i, l := range c.Limits() {
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
	limits, total := c.Limits(), c.TotalPower()

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
	limits := c.Limits()
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
	limits := c.Limits()
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

// An in-process room degrades like one over the wire: when the light node
// stops accepting caps, no round fails, the node is quarantined once it has
// failed QuarantineAfter steps, and — its shrink never acknowledged — the
// hungry node is not grown into budget the light one may still be holding.
// The light node's lease is real: it holds its last accepted cap until the
// lease's deadline, then exactly its fallback floor, and only then may the
// hungry node grow into what it gave back.
func TestInProcessNodeRefusingGrantsIsQuarantined(t *testing.T) {
	const budget = units.Watts(80)
	vc := clock.NewVirtual(time.Time{})
	nodes := []simNode{hungry(t, vc, "hungry"), light(t, vc, "light")}
	reg := metrics.NewRegistry()
	// A good report re-admits, so a node that reports but refuses grants
	// never strings two failed steps together: quarantine it on the first.
	c := newRoom(t, vc, Config{Budget: budget, QuarantineAfter: 1, Metrics: reg}, nodes...)
	deadline := c.LeaseLedger()["light"].Until
	c.ts[1] = refusingNode{c.ts[1]}
	lapsed := false
	for step := 1; step <= 6; step++ {
		lockstep(t, c, nodes, 5*time.Second)
		if !c.Quarantined(1) || c.Quarantined(0) {
			t.Errorf("step %d: quarantined hungry/light = %v/%v, want false/true", step, c.Quarantined(0), c.Quarantined(1))
		}
		var planned, enforced units.Watts
		for i, l := range c.Limits() {
			planned += l
			enforced += nodes[i].Daemon.Limit()
		}
		if planned > budget+budgetSlack || enforced > budget+budgetSlack {
			t.Errorf("step %d: Σ limits planned %v, enforced %v, over the %v budget", step, planned, enforced, budget)
		}
		if vc.Now().Before(deadline) {
			if got := nodes[1].Daemon.Limit(); got != budget/2 {
				t.Errorf("step %d: refusing node enforces %v before its lease's deadline, want the %v it last accepted", step, got, budget/2)
			}
			if got := nodes[0].Daemon.Limit(); got > budget-budget/2 {
				t.Errorf("step %d: hungry node enforces %v while the refusing node's lease holds %v", step, got, budget/2)
			}
			continue
		}
		lapsed = true
		if got, floor := nodes[1].Daemon.Limit(), c.floor(); got != floor {
			t.Errorf("step %d: refusing node enforces %v after its lease's deadline, want its %v fallback", step, got, floor)
		}
	}
	if !lapsed {
		t.Errorf("the refusing node's lease, due %v, never lapsed", deadline.Sub(time.Time{}))
	}
	if v := reg.CounterVec("cluster_transport_failures_total", "", "node").With("light").Value(); v != 6 {
		t.Errorf("transport failures = %v, want one per step", v)
	}
}

// Three nodes with mixed demand: budget concentrates on the two hungry
// nodes while the idle one keeps only its floor-ish share.
func TestThreeNodeMixedDemand(t *testing.T) {
	vc := clock.NewVirtual(time.Time{})
	nodes := []simNode{hungry(t, vc, "a"), hungry(t, vc, "b"), light(t, vc, "c")}
	c := newRoom(t, vc, Config{Budget: 120}, nodes...)
	lockstep(t, c, nodes, 90*time.Second)
	limits := c.Limits()
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
	if c.TotalPower() > 120*1.05 {
		t.Errorf("total power %v over budget", c.TotalPower())
	}
}
