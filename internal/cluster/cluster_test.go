package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/platform"
	"repro/internal/units"
	"repro/internal/workload"
)

// newNode builds a Skylake node running the named profiles under a
// frequency-share daemon with equal shares.
func newNode(t *testing.T, name string, apps []string) *Node {
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
	return &Node{Name: name, M: n.M, Daemon: n.Daemon}
}

func hungry(t *testing.T, name string) *Node {
	apps := make([]string, 10)
	for i := range apps {
		apps[i] = "cactusBSSN"
	}
	return newNode(t, name, apps)
}

func light(t *testing.T, name string) *Node {
	return newNode(t, name, []string{"leela", "leela"})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{Budget: 80}); err == nil {
		t.Error("no nodes accepted")
	}
	if _, err := New([]*Node{nil}, Config{Budget: 80}); err == nil {
		t.Error("nil node accepted")
	}
	if _, err := New([]*Node{hungry(t, "a")}, Config{}); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestInitialEqualSplit(t *testing.T) {
	nodes := []*Node{hungry(t, "a"), light(t, "b")}
	c, err := New(nodes, Config{Budget: 80})
	if err != nil {
		t.Fatal(err)
	}
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
	run := func(dynamic bool) (hungryIPS float64, limits []units.Watts, total units.Watts) {
		nodes := []*Node{hungry(t, "hungry"), light(t, "light")}
		cfg := Config{Budget: 80}
		c, err := New(nodes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if dynamic {
			if err := c.Run(120 * time.Second); err != nil {
				t.Fatal(err)
			}
		} else {
			// Static split: just run the nodes without reallocation.
			for _, n := range nodes {
				n.M.Run(120 * time.Second)
				if err := n.Daemon.Err(); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Measure the hungry node's instruction rate over a final window.
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
		return (i1 - i0) / 10, c.Limits(), c.TotalPower()
	}

	staticIPS, _, _ := run(false)
	dynIPS, limits, total := run(true)

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
	nodes := []*Node{hungry(t, "a"), hungry(t, "b")}
	c, err := New(nodes, Config{Budget: 80})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
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
	nodes := []*Node{hungry(t, "hungry"), light(t, "light")}
	c, err := New(nodes, Config{Budget: 80})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
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
	nodes := []*Node{hungry(t, "n0"), light(t, "n1")}
	c, err := New(nodes, Config{
		Budget:   100,
		Interval: 2 * time.Second,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
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

// A coordinator built by New degrades like one built over the wire: when
// the light node stops accepting caps, no round fails, the node is
// quarantined once it has failed QuarantineAfter steps, and — its shrink
// never acknowledged — the hungry node is not grown into budget the light
// one may still be holding.
func TestInProcessNodeRefusingGrantsIsQuarantined(t *testing.T) {
	const budget = units.Watts(80)
	nodes := []*Node{hungry(t, "hungry"), light(t, "light")}
	reg := metrics.NewRegistry()
	// A good report re-admits, so a node that reports but refuses grants
	// never strings two failed steps together: quarantine it on the first.
	c, err := New(nodes, Config{Budget: budget, QuarantineAfter: 1, Retries: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	c.ts[1] = refusingNode{c.ts[1]}
	for step := 1; step <= 6; step++ {
		if err := c.Run(5 * time.Second); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
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
		if got := nodes[1].Daemon.Limit(); got != budget/2 {
			t.Errorf("step %d: refusing node enforces %v, want the %v it last accepted", step, got, budget/2)
		}
	}
	if v := reg.CounterVec("cluster_transport_failures_total", "", "node").With("light").Value(); v != 6 {
		t.Errorf("transport failures = %v, want one per step", v)
	}
}

// Three nodes with mixed demand: budget concentrates on the two hungry
// nodes while the idle one keeps only its floor-ish share.
func TestThreeNodeMixedDemand(t *testing.T) {
	nodes := []*Node{hungry(t, "a"), hungry(t, "b"), light(t, "c")}
	c, err := New(nodes, Config{Budget: 120})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(90 * time.Second); err != nil {
		t.Fatal(err)
	}
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
