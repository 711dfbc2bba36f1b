// Machineroom: the cluster layer above per-application power delivery.
//
// Two Skylake nodes share an 80 W room budget. Node "batch" runs ten
// high-demand jobs; node "frontend" runs two light ones. A static 40/40
// split strands headroom on the frontend while batch starves; the
// Dynamo-style coordinator (each node's share enforced by its own
// frequency-share daemon) shifts the stranded watts to the node whose
// limit binds — the hierarchy the paper's related work describes, with the
// paper's daemon as the node-level primitive.
//
// Each node meets the coordinator the way a powerd deployment does: its
// daemon is fronted by a powerapi agent that holds the coordinator's lease,
// and the agents and the coordinator read one virtual clock, which the room
// advances in lockstep with the machines.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/platform"
	"repro/internal/powerapi"
	"repro/internal/units"
	"repro/internal/workload"
)

const (
	budget   = units.Watts(80)
	interval = 5 * time.Second // the coordinator's default
)

func main() {
	fmt.Println("room budget 80 W: node 'batch' (10x cactusBSSN) + node 'frontend' (2x leela)")
	fmt.Println()
	staticIPS := run(false)
	dynIPS := run(true)
	fmt.Printf("\nbatch-node throughput: static split %.2f GIPS, coordinated %.2f GIPS (%.0f%% gain)\n",
		staticIPS/1e9, dynIPS/1e9, (dynIPS/staticIPS-1)*100)
}

// machine builds a Skylake node running apps, one per core, under a
// frequency-share daemon with equal shares.
func machine(apps ...string) *node.Node {
	chip := platform.Skylake()
	specs := make([]core.AppSpec, len(apps))
	for i, a := range apps {
		specs[i] = core.AppSpec{Name: a, Core: i, Shares: 50, AVX: workload.MustByName(a).AVX}
	}
	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		log.Fatal(err)
	}
	n, err := node.New(node.Spec{Chip: chip, Apps: specs, Policy: pol, Limit: chip.RAPLMax})
	if err != nil {
		log.Fatal(err)
	}
	return n
}

func run(dynamic bool) float64 {
	batchApps := make([]string, 10)
	for i := range batchApps {
		batchApps[i] = "cactusBSSN"
	}
	nodes := []*node.Node{machine(batchApps...), machine("leela", "leela")}
	label := "static 40/40"
	if dynamic {
		coordinate([]string{"batch", "frontend"}, nodes, 120*time.Second)
		label = "coordinated"
	} else {
		for _, n := range nodes {
			if err := n.Daemon.SetLimit(budget / 2); err != nil {
				log.Fatal(err)
			}
			if err := n.Run(120 * time.Second); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("%-12s  batch limit %-8s (pkg %-8s)  frontend limit %-8s (pkg %s)\n",
		label, nodes[0].Daemon.Limit(), nodes[0].M.PackagePower(), nodes[1].Daemon.Limit(), nodes[1].M.PackagePower())

	// Throughput of the batch node over a final window.
	var i0 float64
	for c := 0; c < 10; c++ {
		i0 += nodes[0].M.Counters(c).Instr
	}
	for _, n := range nodes {
		n.M.Run(10 * time.Second)
	}
	var i1 float64
	for c := 0; c < 10; c++ {
		i1 += nodes[0].M.Counters(c).Instr
	}
	return (i1 - i0) / 10
}

// coordinate runs the nodes under one room coordinator for d: every
// interval each machine runs, the clock advances, and the coordinator
// reallocates the budget over its agents.
func coordinate(names []string, nodes []*node.Node, d time.Duration) {
	vc := clock.NewVirtual(time.Time{})
	ts := make([]cluster.Transport, len(nodes))
	for i, n := range nodes {
		a, err := powerapi.NewAgent(powerapi.AgentConfig{Name: names[i], Daemon: n.Daemon, Clock: vc})
		if err != nil {
			log.Fatal(err)
		}
		defer a.Close()
		ts[i] = cluster.NewAgentTransport(a, "room")
	}
	// No retries: a backoff on the virtual clock would wait for an advance
	// that comes only after the round.
	coord, err := cluster.NewOverTransports(ts, cluster.Config{Budget: budget, Interval: interval, Retries: -1, Clock: vc})
	if err != nil {
		log.Fatal(err)
	}
	for elapsed := time.Duration(0); elapsed < d; elapsed += interval {
		for _, n := range nodes {
			if err := n.Run(interval); err != nil {
				log.Fatal(err)
			}
		}
		vc.Advance(interval)
		if err := coord.Step(context.Background()); err != nil {
			log.Fatal(err)
		}
	}
}
