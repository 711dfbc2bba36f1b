// Command powerctl is the operator CLI of the power control plane: it
// inspects and live-reconfigures a running powerd daemon through its
// /v1/power/ endpoints, and registers nodes with a powercoord.
//
// Usage:
//
//	powerctl -node host:9090 status
//	powerctl -node host:9090 set-policy priority-shares
//	powerctl -node host:9090 set-limit 42
//	powerctl -node host:9090 set-shares gcc=70,cam4=30
//	powerctl -node host:9090 set-priorities gcc=hp,cam4=lp
//	powerctl -node host:9090 drain on|off
//	powerctl -coord host:9190 register n3 host3:9090
//	powerctl -coord host:9190 top
//	powerctl -coord host:9190 tree
//
// top renders the coordinator's fleet rollup (/debug/fleet): total power
// against the room budget, per-node rows with RPC latency percentiles,
// the fleet-wide per-application watt ranking, lease churn, and any
// nodes the round traces flag as stragglers.
//
// tree renders the coordination hierarchy rooted at -coord: each tier's
// level, live budget, and subtree rollup, recursing into children that
// are themselves powercoord tiers (probed through their node agents).
//
// set-policy, set-limit, set-shares, and set-priorities may be combined in
// one invocation; the daemon applies them as a single validated change
// between control intervals, without restarting or dropping a sample.
// status and drain stand alone.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/powerapi"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "powerctl:", err)
		os.Exit(1)
	}
}

// run parses the command line and runs one command, printing its answer
// to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("powerctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		node    = fs.String("node", "", "node address (powerd -listen) for node commands")
		coord   = fs.String("coord", "", "coordinator address (powercoord -listen) for register")
		timeout = fs.Duration("timeout", 5*time.Second, "request timeout")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr,
			"usage: powerctl [-node addr | -coord addr] <command> [args]\n\ncommands:\n"+
				"  status                      node control-plane status\n"+
				"  set-policy <name>           switch the running policy\n"+
				"  set-limit <watts>           change the power limit\n"+
				"  set-shares a=N,b=M          change per-app shares\n"+
				"  set-priorities a=hp,b=lp    change per-app priorities\n"+
				"  drain on|off                toggle drain mode\n"+
				"  register <name> <addr>      register a node with -coord\n"+
				"  top                         fleet rollup from -coord (/debug/fleet)\n"+
				"  tree                        coordination hierarchy rooted at -coord\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return errors.New("no command")
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	return dispatch(ctx, stdout, *node, *coord, fs.Args())
}

func dispatch(ctx context.Context, w io.Writer, node, coord string, args []string) error {
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "top", "tree", "register":
		if coord == "" {
			return fmt.Errorf("%s needs -coord", cmd)
		}
		if cmd == "register" {
			if len(rest) != 2 {
				return fmt.Errorf("register wants <name> <addr>")
			}
			ack, err := powerapi.NewCoordClient(coord).Register(ctx, rest[0], rest[1])
			if err != nil {
				return err
			}
			if !ack.Accepted {
				return fmt.Errorf("coordinator refused: %s", ack.Reason)
			}
			fmt.Fprintf(w, "registered %s at %s\n", rest[0], rest[1])
			return nil
		}
		if len(rest) > 0 {
			return fmt.Errorf("%s takes no arguments, got %q", cmd, rest)
		}
		if cmd == "top" {
			return top(ctx, w, coord)
		}
		return tree(ctx, w, coord, 0)
	}

	if node == "" {
		return fmt.Errorf("%s needs -node", cmd)
	}
	c := powerapi.NewClient(node)

	switch cmd {
	case "status":
		if len(rest) > 0 {
			return fmt.Errorf("status takes no arguments, got %q", rest)
		}
		return status(ctx, w, c)
	case "drain":
		if len(rest) != 1 || (rest[0] != "on" && rest[0] != "off") {
			return fmt.Errorf("drain wants on or off, and nothing after it")
		}
		ack, err := c.Drain(ctx, rest[0] == "on")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "draining: %v\n", ack.Draining)
		return nil
	}

	// The reconfigure verbs compose: walk the args as verb/value pairs and
	// send one combined message.
	rc := &powerapi.Reconfigure{}
	for len(args) > 0 {
		cmd, rest = args[0], args[1:]
		switch cmd {
		case "status", "drain":
			return fmt.Errorf("%s does not combine with reconfiguration", cmd)
		case "set-policy":
			if len(rest) < 1 {
				return fmt.Errorf("set-policy wants a policy name")
			}
			rc.Policy = rest[0]
			args = rest[1:]
		case "set-limit":
			if len(rest) < 1 {
				return fmt.Errorf("set-limit wants watts")
			}
			v, err := strconv.ParseFloat(rest[0], 64)
			if err != nil {
				return fmt.Errorf("set-limit: %w", err)
			}
			rc.LimitWatts = v
			args = rest[1:]
		case "set-shares":
			if len(rest) < 1 {
				return fmt.Errorf("set-shares wants a=N,b=M")
			}
			m, err := parsePairs(rest[0])
			if err != nil {
				return err
			}
			rc.Shares = map[string]int{}
			for app, v := range m {
				n, err := strconv.Atoi(v)
				if err != nil {
					return fmt.Errorf("shares for %s: %w", app, err)
				}
				rc.Shares[app] = n
			}
			args = rest[1:]
		case "set-priorities":
			if len(rest) < 1 {
				return fmt.Errorf("set-priorities wants a=hp,b=lp")
			}
			m, err := parsePairs(rest[0])
			if err != nil {
				return err
			}
			rc.Priorities = m
			args = rest[1:]
		default:
			return fmt.Errorf("unknown command %q", cmd)
		}
	}
	ack, err := c.Reconfigure(ctx, rc)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "reconfigured: policy=%s limit=%.5gW\n", ack.Policy, ack.LimitWatts)
	return nil
}

func parsePairs(arg string) (map[string]string, error) {
	m := map[string]string{}
	for _, item := range strings.Split(arg, ",") {
		parts := strings.SplitN(strings.TrimSpace(item), "=", 2)
		if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
			return nil, fmt.Errorf("%q: want app=value", item)
		}
		m[parts[0]] = parts[1]
	}
	return m, nil
}

// top fetches and renders the coordinator's fleet rollup.
func top(ctx context.Context, w io.Writer, coord string) error {
	if !strings.Contains(coord, "://") {
		coord = "http://" + coord
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, coord+"/debug/fleet", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("coordinator: %s", resp.Status)
	}
	var fs cluster.FleetSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		return fmt.Errorf("decoding fleet snapshot: %w", err)
	}

	pct := 0.0
	if fs.BudgetWatts > 0 {
		pct = 100 * fs.TotalPowerWatts / fs.BudgetWatts
	}
	fmt.Fprintf(w, "round %d   power %.5g / %.5g W (%.0f%%)   round latency p50 %.2fms p99 %.2fms\n",
		fs.Round, fs.TotalPowerWatts, fs.BudgetWatts, pct,
		fs.RoundLatency.P50MS, fs.RoundLatency.P99MS)
	if fs.MixedVersions {
		fmt.Fprintf(w, "WARNING: mixed node versions: %s\n", strings.Join(fs.Versions, ", "))
	}

	fmt.Fprintf(w, "\n%-12s %9s %9s %-16s %8s %8s %7s %s\n",
		"NODE", "POWER", "LIMIT", "POLICY", "RPC p50", "RPC p99", "MISSED", "FLAGS")
	for _, n := range fs.Nodes {
		flags := []string{}
		if n.Draining {
			flags = append(flags, "draining")
		}
		if n.MissedRounds > 0 {
			flags = append(flags, "unreachable")
		}
		for _, s := range fs.Stragglers {
			if s.Node == n.Name {
				flags = append(flags, "straggler")
			}
		}
		fmt.Fprintf(w, "%-12s %8.3gW %8.3gW %-16s %6.2fms %6.2fms %7d %s\n",
			n.Name, n.PowerWatts, n.LimitWatts, n.Policy,
			n.RPC.P50MS, n.RPC.P99MS, n.TotalMissed, strings.Join(flags, ","))
	}

	if len(fs.Apps) > 0 {
		fmt.Fprintf(w, "\n%-12s %9s %6s\n", "APP", "POWER", "NODES")
		for _, a := range fs.Apps {
			fmt.Fprintf(w, "%-12s %8.3gW %6d\n", a.Name, a.Watts, a.Nodes)
		}
	}

	if fs.EnergyJoules > 0 {
		epct := 0.0
		if fs.EnergyBudgetJoules > 0 {
			epct = 100 * fs.EnergyJoules / fs.EnergyBudgetJoules
		}
		fmt.Fprintf(w, "\nenergy: %.5g / %.5g J (%.0f%% of budget)   overshoot %.3g J   excluded %.3g J   $%.6f   %.2f gCO2\n",
			fs.EnergyJoules, fs.EnergyBudgetJoules, epct,
			fs.OvershootJoules, fs.ExcludedJoules, fs.EnergyCostUSD, fs.EnergyCarbonGrams)
		if len(fs.TopEnergyApps) > 0 {
			fmt.Fprintf(w, "%-12s %12s %10s %10s %6s\n", "TOP ENERGY", "JOULES", "COST $", "gCO2", "NODES")
			for _, a := range fs.TopEnergyApps {
				fmt.Fprintf(w, "%-12s %12.5g %10.6f %10.2f %6d\n",
					a.Name, a.Joules, a.CostUSD, a.CarbonGrams, a.Nodes)
			}
		}
		if len(fs.AnomalyCounts) > 0 {
			kinds := make([]string, 0, len(fs.AnomalyCounts))
			for k := range fs.AnomalyCounts {
				kinds = append(kinds, k)
			}
			sort.Strings(kinds)
			fmt.Fprintf(w, "anomalies:")
			for _, k := range kinds {
				fmt.Fprintf(w, "  %s=%d", k, fs.AnomalyCounts[k])
			}
			fmt.Fprintln(w)
		}
	}

	if fs.SLOTotal > 0 {
		fmt.Fprintf(w, "\nslo attainment: %d/%d service instances meeting p99 (%.0f%%)\n",
			fs.SLOMet, fs.SLOTotal, 100*fs.SLOAttainment)
		fmt.Fprintf(w, "%-12s %6s %6s %12s %10s %10s\n", "SERVICE", "NODES", "MET", "WORST p99", "TARGET", "RATE")
		for _, s := range fs.SLOServices {
			target := "-"
			if s.TargetMS > 0 {
				target = fmt.Sprintf("%.2fms", s.TargetMS)
			}
			fmt.Fprintf(w, "%-12s %6d %6d %10.2fms %10s %8.4g/s\n",
				s.Name, s.Nodes, s.MetNodes, s.WorstP99MS, target, s.Rate)
		}
	}

	if len(fs.LeaseEvents) > 0 {
		events := make([]string, 0, len(fs.LeaseEvents))
		for ev := range fs.LeaseEvents {
			events = append(events, ev)
		}
		sort.Strings(events)
		fmt.Fprintf(w, "\nlease churn:")
		for _, ev := range events {
			fmt.Fprintf(w, "  %s=%.0f", ev, fs.LeaseEvents[ev])
		}
		fmt.Fprintln(w)
	}

	if len(fs.Stragglers) > 0 {
		fmt.Fprintf(w, "\nstragglers (from round traces):\n")
		for _, s := range fs.Stragglers {
			fmt.Fprintf(w, "  %-12s %d round(s), worst %.2fms\n", s.Node, s.Rounds, s.WorstMS)
		}
	}
	return nil
}

// tree walks the hierarchy rooted at a coordinator address: print this
// tier, then probe each child's node agent — a child reporting a
// TierStatus is itself a coordinator, so recurse into its cluster
// status at the same address.
func tree(ctx context.Context, w io.Writer, coord string, depth int) error {
	rs, err := powerapi.NewCoordClient(coord).ClusterStatus(ctx)
	if err != nil {
		return fmt.Errorf("coordinator %s: %w", coord, err)
	}
	indent := strings.Repeat("    ", depth)
	level := rs.Tier
	if level == "" {
		level = "room"
	}
	fmt.Fprintf(w, "%s[%s] %s  budget %.5g W  power %.5g W  (%d children, %d leaves, depth %d)\n",
		indent, level, coord, rs.BudgetWatts, rs.TotalPowerWatts, rs.Children, rs.Leaves, rs.Depth)
	for _, n := range rs.Nodes {
		flags := ""
		if n.Quarantined {
			flags = "  QUARANTINED"
		}
		sub := false
		if n.Addr != "" {
			if st, err := powerapi.NewClient(n.Addr).Status(ctx); err == nil && st.Tier != nil {
				sub = true
			}
		}
		if sub {
			fmt.Fprintf(w, "%s├─ %s  lease %.5g W%s\n", indent, n.Name, n.LimitWatts, flags)
			if err := tree(ctx, w, n.Addr, depth+1); err != nil {
				fmt.Fprintf(w, "%s    (walking %s: %v)\n", indent, n.Name, err)
			}
			continue
		}
		fmt.Fprintf(w, "%s├─ %-12s  lease %.5g W%s\n", indent, n.Name, n.LimitWatts, flags)
	}
	return nil
}

func status(ctx context.Context, w io.Writer, c *powerapi.Client) error {
	st, err := c.Status(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "node       %s\n", st.Node)
	fmt.Fprintf(w, "policy     %s\n", st.Policy)
	fmt.Fprintf(w, "limit      %.5g W (fallback %.5g W, max %.5g W)\n", st.LimitWatts, st.FallbackWatts, st.MaxWatts)
	fmt.Fprintf(w, "power      %.5g W\n", st.PowerWatts)
	fmt.Fprintf(w, "iterations %d\n", st.Iterations)
	if st.Draining {
		fmt.Fprintln(w, "draining   yes")
	}
	if l := st.Lease; l != nil {
		fmt.Fprintf(w, "lease      #%d from %q: %.5g W, %dms left of %dms\n",
			l.ID, l.Coordinator, l.LimitWatts, l.RemainingMS, l.TTLMS)
	} else {
		fmt.Fprintln(w, "lease      none (enforcing fallback or configured limit)")
	}
	for _, a := range st.Apps {
		fmt.Fprintf(w, "app        %-10s core %-3d shares %-4d %s\n", a.Name, a.Core, a.Shares, a.Priority)
	}
	if s := st.SLO; s != nil {
		for _, svc := range s.Services {
			verdict := "met"
			if !svc.Met {
				verdict = "MISSED"
			}
			target := "no target"
			if svc.TargetMS > 0 {
				target = fmt.Sprintf("target %.2fms (%s)", svc.TargetMS, verdict)
			}
			fmt.Fprintf(w, "slo        %-10s p50 %.2fms p90 %.2fms p99 %.2fms  %s\n",
				svc.Name, svc.P50MS, svc.P90MS, svc.P99MS, target)
			fmt.Fprintf(w, "           rate %.4g/s queue %d dropped %d timeouts %d\n",
				svc.Rate, svc.QueueLen, svc.Dropped, svc.Timeouts)
		}
	}
	if e := st.Energy; e != nil {
		fmt.Fprintf(w, "energy     %.5g J over %.4gs (%d intervals, %d over limit)\n",
			e.TotalJoules, e.ElapsedSeconds, e.Intervals, e.OverIntervals)
		fmt.Fprintf(w, "           overshoot %.3g J, unattributed %.3g J, excluded %.3g J, $%.6f, %.2f gCO2\n",
			e.OvershootJoules, float64(e.UnattributedUJ)/1e6, float64(e.ExcludedUJ)/1e6,
			e.CostUSD, e.CarbonGrams)
		for _, a := range e.Apps {
			fmt.Fprintf(w, "           %-10s %12.5g J  %5.1f%% of energy (%5.1f%% of shares)\n",
				a.Name, a.Joules, a.EnergyFrac*100, a.ShareFrac*100)
		}
		if len(e.Anomalies) > 0 {
			kinds := make([]string, 0, len(e.Anomalies))
			for k := range e.Anomalies {
				kinds = append(kinds, k)
			}
			sort.Strings(kinds)
			fmt.Fprintf(w, "anomalies ")
			for _, k := range kinds {
				fmt.Fprintf(w, " %s=%d", k, e.Anomalies[k])
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}
