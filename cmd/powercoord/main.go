// Command powercoord runs one tier of the power-delivery hierarchy over
// remote children: it polls every child's control-plane agent,
// water-fills its budget over their bids, and leases each child its
// share — the networked counterpart of the in-process cluster
// experiments.
//
// Usage:
//
//	powercoord -budget 200 -nodes n0=host0:9090,n1=host1:9090 \
//	           -interval 5s -listen :9190
//
// Nodes may also register themselves at runtime by POSTing to
// /v1/cluster/register on -listen (powerctl register does this).
// Membership changes swap the child set at the next round, carrying the
// acknowledged-grant ledger over so survivors shrink before newcomers
// grow (hierarchy.Membership).
//
// Stacked tiers: with -parent, this coordinator is itself a node one
// level up — it serves the standard node agent on -listen (so the
// parent polls its subtree aggregate as one status report and leases it
// one budget), heartbeats the parent every interval and registers there
// whenever the parent does not know it, and starts at its -fallback cap
// until the first lease lands. -tier labels the level ("row",
// "building"); children may themselves be powercoord processes, to any
// depth. The same invariants hold recursively: a granted shrink is
// refused until the children's acknowledged caps fit under it, and a
// tier whose own lease expires clamps to -fallback while its children's
// leases lapse into theirs.
//
// Leases make partitions safe: every grant expires after -ttl unless
// renewed, at which point the node reverts to its fallback cap on its
// own. Nodes that keep timing out are quarantined — their reservation
// decays to the floor — and re-admitted on their first good report.
//
// Observability: every reallocation round is traced (fan-out, per-node
// RPCs, plan, grant wave) into a constant-memory ring served at
// /debug/rounds under this tier's round-ID namespace — powerdump -view
// merged joins the rings of stacked tiers into one cross-tier timeline.
// Node metrics snapshots piggyback on the status poll and aggregate
// into fleet rollups at /debug/fleet (rendered by powerctl top), and
// the tier totals are exported on /metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/hierarchy"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/powerapi"
	"repro/internal/tracing"
	"repro/internal/units"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "powercoord:", err)
		os.Exit(1)
	}
}

// run parses the command line and coordinates until ctx is cancelled,
// logging membership changes to stdout.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("powercoord", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		budget    = fs.Float64("budget", 0, "tier power budget in watts (required; with -parent, the starting cap until the first lease)")
		nodesArg  = fs.String("nodes", "", "static membership, comma-separated name=addr")
		name      = fs.String("name", "powercoord", "coordinator name stamped into leases and round IDs")
		listen    = fs.String("listen", "", "serve /metrics, /v1/cluster/, and the uplink node agent on this address")
		interval  = fs.Duration("interval", 5*time.Second, "reallocation interval")
		ttl       = fs.Duration("ttl", 0, "lease TTL (0 = 3x interval)")
		floorFrac = fs.Float64("floor-fraction", 0.5, "per-node guaranteed fraction of an equal split")
		timeout   = fs.Duration("node-timeout", 2*time.Second, "deadline of each wave of node calls; a failed call waits for the next round")
		quarAfter = fs.Int("quarantine-after", 3, "consecutive failed steps before quarantine")
		tierLevel = fs.String("tier", "room", "this coordinator's level in the hierarchy (room, row, building)")
		parent    = fs.String("parent", "", "parent coordinator address; register there and take budget as leases")
		fallback  = fs.Float64("fallback", 0, "watts to clamp to when this tier's own lease expires (0 = budget without -parent, half of it with)")
		advertise = fs.String("advertise", "", "address the parent should dial back (default: the bound -listen address)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *budget <= 0 {
		return fmt.Errorf("-budget must be positive")
	}
	if *parent != "" && *listen == "" {
		return fmt.Errorf("-parent requires -listen: the parent needs an agent to dial back")
	}
	// Without a parent this tier is a root: its "fallback" is its whole
	// budget, which keeps the floor math identical to the flat room
	// coordinator. Under a parent the budget is a revocable lease, so
	// the default clamp is the guaranteed half.
	if *fallback <= 0 {
		*fallback = *budget
		if *parent != "" {
			*fallback = *budget * 0.5
		}
	}
	nodes := map[string]string{}
	if *nodesArg != "" {
		for _, item := range strings.Split(*nodesArg, ",") {
			n, addr, _ := strings.Cut(strings.TrimSpace(item), "=")
			if n == "" || addr == "" {
				return fmt.Errorf("node %q: want name=addr", item)
			}
			nodes[n] = addr
		}
	}

	mreg := metrics.NewRegistry()
	metrics.RegisterBuildInfo(mreg, "powercoord")
	tracer := tracing.New(*name, 0)
	fleet := cluster.NewFleet(units.Watts(*budget), mreg)
	m, err := hierarchy.NewMembership(hierarchy.TierConfig{
		Name:            *name,
		Level:           *tierLevel,
		Budget:          units.Watts(*budget),
		StartAtFallback: *parent != "",
		Fallback:        units.Watts(*fallback),
		FloorFraction:   *floorFrac,
		Interval:        *interval,
		LeaseTTL:        *ttl,
		NodeTimeout:     *timeout,
		QuarantineAfter: *quarAfter,
		Metrics:         mreg,
		Tracer:          tracer,
		Fleet:           fleet,
	}, nodes, stdout)
	if err != nil {
		return err
	}
	defer m.Close()
	fmt.Fprintf(stdout, "powercoord: %v budget, %v interval\n", units.Watts(*budget), *interval)
	if len(nodes) == 0 {
		fmt.Fprintln(stdout, "powercoord: no nodes yet; waiting for registrations")
	}

	if *listen != "" {
		l, err := net.Listen("tcp", *listen)
		if err != nil {
			return fmt.Errorf("listener: %w", err)
		}
		srv := obs.New(mreg, nil, nil, obs.WithRounds(tracer),
			obs.WithHandler("/v1/", m.Handler()),
			obs.WithHandler("/debug/fleet", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method != http.MethodGet {
					w.Header().Set("Allow", http.MethodGet)
					http.Error(w, "GET required", http.StatusMethodNotAllowed)
					return
				}
				w.Header().Set("Content-Type", "application/json; charset=utf-8")
				enc := json.NewEncoder(w)
				enc.SetIndent("", "  ")
				_ = enc.Encode(fleet.Snapshot())
			})))
		go func() { _ = srv.Serve(l) }()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		}()
		fmt.Fprintf(stdout, "powercoord: serving http://%s (/metrics, /debug/fleet, /debug/rounds, %sstatus, uplink %s)\n",
			l.Addr(), powerapi.ClusterPrefix, powerapi.PathPrefix)
		if *parent != "" {
			adv := *advertise
			if adv == "" {
				adv = l.Addr().String()
			}
			m.Join(*parent, adv)
		}
	}

	<-ctx.Done()
	fmt.Fprintln(stdout, "powercoord: shutting down (leases will expire on their own)")
	return nil
}
