// Command powerd runs the per-application power delivery daemon on a
// simulated platform and reports per-application telemetry, mirroring how
// the paper's userspace daemon was driven.
//
// Usage:
//
//	powerd -platform skylake -policy frequency -limit 50 \
//	       -apps gcc:0:90,cam4:1:10 -duration 60s
//
// Each app is name:core:shares (share policies) or name:core:hp|lp
// (priority policy). The flags are validated like a -config file. The
// daemon runs in virtual time and prints one telemetry row per application
// at the end, plus periodic progress.
//
// A flight recorder runs by default (-flight=false disables): every MSR
// access, policy decision, and actuation lands in a constant-memory ring.
// SIGQUIT (ctrl-\) snapshots the ring to a dump file in -flight-dump-dir
// without stopping the run, the -flight-overlimit / -flight-slo triggers
// dump automatically, and POST /debug/flight/dump on -listen streams one.
// Analyse or replay dumps with powerdump.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/daemon"
	"repro/internal/fault"
	"repro/internal/flight"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/opconfig"
	"repro/internal/powerapi"
	"repro/internal/trace"
	"repro/internal/tracing"
	"repro/internal/units"
)

// runOpts bundles the flags that shape a run beyond its node.
type runOpts struct {
	stdout    io.Writer
	duration  time.Duration
	tracePath string
	listen    string
	nodeName  string
	fallback  units.Watts
	pprofOn   bool
}

func main() {
	if err := powerd(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "powerd:", err)
		os.Exit(1)
	}
}

// powerd parses the command line and runs the daemon, writing its
// progress and final report to stdout.
func powerd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("powerd", flag.ExitOnError)
	var (
		plat     = fs.String("platform", "skylake", "skylake or ryzen")
		policy   = fs.String("policy", "frequency", "frequency, performance, power, or priority")
		limit    = fs.Float64("limit", 50, "package power limit in watts")
		apps     = fs.String("apps", "gcc:0:90,cam4:1:10", "comma-separated name:core:shares or name:core:hp|lp")
		duration = fs.Duration("duration", 60*time.Second, "virtual run time")
		interval = fs.Duration("interval", time.Second, "control interval")
		tracePth = fs.String("trace", "", "write a per-iteration CSV time series to this file")
		confPath = fs.String("config", "", "JSON config file (overrides -platform/-policy/-limit/-apps/-interval)")
		listen   = fs.String("listen", "", "serve /metrics, /debug/status, /healthz on this address (e.g. :9090)")
		nodeName = fs.String("node-name", "", "control-plane node name; serves /v1/power/ on -listen for powercoord and powerctl")
		fallback = fs.Float64("fallback", 0, "safe cap in watts a lease expiry reverts to (0 = the configured limit)")
		pprofOn  = fs.Bool("debug-pprof", false, "also serve /debug/pprof/ (CPU/heap/block profiles) on -listen")
		flightOn = fs.Bool("flight", true, "run the flight recorder (MSR accesses, decisions, actuations)")
		fltCap   = fs.Int("flight-cap", 0, "flight-recorder events retained per source; each of the 7 rings costs 56 B an event (0 = 16384)")
		fltDir   = fs.String("flight-dump-dir", ".", "directory flight dumps are written to")
		fltOver  = fs.Duration("flight-overlimit", 0, "dump when power exceeds the limit continuously for this long (0 = off)")
		fltSLO   = fs.Duration("flight-slo", 0, "dump when one control iteration exceeds this wall-clock latency (0 = off)")
		faults   = fs.String("faults", "", "fault schedule, inline (';'-separated entries) or @file")
		faultSd  = fs.Int64("fault-seed", 1, "seed for probabilistic fault decisions (same seed = same fault pattern)")
		rates    = fs.String("energy-rates", "", `energy rate schedule "start=usd_per_kwh:gco2_per_kwh,..." (e.g. "0=0.12:420,8h=0.08:250"); empty = defaults`)
	)
	fs.Parse(args) // ExitOnError: a bad flag exits with the usage

	var cfg opconfig.Config
	var err error
	if *confPath != "" {
		cfg, err = opconfig.Load(*confPath)
	} else {
		cfg, err = flagConfig(*plat, *policy, *limit, *apps, *interval)
	}
	if err != nil {
		return err
	}
	spec, err := cfg.Spec()
	if err != nil {
		return err
	}
	// The energy ledger is always on: attribution costs one lock and a few
	// hundred integer ops per interval, and post-hoc "which app burned the
	// budget" questions can't be answered from data nobody recorded.
	spec.Recorders = &node.Recorders{Rates: ledger.DefaultRates, Triggers: daemon.FlightTriggers{
		Dir:          *fltDir,
		OverLimitFor: *fltOver,
		IterationSLO: *fltSLO,
	}}
	if *rates != "" {
		if spec.Recorders.Rates, err = ledger.ParseRateSchedule(*rates); err != nil {
			return err
		}
	}
	if *flightOn {
		spec.Flight = flight.New(*fltCap)
	}
	if *faults != "" {
		text := *faults
		if strings.HasPrefix(text, "@") {
			data, rerr := os.ReadFile(text[1:])
			if rerr != nil {
				return fmt.Errorf("reading fault schedule: %w", rerr)
			}
			text = string(data)
		}
		if spec.Faults, err = fault.ParseSchedule(text); err != nil {
			return err
		}
		spec.FaultSeed = *faultSd
	}
	return drive(cfg.Policy, spec, runOpts{
		stdout:    stdout,
		duration:  *duration,
		tracePath: *tracePth,
		listen:    *listen,
		nodeName:  *nodeName,
		fallback:  units.Watts(*fallback),
		pprofOn:   *pprofOn,
	})
}

// flagConfig turns the -platform/-policy/-limit/-apps/-interval flags into
// the configuration a -config file would hold, and validates it the same
// way.
func flagConfig(plat, policy string, limit float64, apps string, interval time.Duration) (opconfig.Config, error) {
	if interval%time.Millisecond != 0 {
		return opconfig.Config{}, fmt.Errorf("-interval %v: want a whole number of milliseconds", interval)
	}
	c := opconfig.Config{Platform: plat, Policy: policy, LimitWatts: limit, IntervalMS: int(interval / time.Millisecond)}
	for _, item := range strings.Split(apps, ",") {
		parts := strings.Split(strings.TrimSpace(item), ":")
		if len(parts) != 3 {
			return opconfig.Config{}, fmt.Errorf("app %q: want name:core:shares or name:core:hp|lp", item)
		}
		a := opconfig.App{Name: parts[0]}
		var err error
		if a.Core, err = strconv.Atoi(parts[1]); err != nil {
			return opconfig.Config{}, fmt.Errorf("app %q: bad core: %w", item, err)
		}
		if policy == "priority" {
			a.Priority = strings.ToLower(parts[2])
		} else if a.Shares, err = strconv.Atoi(parts[2]); err != nil {
			return opconfig.Config{}, fmt.Errorf("app %q: bad shares: %w", item, err)
		}
		c.Apps = append(c.Apps, a)
	}
	return c, c.Validate()
}

// drive assembles the node and runs it for the requested virtual duration
// with periodic progress output. When opts.listen is non-empty the
// observability endpoints are served there for the life of the run.
func drive(policy string, spec node.Spec, opts runOpts) (err error) {
	w := opts.stdout
	spec.Recorders.Triggers.OnDump = func(path, reason string, derr error) {
		if derr != nil {
			fmt.Fprintf(os.Stderr, "powerd: flight dump (%s) failed: %v\n", reason, derr)
			return
		}
		fmt.Fprintf(w, "powerd: flight dump (%s) written to %s\n", reason, path)
	}
	if opts.tracePath != "" {
		f, ferr := os.Create(opts.tracePath)
		if ferr != nil {
			return fmt.Errorf("opening trace file: %w", ferr)
		}
		tw := trace.NewSnapshotWriter(f, spec.Apps)
		defer func() {
			// The writer is buffered; a dropped flush error would silently
			// truncate the trace.
			if cerr := tw.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("closing trace file: %w", cerr)
			}
		}()
		spec.OnSnapshot = tw.Observe
	}
	n, err := node.New(spec)
	if err != nil {
		return err
	}
	metrics.RegisterBuildInfo(n.Metrics, "powerd")
	d, led, rec, inj := n.Daemon, n.Ledger, n.Flight, n.Faults

	if rec != nil {
		// SIGQUIT (ctrl-\) snapshots the flight recorder without stopping
		// the run, like the JVM's thread-dump handler.
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		defer signal.Stop(quit)
		go func() {
			for range quit {
				if path, derr := d.DumpFlight("sigquit"); derr != nil {
					fmt.Fprintln(os.Stderr, "powerd: flight dump failed:", derr)
				} else {
					fmt.Fprintln(w, "powerd: flight dump written to", path)
				}
			}
		}()
	}

	if opts.listen != "" {
		l, lerr := net.Listen("tcp", opts.listen)
		if lerr != nil {
			return fmt.Errorf("observability listener: %w", lerr)
		}
		var srvOpts []obs.Option
		srvOpts = append(srvOpts, obs.WithLedger(led))
		if opts.pprofOn {
			srvOpts = append(srvOpts, obs.WithPprof())
		}
		if rec != nil {
			srvOpts = append(srvOpts, obs.WithFlight(rec))
		}
		if opts.nodeName != "" {
			// The control-plane agent rides on the observability listener:
			// coordinators lease budget and operators reconfigure through
			// /v1/power/ on the same port. Every coordinator round this node
			// serves is traced into a ring at /debug/rounds, joinable with
			// the coordinator's own trace by round ID (powerdump -view merged).
			tracer := tracing.New(opts.nodeName, 0)
			agent, aerr := powerapi.NewAgent(powerapi.AgentConfig{
				Name:       opts.nodeName,
				Daemon:     d,
				Fallback:   opts.fallback,
				PolicyName: policy,
				Metrics:    n.Metrics,
				Flight:     rec,
				Tracer:     tracer,
				Ledger:     led,
			})
			if aerr != nil {
				l.Close()
				return aerr
			}
			defer agent.Close()
			srvOpts = append(srvOpts,
				obs.WithHandler(powerapi.PathPrefix, agent.Handler()),
				obs.WithRounds(tracer))
		}
		srv := obs.New(n.Metrics, n.Journal, obs.DaemonStatusFunc(d), srvOpts...)
		go func() { _ = srv.Serve(l) }()
		defer func() {
			// In-flight scrapes get a grace period instead of a reset.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if serr := srv.Shutdown(ctx); serr != nil && err == nil {
				err = fmt.Errorf("observability shutdown: %w", serr)
			}
		}()
		fmt.Fprintf(w, "powerd: observability on http://%s (/metrics, /debug/status, /healthz)\n", l.Addr())
		if opts.nodeName != "" {
			fmt.Fprintf(w, "powerd: control plane on http://%s%s (node %q)\n", l.Addr(), powerapi.PathPrefix, opts.nodeName)
		}
	}

	fmt.Fprintf(w, "powerd: %s, %s policy, %v limit, %d apps, %v virtual run\n",
		spec.Chip.Name, spec.Policy.Name(), spec.Limit, len(spec.Apps), opts.duration)
	if inj != nil {
		fmt.Fprintf(w, "powerd: fault schedule: %d windows, last closes at %v, seed %d\n",
			len(spec.Faults), spec.Faults.End(), spec.FaultSeed)
	}
	// SIGINT/SIGTERM stop the run at the next progress step, so the final
	// table still prints and the observability server shuts down cleanly.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)

	step := opts.duration / 10
	if step < spec.Interval {
		step = spec.Interval
	}
	// The machine advances in chunks much smaller than a progress step so
	// a signal (or a coordinator-driven shutdown) is noticed within a
	// fraction of a wall-clock second even on very long virtual runs.
	chunk := max(10*time.Minute, spec.Interval)
loop:
	for elapsed := time.Duration(0); elapsed < opts.duration; {
		target := min(elapsed+step, opts.duration)
		for elapsed < target {
			select {
			case sig := <-stop:
				fmt.Fprintf(w, "powerd: %v, shutting down\n", sig)
				break loop
			default:
			}
			c := min(chunk, target-elapsed)
			if err := n.Run(c); err != nil {
				return err
			}
			elapsed += c
		}
		snap := d.LastSnapshot()
		fmt.Fprintf(w, "t=%-6s pkg=%-8s limit=%s\n", n.M.Now(), snap.PackagePower, snap.Limit)
	}

	snap := d.LastSnapshot()
	sum := led.Summarize()
	tb := trace.Table{
		Title:  "final state",
		Header: []string{"app", "core", "shares", "prio", "MHz", "IPS", "W/core", "parked", "joules", "energy%"},
	}
	for i, a := range snap.Apps {
		prio := "lp"
		if a.Spec.HighPriority {
			prio = "hp"
		}
		if policy != "priority" && policy != "priority-shares" {
			prio = "-"
		}
		joules, frac := "-", "-"
		if i < len(sum.Apps) {
			joules = fmt.Sprintf("%.1f", sum.Apps[i].Joules)
			frac = fmt.Sprintf("%.1f", sum.Apps[i].EnergyFrac*100)
		}
		tb.AddRow(a.Spec.Name, strconv.Itoa(a.Spec.Core), strconv.Itoa(int(a.Spec.Shares)), prio,
			trace.Hz(a.Freq), fmt.Sprintf("%.3g", a.IPS), trace.W(a.Power),
			fmt.Sprintf("%v", a.Parked), joules, frac)
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "powerd: energy: %.1f J total, %.1f J overshoot, %.1f J unattributed, %.1f J excluded, $%.6f, %.2f gCO2\n",
		sum.TotalJoules, sum.OvershootJoules,
		float64(sum.UnattributedUJ)/1e6, float64(sum.ExcludedUJ)/1e6,
		sum.CostUSD, sum.CarbonGrams)
	if n.Services != nil {
		for _, s := range n.Services.Services() {
			target := "no target"
			for _, t := range spec.SLOTargets {
				if t.Service == s.Name() {
					verdict := "met"
					switch p99 := s.WindowPercentile(99); {
					case p99 <= 0:
						verdict = "no samples in window"
					case p99 > t.P99.Seconds():
						verdict = "MISSED"
					}
					target = fmt.Sprintf("target %v (%s)", t.P99, verdict)
					break
				}
			}
			fmt.Fprintf(w, "powerd: service %s: p50 %.1fms p90 %.1fms p99 %.1fms, %d done, %d dropped, %d timed out, %s\n",
				s.Name(), s.WindowPercentile(50)*1e3, s.WindowPercentile(90)*1e3, s.WindowPercentile(99)*1e3,
				s.Completed(), s.Dropped(), s.TimedOut(), target)
		}
	}
	if inj != nil {
		var parts []string
		for _, c := range []fault.Class{fault.ClassEIO, fault.ClassStuck, fault.ClassTorn,
			fault.ClassLatency, fault.ClassThermal, fault.ClassRAPL, fault.ClassOffline} {
			if n := inj.Effects(c); n > 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", c, n))
			}
		}
		if lat := inj.TotalLatency(); lat > 0 {
			parts = append(parts, "added-latency="+lat.String())
		}
		if len(parts) > 0 {
			fmt.Fprintln(w, "powerd: fault effects:", strings.Join(parts, " "))
		}
	}
	return nil
}
