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
// (priority policy). The daemon runs in virtual time and prints one
// telemetry row per application at the end, plus periodic progress.
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
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/fault"
	"repro/internal/flight"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/metrics/decisions"
	"repro/internal/msr"
	"repro/internal/obs"
	"repro/internal/opconfig"
	"repro/internal/platform"
	"repro/internal/powerapi"
	"repro/internal/sim"
	"repro/internal/svc"
	"repro/internal/trace"
	"repro/internal/tracing"
	"repro/internal/units"
	"repro/internal/workload"
)

// runOpts bundles the cross-cutting flags that every run mode threads
// through to drive.
type runOpts struct {
	duration  time.Duration
	tracePath string
	listen    string
	nodeName  string
	fallback  units.Watts
	pprofOn   bool
	flightOn  bool
	flightCap int
	triggers  daemon.FlightTriggers
	faults    fault.Schedule
	faultSeed int64
	rates     ledger.RateSchedule

	// services are the latency services a -config file declared SLOs
	// for; their cores are driven by the service model, not a pinned
	// workload profile, and sloTargets are the live p99 objectives the
	// daemon stamps onto their telemetry.
	services   []svc.Config
	sloTargets []core.SLOTarget
}

func main() {
	var (
		plat     = flag.String("platform", "skylake", "skylake or ryzen")
		policy   = flag.String("policy", "frequency", "frequency, performance, power, or priority")
		limit    = flag.Float64("limit", 50, "package power limit in watts")
		apps     = flag.String("apps", "gcc:0:90,cam4:1:10", "comma-separated name:core:shares or name:core:hp|lp")
		duration = flag.Duration("duration", 60*time.Second, "virtual run time")
		interval = flag.Duration("interval", time.Second, "control interval")
		tracePth = flag.String("trace", "", "write a per-iteration CSV time series to this file")
		confPath = flag.String("config", "", "JSON config file (overrides -platform/-policy/-limit/-apps/-interval)")
		listen   = flag.String("listen", "", "serve /metrics, /debug/status, /healthz on this address (e.g. :9090)")
		nodeName = flag.String("node-name", "", "control-plane node name; serves /v1/power/ on -listen for powercoord and powerctl")
		fallback = flag.Float64("fallback", 0, "safe cap in watts a lease expiry reverts to (0 = the configured limit)")
		pprofOn  = flag.Bool("debug-pprof", false, "also serve /debug/pprof/ (CPU/heap/block profiles) on -listen")
		flightOn = flag.Bool("flight", true, "run the flight recorder (MSR accesses, decisions, actuations)")
		fltCap   = flag.Int("flight-cap", 0, "flight-recorder events retained per source; each of the 7 rings costs 56 B an event (0 = 16384)")
		fltDir   = flag.String("flight-dump-dir", ".", "directory flight dumps are written to")
		fltOver  = flag.Duration("flight-overlimit", 0, "dump when power exceeds the limit continuously for this long (0 = off)")
		fltSLO   = flag.Duration("flight-slo", 0, "dump when one control iteration exceeds this wall-clock latency (0 = off)")
		faults   = flag.String("faults", "", "fault schedule, inline (';'-separated entries) or @file")
		faultSd  = flag.Int64("fault-seed", 1, "seed for probabilistic fault decisions (same seed = same fault pattern)")
		rates    = flag.String("energy-rates", "", `energy rate schedule "start=usd_per_kwh:gco2_per_kwh,..." (e.g. "0=0.12:420,8h=0.08:250"); empty = defaults`)
	)
	flag.Parse()

	rateSched := ledger.DefaultRates
	if *rates != "" {
		var rerr error
		if rateSched, rerr = ledger.ParseRateSchedule(*rates); rerr != nil {
			fmt.Fprintln(os.Stderr, "powerd:", rerr)
			os.Exit(1)
		}
	}

	var sched fault.Schedule
	if *faults != "" {
		text := *faults
		if strings.HasPrefix(text, "@") {
			data, rerr := os.ReadFile(text[1:])
			if rerr != nil {
				fmt.Fprintln(os.Stderr, "powerd: reading fault schedule:", rerr)
				os.Exit(1)
			}
			text = string(data)
		}
		var perr error
		if sched, perr = fault.ParseSchedule(text); perr != nil {
			fmt.Fprintln(os.Stderr, "powerd:", perr)
			os.Exit(1)
		}
	}

	opts := runOpts{
		duration:  *duration,
		tracePath: *tracePth,
		listen:    *listen,
		nodeName:  *nodeName,
		fallback:  units.Watts(*fallback),
		pprofOn:   *pprofOn,
		flightOn:  *flightOn,
		flightCap: *fltCap,
		triggers: daemon.FlightTriggers{
			Dir:          *fltDir,
			OverLimitFor: *fltOver,
			IterationSLO: *fltSLO,
		},
		faults:    sched,
		faultSeed: *faultSd,
		rates:     rateSched,
	}

	var err error
	if *confPath != "" {
		err = runConfig(*confPath, opts)
	} else {
		err = run(*plat, *policy, units.Watts(*limit), *apps, *interval, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "powerd:", err)
		os.Exit(1)
	}
}

// runConfig drives the daemon from an operator config file.
func runConfig(path string, opts runOpts) error {
	cfg, err := opconfig.Load(path)
	if err != nil {
		return err
	}
	chip, specs, pol, err := cfg.Build()
	if err != nil {
		return err
	}
	if opts.services, err = cfg.BuildServices(); err != nil {
		return err
	}
	opts.sloTargets = cfg.SLOTargets()
	return drive(chip, specs, pol, cfg.Policy, cfg.Limit(), cfg.Interval(), opts)
}

func parseApps(arg string, priority bool) ([]core.AppSpec, error) {
	var specs []core.AppSpec
	for _, item := range strings.Split(arg, ",") {
		parts := strings.Split(strings.TrimSpace(item), ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("app %q: want name:core:shares or name:core:hp|lp", item)
		}
		p, err := workload.ByName(parts[0])
		if err != nil {
			return nil, err
		}
		coreID, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("app %q: bad core: %w", item, err)
		}
		spec := core.AppSpec{Name: p.Name, Core: coreID, AVX: p.AVX}
		if priority {
			switch strings.ToLower(parts[2]) {
			case "hp":
				spec.HighPriority = true
			case "lp":
			default:
				return nil, fmt.Errorf("app %q: want hp or lp", item)
			}
		} else {
			shares, err := strconv.Atoi(parts[2])
			if err != nil {
				return nil, fmt.Errorf("app %q: bad shares: %w", item, err)
			}
			spec.Shares = units.Shares(shares)
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

func run(plat, policy string, limit units.Watts, apps string, interval time.Duration, opts runOpts) error {
	chip, err := platform.ByName(plat)
	if err != nil {
		return err
	}
	specs, err := parseApps(apps, policy == "priority")
	if err != nil {
		return err
	}
	for i := range specs {
		if policy == "performance" {
			// Offline standalone baseline at maximum frequency.
			p := workload.MustByName(specs[i].Name)
			specs[i].BaselineIPS = p.IPS(chip.Freq.Ceiling(1, p.AVX))
		}
	}
	pol, err := opconfig.PolicyFor(policy, chip, specs, limit)
	if err != nil {
		return err
	}
	return drive(chip, specs, pol, policy, limit, interval, opts)
}

// drive builds the machine, pins the configured applications, and runs the
// daemon for the requested virtual duration with periodic progress output.
// When opts.listen is non-empty the observability endpoints are served
// there for the life of the run.
func drive(chip platform.Chip, specs []core.AppSpec, pol core.Policy, policy string,
	limit units.Watts, interval time.Duration, opts runOpts) (err error) {

	reg := metrics.NewRegistry()
	metrics.RegisterBuildInfo(reg, "powerd")
	journal := decisions.NewJournal(0)
	var rec *flight.Recorder
	if opts.flightOn {
		rec = flight.New(opts.flightCap)
	}

	m, err := sim.New(chip, sim.WithMetrics(reg), sim.WithFlightRecorder(rec))
	if err != nil {
		return err
	}
	// Latency-service cores are pinned by the service model below, not a
	// workload profile — their "app" entries only exist to give the
	// policy shares and core ownership.
	svcCores := make(map[int]bool)
	for _, sc := range opts.services {
		for _, c := range sc.Cores {
			svcCores[c] = true
		}
	}
	for i := range specs {
		if svcCores[specs[i].Core] {
			continue
		}
		p := workload.MustByName(specs[i].Name)
		if err := m.Pin(workload.NewInstance(p), specs[i].Core); err != nil {
			return err
		}
	}
	var svcModel *svc.Model
	if len(opts.services) > 0 {
		if svcModel, err = svc.NewModel(opts.services...); err != nil {
			return err
		}
		if err := svcModel.Attach(m); err != nil {
			return err
		}
	}

	// With a fault schedule the injector wraps the device (so the daemon
	// reads through it) and drives window transitions off virtual time.
	dev := msr.Device(m.Device())
	var inj *fault.Injector
	if len(opts.faults) > 0 {
		inj = fault.New(opts.faults, opts.faultSeed)
		inj.Instrument(reg)
		inj.Flight(rec)
		inj.Drive(m)
		dev = inj.WrapDevice(dev)
	}

	// The energy ledger is always on: attribution costs one lock and a few
	// hundred integer ops per interval, and post-hoc "which app burned the
	// budget" questions can't be answered from data nobody recorded.
	led, err := ledger.New(ledger.Config{
		Chip: chip, Apps: specs, Rates: opts.rates, Metrics: reg, Flight: rec,
	})
	if err != nil {
		return err
	}

	dcfg := daemon.Config{
		Chip: chip, Policy: pol, Apps: specs, Limit: limit, Interval: interval,
		Metrics: reg, Journal: journal, Flight: rec, Triggers: opts.triggers,
		Ledger: led,
	}
	if svcModel != nil {
		dcfg.SLO = svcModel
		dcfg.SLOTargets = opts.sloTargets
	}
	dcfg.Triggers.OnDump = func(path, reason string, derr error) {
		if derr != nil {
			fmt.Fprintf(os.Stderr, "powerd: flight dump (%s) failed: %v\n", reason, derr)
			return
		}
		fmt.Printf("powerd: flight dump (%s) written to %s\n", reason, path)
	}
	if opts.tracePath != "" {
		f, ferr := os.Create(opts.tracePath)
		if ferr != nil {
			return fmt.Errorf("opening trace file: %w", ferr)
		}
		tw := trace.NewSnapshotWriter(f, specs)
		defer func() {
			// The writer is buffered; a dropped flush error would silently
			// truncate the trace.
			if cerr := tw.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("closing trace file: %w", cerr)
			}
		}()
		dcfg.OnSnapshot = tw.Observe
	}
	d, err := daemon.New(dcfg, dev, daemon.MachineActuator{M: m, Dev: dev})
	if err != nil {
		return err
	}
	if err := d.AttachVirtual(m); err != nil {
		return err
	}

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
					fmt.Println("powerd: flight dump written to", path)
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
				Metrics:    reg,
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
		srv := obs.New(reg, journal, obs.DaemonStatusFunc(d), srvOpts...)
		go func() { _ = srv.Serve(l) }()
		defer func() {
			// In-flight scrapes get a grace period instead of a reset.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if serr := srv.Shutdown(ctx); serr != nil && err == nil {
				err = fmt.Errorf("observability shutdown: %w", serr)
			}
		}()
		fmt.Printf("powerd: observability on http://%s (/metrics, /debug/status, /healthz)\n", l.Addr())
		if opts.nodeName != "" {
			fmt.Printf("powerd: control plane on http://%s%s (node %q)\n", l.Addr(), powerapi.PathPrefix, opts.nodeName)
		}
	}

	fmt.Printf("powerd: %s, %s policy, %v limit, %d apps, %v virtual run\n",
		chip.Name, pol.Name(), limit, len(specs), opts.duration)
	if inj != nil {
		fmt.Printf("powerd: fault schedule: %d windows, last closes at %v, seed %d\n",
			len(opts.faults), opts.faults.End(), opts.faultSeed)
	}
	// SIGINT/SIGTERM stop the run at the next progress step, so the final
	// table still prints and the observability server shuts down cleanly.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)

	step := opts.duration / 10
	if step < interval {
		step = interval
	}
	// The machine advances in chunks much smaller than a progress step so
	// a signal (or a coordinator-driven shutdown) is noticed within a
	// fraction of a wall-clock second even on very long virtual runs.
	chunk := 10 * time.Minute
	if chunk < interval {
		chunk = interval
	}
loop:
	for elapsed := time.Duration(0); elapsed < opts.duration; {
		target := elapsed + step
		if target > opts.duration {
			target = opts.duration
		}
		for elapsed < target {
			select {
			case sig := <-stop:
				fmt.Printf("powerd: %v, shutting down\n", sig)
				break loop
			default:
			}
			c := chunk
			if elapsed+c > target {
				c = target - elapsed
			}
			m.Run(c)
			if err := d.Err(); err != nil {
				return err
			}
			elapsed += c
		}
		snap := d.LastSnapshot()
		fmt.Printf("t=%-6s pkg=%-8s limit=%s\n", m.Now(), snap.PackagePower, snap.Limit)
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
		if policy != "priority" {
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
	if err := tb.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("powerd: energy: %.1f J total, %.1f J overshoot, %.1f J unattributed, %.1f J excluded, $%.6f, %.2f gCO2\n",
		sum.TotalJoules, sum.OvershootJoules,
		float64(sum.UnattributedUJ)/1e6, float64(sum.ExcludedUJ)/1e6,
		sum.CostUSD, sum.CarbonGrams)
	if svcModel != nil {
		for _, s := range svcModel.Services() {
			target := "no target"
			for _, t := range opts.sloTargets {
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
			fmt.Printf("powerd: service %s: p50 %.1fms p90 %.1fms p99 %.1fms, %d done, %d dropped, %d timed out, %s\n",
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
			fmt.Println("powerd: fault effects:", strings.Join(parts, " "))
		}
	}
	return nil
}
