// Command powerdump decodes flight-recorder dumps (written by powerd's
// SIGQUIT handler, the daemon's automatic triggers, or POST
// /debug/flight/dump) and turns them into something a human can debug
// from:
//
//	powerdump dump.fr                  # summary: metadata + event census
//	powerdump -view timeline dump.fr   # every event, one line each
//	powerdump -view spans dump.fr      # per-interval sample→decide→actuate trees
//	powerdump -view anomalies dump.fr  # over-limit excursions, throttle bursts, parks
//	powerdump -view energy dump.fr     # energy ledger rebuilt from cumulative events
//	powerdump -replay dump.fr          # re-execute against a fresh simulator and diff
//
// The merged view joins distributed round traces (GET /debug/rounds on
// the coordinator and each node, or tracing logs written by tests) into
// one cross-node timeline keyed by round ID, flagging stragglers and
// partition gaps. Under each round it prints the round's critical path
// (the spans the round waited on and the coordinator's self time, which
// sum to the round's wall time), and beside each node its slack: how
// long before its wave's path segment ended its own report had ended.
// The root coordinator's log comes first; logs from stacked tiers
// (powercoord -parent) nest as per-tier sub-timelines:
//
//	powerdump -view merged root.json row0.json row1.json leaf0.json ...
//
// -json switches the anomalies, energy, and merged views to
// machine-readable output for scripting and CI.
//
// Replay rebuilds the machine from the dump's metadata, re-applies the
// recorded MSR writes and park decisions at their recorded virtual times,
// and re-issues every recorded read: a clean dump reproduces bit for bit,
// and any divergence is printed with the first differing sequence number.
// A replay with mismatches exits non-zero, so CI can gate on it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/flight"
	"repro/internal/flight/replay"
	"repro/internal/ledger"
	"repro/internal/msr"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tracing"
	"repro/internal/units"
)

func main() {
	var (
		view     = flag.String("view", "summary", "summary, timeline, spans, anomalies, energy, or merged")
		interval = flag.Int("interval", -1, "restrict timeline/spans to one control interval (-1 = all)")
		limit    = flag.Int("n", 0, "print at most n timeline events (0 = all)")
		doReplay = flag.Bool("replay", false, "deterministically replay the dump and diff against the recording")
		jsonOut  = flag.Bool("json", false, "machine-readable output (anomalies, energy, and merged views)")
	)
	flag.Parse()
	if *view == "merged" {
		if flag.NArg() < 2 {
			fmt.Fprintln(os.Stderr, "usage: powerdump -view merged [-json] coord.json node.json [node.json ...]")
			os.Exit(2)
		}
		if err := merged(flag.Args(), *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "powerdump:", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: powerdump [-view summary|timeline|spans|anomalies|energy|merged] [-json] [-replay] dump.fr")
		os.Exit(2)
	}
	d, err := flight.ReadDumpFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "powerdump:", err)
		os.Exit(1)
	}
	if *doReplay {
		if err := runReplay(d); err != nil {
			fmt.Fprintln(os.Stderr, "powerdump:", err)
			os.Exit(1)
		}
		return
	}
	switch *view {
	case "summary":
		summary(d)
	case "timeline":
		timeline(d, *interval, *limit)
	case "spans":
		spans(d, *interval)
	case "anomalies":
		anomalies(d, *jsonOut)
	case "energy":
		energyView(d, *jsonOut)
	default:
		fmt.Fprintf(os.Stderr, "powerdump: unknown view %q\n", *view)
		os.Exit(2)
	}
}

// merged joins one coordinator round-trace log with any number of node
// logs into a cross-node timeline. Logs from stacked tiers compose: a
// mid-tier coordinator's log joins the root timeline as a node (its
// agent records carry the root's round IDs) and additionally surfaces
// as a sub-timeline of its own rounds merged against the remaining
// logs (tracing.MergeTree).
func merged(paths []string, jsonOut bool) error {
	coord, err := tracing.ReadLogFile(paths[0])
	if err != nil {
		return err
	}
	nodes := make([]tracing.Log, 0, len(paths)-1)
	for _, p := range paths[1:] {
		nl, err := tracing.ReadLogFile(p)
		if err != nil {
			return err
		}
		nodes = append(nodes, nl)
	}
	tl := tracing.MergeTree(coord, nodes)
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(tl)
	}
	renderTimeline(tl)
	return nil
}

func ms(d time.Duration) string { return fmt.Sprintf("%.2fms", float64(d)/1e6) }

func renderTimeline(tl tracing.Timeline) {
	fmt.Printf("merged timeline: coordinator %q, %d round(s), %d with partition gaps\n",
		tl.Coordinator, len(tl.Rounds), tl.GapRounds)
	for _, r := range tl.Rounds {
		line := fmt.Sprintf("round %-5d wall %s", r.ID, ms(r.End-r.Start))
		if r.Plan != nil {
			line += "  plan " + ms(r.Plan.Latency())
		}
		if r.Straggler != "" {
			line += "  straggler=" + r.Straggler
		}
		fmt.Println(line)
		if len(r.Path) > 0 {
			segs := make([]string, len(r.Path))
			for i, s := range r.Path {
				segs[i] = strings.TrimSpace(s.Name+" "+s.Node) + " " + ms(s.Latency())
				if s.Err != "" {
					segs[i] += " ERR"
				}
			}
			fmt.Println("  path  " + strings.Join(segs, " > "))
		}
		for _, n := range r.Nodes {
			switch {
			case n.Missing:
				fmt.Printf("  %-12s MISSING (partition gap: no node-side record)\n", n.Node)
			default:
				row := fmt.Sprintf("  %-12s", n.Node)
				if n.Report != nil {
					row += "  report " + ms(n.Report.Latency())
					if n.Report.Err != "" {
						row += " ERR:" + n.Report.Err
					}
					row += "  slack " + ms(n.Slack)
				}
				if n.Grant != nil {
					row += "  grant " + ms(n.Grant.Latency())
					if n.Grant.Err != "" {
						row += " ERR:" + n.Grant.Err
					}
				}
				if n.Record != nil {
					row += "  node-side " + ms(n.Record.Latency())
				}
				if n.Straggler {
					row += "  STRAGGLER"
				}
				fmt.Println(row)
			}
		}
	}
	if len(tl.Stragglers) > 0 {
		fmt.Println("stragglers:")
		for _, s := range tl.Stragglers {
			fmt.Printf("  %-12s %d round(s), worst %s\n", s.Node, s.Rounds, ms(s.Worst))
		}
	}
	for _, sub := range tl.Tiers {
		fmt.Printf("\n--- tier %q ---\n", sub.Coordinator)
		renderTimeline(sub)
	}
}

func mhz(v uint64) string    { return fmt.Sprintf("%.0fMHz", units.Hertz(v).MHzF()) }
func uwatts(v uint64) string { return fmt.Sprintf("%.1fW", float64(v)/1e6) }

// describe renders one event's payload.
func describe(e flight.Event) string {
	switch e.Kind {
	case flight.KindMSRRead:
		return fmt.Sprintf("cpu%-2d %-12s = %#x", e.Core, msr.RegName(e.Arg), e.Value)
	case flight.KindMSRWrite:
		return fmt.Sprintf("cpu%-2d %-12s <- %#x", e.Core, msr.RegName(e.Arg), e.Value)
	case flight.KindDecision:
		return fmt.Sprintf("%-20s pkg=%s limit=%s", flight.ReasonFromCode(e.Arg), uwatts(e.Value), uwatts(e.Aux))
	case flight.KindActuate:
		s := fmt.Sprintf("core%-2d %s", e.Core, flight.ActName(e.Arg))
		if e.Arg == flight.ActSetFreq {
			s += " " + mhz(e.Value)
		}
		return s
	case flight.KindRAPLThrottle, flight.KindRAPLRelease:
		return fmt.Sprintf("cap=%s pkg=%s", mhz(e.Value), uwatts(e.Aux))
	case flight.KindCStateSleep:
		return fmt.Sprintf("core%-2d -> C-state %d", e.Core, e.Value)
	case flight.KindCStateWake:
		return fmt.Sprintf("core%-2d <- C-state %d (exit %v)", e.Core, int(e.Arg)-1, time.Duration(e.Value))
	case flight.KindConstraint:
		return fmt.Sprintf("core%-2d bound by %s", e.Core, flight.ConstraintFromCode(e.Arg))
	case flight.KindFaultInject, flight.KindFaultClear:
		verb := "open"
		if e.Kind == flight.KindFaultClear {
			verb = "close"
		}
		scope := "pkg"
		if e.Core >= 0 {
			scope = fmt.Sprintf("cpu%d", e.Core)
		}
		s := fmt.Sprintf("%-5s %-8s %-5s", verb, flight.FaultName(e.Arg), scope)
		switch e.Arg {
		case flight.FaultThermal:
			s += " cap=" + mhz(e.Value)
		case flight.FaultRAPL:
			s += " limit=" + uwatts(e.Value)
		case flight.FaultLatency:
			s += " delay=" + time.Duration(e.Value).String()
		case flight.FaultEIO:
			s += fmt.Sprintf(" prob=%.2f", float64(e.Value)/1e6)
		}
		return s
	case flight.KindHealth:
		return fmt.Sprintf("core%-2d %s (telemetry %s)",
			e.Core, flight.HealthName(e.Arg), telemetry.CoreStatus(e.Value))
	case flight.KindLease:
		node := ""
		if e.Core >= 0 {
			node = fmt.Sprintf("node%-2d ", e.Core)
		}
		s := fmt.Sprintf("%s%-8s cap=%s", node, flight.LeaseName(e.Arg), uwatts(e.Value))
		switch e.Arg {
		case flight.LeaseGrant, flight.LeaseRenew:
			s += fmt.Sprintf(" ttl=%v", time.Duration(e.Aux))
		case flight.LeaseExpire, flight.LeaseFallback:
			s += " was=" + uwatts(e.Aux)
		}
		return s
	case flight.KindReconfigure:
		node := ""
		if e.Core >= 0 {
			node = fmt.Sprintf("node%-2d ", e.Core)
		}
		s := fmt.Sprintf("%s%-8s limit=%s", node, flight.ReconfigName(e.Arg), uwatts(e.Value))
		if e.Arg == flight.ReconfigLimit {
			s += " was=" + uwatts(e.Aux)
		}
		return s
	case flight.KindEnergy:
		acct := flight.EnergyArgName(e.Arg)
		if acct == "app" {
			acct = fmt.Sprintf("app%d(core%d)", e.Arg, e.Core)
		}
		return fmt.Sprintf("%-14s +%duJ total=%duJ", acct, e.Value, e.Aux)
	case flight.KindAnomaly:
		s := fmt.Sprintf("%-11s", flight.AnomalyName(e.Arg))
		switch e.Arg {
		case flight.AnomalyOvershoot:
			s += fmt.Sprintf(" over=%s for %d intervals", uwatts(e.Value), e.Aux)
		case flight.AnomalyOscillation:
			s += fmt.Sprintf(" limit=%s flips=%d", uwatts(e.Value), e.Aux)
		case flight.AnomalyShareDrift:
			s += fmt.Sprintf(" core%-2d energy=%.1f%% shares=%.1f%%",
				e.Core, float64(e.Value)/1e4, float64(e.Aux)/1e4)
		case flight.AnomalyStraggler:
			s += fmt.Sprintf(" socket%d untrusted for %d intervals", e.Core, e.Aux)
		}
		return s
	}
	return ""
}

func summary(d flight.Dump) {
	m := d.Meta
	fmt.Printf("flight dump v%d  reason=%s\n", m.Version, m.Reason)
	fmt.Printf("machine: %s, %d cores, tick %v, ESU %d\n",
		m.Chip, m.NumCores, time.Duration(m.TickNS), m.ESU)
	if m.Policy != "" {
		fmt.Printf("control: policy %s, limit %.1fW, interval %v\n",
			m.Policy, m.LimitWatts, time.Duration(m.IntervalNS))
	}
	for _, a := range m.Apps {
		extra := fmt.Sprintf("shares=%d", a.Shares)
		if a.HighPriority {
			extra = "high-priority"
		}
		fmt.Printf("  app %-10s core %d  %s\n", a.Name, a.Core, extra)
	}
	if len(d.Events) == 0 {
		fmt.Println("no events")
		return
	}
	first, last := d.Events[0], d.Events[len(d.Events)-1]
	fmt.Printf("%d events, seq %d..%d, t=%v..%v, intervals %d..%d\n",
		len(d.Events), first.Seq, last.Seq, first.Time, last.Time, first.Interval, last.Interval)
	if first.Seq != 1 {
		fmt.Println("NOTE: ring overwrote the start of the run (dump is truncated)")
	}
	counts := map[flight.Kind]int{}
	for _, e := range d.Events {
		counts[e.Kind]++
	}
	kinds := make([]flight.Kind, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		fmt.Printf("  %-14s %d\n", k, counts[k])
	}
	var worst, total time.Duration
	sp := flight.BuildSpans(d.Events)
	totals := make([]float64, 0, len(sp))
	for _, s := range sp {
		t := s.Total()
		total += t
		totals = append(totals, float64(t))
		if t > worst {
			worst = t
		}
	}
	if n := len(sp); n > 0 {
		qs := stats.Quantiles(totals, 50, 90, 99)
		fmt.Printf("iteration latency (wall): mean %v, p50 %v, p90 %v, p99 %v, worst %v over %d intervals\n",
			total/time.Duration(n), time.Duration(qs[0]), time.Duration(qs[1]),
			time.Duration(qs[2]), worst, n)
	}
}

func timeline(d flight.Dump, interval, n int) {
	printed := 0
	for _, e := range d.Events {
		if interval >= 0 && int(e.Interval) != interval {
			continue
		}
		if n > 0 && printed >= n {
			fmt.Printf("... (%d more events; raise -n)\n", len(d.Events)-printed)
			return
		}
		fmt.Printf("%8d %12v i%-4d %-7s %-14s %s\n",
			e.Seq, e.Time, e.Interval, e.Source, e.Kind, describe(e))
		printed++
	}
}

func spans(d flight.Dump, interval int) {
	for _, s := range flight.BuildSpans(d.Events) {
		if interval >= 0 && int(s.Interval) != interval {
			continue
		}
		fmt.Printf("interval %d  t=%v  total %v\n", s.Interval, s.Time, s.Total())
		phase := func(name string, p flight.Phase) {
			if len(p.Events) == 0 {
				return
			}
			fmt.Printf("  %-8s %3d events  %v\n", name, len(p.Events), p.Latency())
			for _, e := range p.Events {
				fmt.Printf("    %-14s %s\n", e.Kind, describe(e))
			}
		}
		phase("sample", s.Sample)
		phase("decide", s.Decide)
		phase("actuate", s.Actuate)
		phase("machine", s.Machine)
	}
}

// anomalyReport is the machine-readable shape of the anomalies view
// (-json); the text rendering prints the same facts.
type anomalyReport struct {
	Truncated       bool       `json:"truncated,omitempty"`
	OverLimitRuns   int        `json:"over_limit_runs"`
	WorstOvershootW float64    `json:"worst_overshoot_watts,omitempty"`
	RAPLThrottles   int        `json:"rapl_throttles"`
	LongestBurst    int        `json:"longest_throttle_burst,omitempty"`
	CoreParks       int        `json:"core_parks"`
	LeaseExpiries   int        `json:"lease_expiries"`
	LeaseFallbacks  int        `json:"lease_fallbacks"`
	LeaseRefusals   int        `json:"lease_refusals"`
	Reconfigures    int        `json:"reconfigures"`
	SlowIterations  []slowIter `json:"slow_iterations,omitempty"`

	// Iteration-latency distribution over all spans in the dump.
	LatencyP50NS int64 `json:"latency_p50_ns,omitempty"`
	LatencyP90NS int64 `json:"latency_p90_ns,omitempty"`
	LatencyP99NS int64 `json:"latency_p99_ns,omitempty"`
}

// slowIter is one control interval more than 5x slower than the median.
type slowIter struct {
	Interval int   `json:"interval"`
	TotalNS  int64 `json:"total_ns"`
	MedianNS int64 `json:"median_ns"`
}

func (a anomalyReport) any() bool {
	return a.OverLimitRuns > 0 || a.RAPLThrottles > 0 || a.CoreParks > 0 ||
		a.LeaseExpiries > 0 || a.LeaseFallbacks > 0 || a.LeaseRefusals > 0 ||
		a.Reconfigures > 0 || len(a.SlowIterations) > 0
}

func collectAnomalies(d flight.Dump) anomalyReport {
	var a anomalyReport
	a.Truncated = len(d.Events) > 0 && d.Events[0].Seq != 1
	// Over-limit excursions, from the decision marks (which carry observed
	// package power and the enforced limit).
	inOver, burst := false, 0
	overWorst := uint64(0)
	for _, e := range d.Events {
		switch e.Kind {
		case flight.KindLease:
			switch e.Arg {
			case flight.LeaseExpire:
				a.LeaseExpiries++
			case flight.LeaseFallback:
				a.LeaseFallbacks++
			case flight.LeaseRefuse:
				a.LeaseRefusals++
			}
		case flight.KindReconfigure:
			a.Reconfigures++
		case flight.KindDecision:
			if e.Aux > 0 && e.Value > e.Aux {
				if !inOver {
					a.OverLimitRuns++
					inOver = true
				}
				if over := e.Value - e.Aux; over > overWorst {
					overWorst = over
				}
			} else {
				inOver = false
			}
		case flight.KindRAPLThrottle:
			a.RAPLThrottles++
			burst++
			if burst > a.LongestBurst {
				a.LongestBurst = burst
			}
		case flight.KindRAPLRelease:
			burst = 0
		case flight.KindActuate:
			if e.Arg == flight.ActPark {
				a.CoreParks++
			}
		}
	}
	a.WorstOvershootW = float64(overWorst) / 1e6
	// Iteration latency outliers: anything over 5x the median total.
	sp := flight.BuildSpans(d.Events)
	totals := make([]time.Duration, 0, len(sp))
	for _, s := range sp {
		if t := s.Total(); t > 0 {
			totals = append(totals, t)
		}
	}
	if len(totals) > 0 {
		fs := make([]float64, len(totals))
		for i, t := range totals {
			fs[i] = float64(t)
		}
		qs := stats.Quantiles(fs, 50, 90, 99)
		a.LatencyP50NS = int64(qs[0])
		a.LatencyP90NS = int64(qs[1])
		a.LatencyP99NS = int64(qs[2])
	}
	if len(totals) >= 4 {
		sorted := append([]time.Duration(nil), totals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		median := sorted[len(sorted)/2]
		for _, s := range sp {
			if t := s.Total(); median > 0 && t > 5*median {
				a.SlowIterations = append(a.SlowIterations, slowIter{
					Interval: int(s.Interval), TotalNS: int64(t), MedianNS: int64(median),
				})
			}
		}
	}
	return a
}

func anomalies(d flight.Dump, jsonOut bool) {
	a := collectAnomalies(d)
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(a)
		return
	}
	if a.Truncated {
		fmt.Println("truncated: ring overwrote the start of the run")
	}
	if a.OverLimitRuns > 0 {
		fmt.Printf("power over limit: %d excursion(s), worst overshoot %.1fW\n", a.OverLimitRuns, a.WorstOvershootW)
	}
	if a.RAPLThrottles > 0 {
		fmt.Printf("RAPL throttles: %d step-down(s), longest burst %d\n", a.RAPLThrottles, a.LongestBurst)
	}
	if a.CoreParks > 0 {
		fmt.Printf("core parks: %d\n", a.CoreParks)
	}
	if a.LeaseExpiries > 0 || a.LeaseFallbacks > 0 {
		fmt.Printf("lease expiries: %d, fallback reverts: %d (coordinator silent past TTL)\n",
			a.LeaseExpiries, a.LeaseFallbacks)
	}
	if a.LeaseRefusals > 0 {
		fmt.Printf("lease refusals: %d (draining node or invalid grant)\n", a.LeaseRefusals)
	}
	if a.Reconfigures > 0 {
		fmt.Printf("live reconfigurations: %d\n", a.Reconfigures)
	}
	for _, s := range a.SlowIterations {
		fmt.Printf("slow iteration: interval %d took %v (median %v)\n",
			s.Interval, time.Duration(s.TotalNS), time.Duration(s.MedianNS))
	}
	if a.LatencyP99NS > 0 {
		fmt.Printf("iteration latency: p50 %v, p90 %v, p99 %v\n",
			time.Duration(a.LatencyP50NS), time.Duration(a.LatencyP90NS), time.Duration(a.LatencyP99NS))
	}
	if !a.any() {
		fmt.Println("no anomalies found")
	}
}

// energyAppRow is one application's line in the machine-readable energy
// view.
type energyAppRow struct {
	Name       string  `json:"name"`
	Core       int     `json:"core"`
	TotalUJ    uint64  `json:"total_uj"`
	Joules     float64 `json:"joules"`
	EnergyFrac float64 `json:"energy_frac"`
}

// energyReport is the machine-readable shape of the energy view: the
// ledger account book rebuilt exactly from the dump's cumulative energy
// events.
type energyReport struct {
	Events         int               `json:"events"`
	TotalUJ        uint64            `json:"total_uj"`
	AttributedUJ   uint64            `json:"attributed_uj"`
	UnattributedUJ uint64            `json:"unattributed_uj"`
	ExcludedUJ     uint64            `json:"excluded_uj"`
	LimitUJ        uint64            `json:"limit_uj"`
	OvershootUJ    uint64            `json:"overshoot_uj"`
	TotalJoules    float64           `json:"total_joules"`
	Conserved      bool              `json:"conserved"`
	Apps           []energyAppRow    `json:"apps,omitempty"`
	Anomalies      map[string]uint64 `json:"anomalies,omitempty"`
}

func buildEnergyReport(d flight.Dump) energyReport {
	r := ledger.Rebuild(d.Events)
	rep := energyReport{
		Events:         r.Events,
		TotalUJ:        r.TotalUJ,
		AttributedUJ:   r.AttributedUJ(),
		UnattributedUJ: r.UnattributedUJ,
		ExcludedUJ:     r.ExcludedUJ,
		LimitUJ:        r.LimitUJ,
		OvershootUJ:    r.OvershootUJ,
		TotalJoules:    float64(r.TotalUJ) / 1e6,
		Anomalies:      r.AnomalyCounts,
	}
	rep.Conserved = rep.AttributedUJ+rep.UnattributedUJ+rep.ExcludedUJ == rep.TotalUJ
	for i, uj := range r.AppUJ {
		row := energyAppRow{Name: fmt.Sprintf("app%d", i), Core: -1, TotalUJ: uj, Joules: float64(uj) / 1e6}
		if i < len(d.Meta.Apps) {
			row.Name = d.Meta.Apps[i].Name
			row.Core = d.Meta.Apps[i].Core
		}
		if rep.TotalUJ > 0 {
			row.EnergyFrac = float64(uj) / float64(rep.TotalUJ)
		}
		rep.Apps = append(rep.Apps, row)
	}
	return rep
}

// energyView rebuilds the energy ledger's account book from the dump's
// cumulative KindEnergy events — bit-identical to the live ledger at the
// instant of the dump — and renders it.
func energyView(d flight.Dump, jsonOut bool) {
	rep := buildEnergyReport(d)
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
		return
	}
	if rep.Events == 0 {
		fmt.Println("no energy events (ledger not running, or ring overwrote them)")
		return
	}
	fmt.Printf("energy ledger rebuilt from %d event(s):\n", rep.Events)
	fmt.Printf("  total        %12d uJ  (%.3f J)\n", rep.TotalUJ, rep.TotalJoules)
	fmt.Printf("  attributed   %12d uJ\n", rep.AttributedUJ)
	fmt.Printf("  unattributed %12d uJ\n", rep.UnattributedUJ)
	fmt.Printf("  excluded     %12d uJ  (untrusted telemetry, not smeared)\n", rep.ExcludedUJ)
	fmt.Printf("  limit budget %12d uJ, overshoot %d uJ\n", rep.LimitUJ, rep.OvershootUJ)
	if rep.Conserved {
		fmt.Println("  conservation: attributed + unattributed + excluded == total (exact)")
	} else {
		fmt.Println("  CONSERVATION VIOLATION: accounts do not sum to the total")
	}
	if len(rep.Apps) > 0 {
		fmt.Printf("  %-12s %5s %14s %8s\n", "APP", "CORE", "JOULES", "ENERGY%")
		for _, a := range rep.Apps {
			fmt.Printf("  %-12s %5d %14.3f %7.1f%%\n", a.Name, a.Core, a.Joules, a.EnergyFrac*100)
		}
	}
	if len(rep.Anomalies) > 0 {
		kinds := make([]string, 0, len(rep.Anomalies))
		for k := range rep.Anomalies {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		fmt.Printf("  anomalies (retained in ring):")
		for _, k := range kinds {
			fmt.Printf("  %s=%d", k, rep.Anomalies[k])
		}
		fmt.Println()
	}
}

func runReplay(d flight.Dump) error {
	res, err := replay.Replay(d)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d MSR writes, %d reads, %d park/wake actuations\n",
		res.Writes, res.Reads, res.Parks)
	if res.Truncated {
		fmt.Println("NOTE: dump is truncated; divergence is expected")
	}
	if len(res.Mismatches) == 0 {
		fmt.Println("all reads reproduced bit-identically")
	} else {
		fmt.Printf("%d read mismatches; first:\n", len(res.Mismatches))
		for i, mm := range res.Mismatches {
			if i >= 10 {
				fmt.Printf("  ... %d more\n", len(res.Mismatches)-i)
				break
			}
			fmt.Printf("  %v\n", mm)
		}
	}
	cores := make([]int, 0, len(res.RecordedFreq))
	for c := range res.RecordedFreq {
		cores = append(cores, c)
	}
	sort.Ints(cores)
	for _, c := range cores {
		recS, repS := res.RecordedFreq[c], res.ReplayedFreq[c]
		fmt.Printf("core %d frequency series: %d points, %s\n", c, len(recS), seriesVerdict(len(recS) == len(repS) && freqEqual(recS, repS)))
	}
	fmt.Printf("package power series: %d points, %s\n", len(res.RecordedPower),
		seriesVerdict(len(res.RecordedPower) == len(res.ReplayedPower) && powerEqual(res.RecordedPower, res.ReplayedPower)))
	if len(res.Mismatches) > 0 && !res.Truncated {
		return fmt.Errorf("replay diverged from recording")
	}
	return nil
}

func seriesVerdict(same bool) string {
	if same {
		return "identical"
	}
	return "DIVERGED"
}

func freqEqual(a, b []replay.FreqPoint) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func powerEqual(a, b []replay.PowerPoint) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
