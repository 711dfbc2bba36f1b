package cluster

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/powerapi"
	"repro/internal/stats"
	"repro/internal/tracing"
	"repro/internal/units"
)

// StragglerTopK bounds the straggler ranking a fleet snapshot carries.
const StragglerTopK = 5

// EnergyTopK bounds the top-energy-app ranking a fleet snapshot carries.
const EnergyTopK = 5

// NodeObservation is what one reallocation round learned about one node:
// the transport outcome, the report RPC latency and when the report
// finished (an offset from the round's start), and the report itself
// (with its piggybacked status and metrics snapshot when the transport
// collects them).
type NodeObservation struct {
	Node   string
	Err    error
	RPC    time.Duration
	Finish time.Duration
	Report Report
}

// fleetNode is the aggregator's per-node state.
type fleetNode struct {
	name        string
	lastRound   uint64
	missed      int // consecutive rounds without a good report
	totalMissed int
	straggles   int           // rounds this node was the straggler
	worstRPC    time.Duration // its slowest report in those rounds
	power       units.Watts
	limit       units.Watts
	// status points at frame, a copy of the last borrowed frame, and lease.
	status *powerapi.NodeStatus
	frame  powerapi.NodeStatus
	lease  powerapi.LeaseInfo
	rpcAcc stats.Accumulator
	rpcRes *stats.Reservoir
}

// Fleet aggregates per-node status reports and metrics snapshots into
// room-level rollups: total power against budget, per-app watts, lease
// churn, round-latency percentiles, straggler ranking, and version
// skew. The coordinator feeds it one ObserveRound per reallocation
// round; /debug/fleet and `powerctl top` render Snapshot. All methods
// are safe for concurrent use and on a nil receiver.
type Fleet struct {
	budget units.Watts

	mu       sync.Mutex
	round    uint64
	nodes    map[string]*fleetNode
	order    []string
	roundAcc stats.Accumulator
	roundRes *stats.Reservoir

	// Optional room-level rollup metrics on the coordinator registry.
	mPower     *metrics.Gauge
	mBudget    *metrics.Gauge
	mNodes     *metrics.Gauge
	mReporting *metrics.Gauge
	mAppWatts  *metrics.GaugeVec
	mRoundSec  *metrics.Histogram
	mStraggler *metrics.Counter

	// Energy rollups, fed from the EnergyStatus nodes piggyback on their
	// status replies.
	mEnergy       *metrics.Gauge
	mEnergyBudget *metrics.Gauge
	mEnergyCost   *metrics.Gauge
	mEnergyCarbon *metrics.Gauge
	mAnomalies    *metrics.GaugeVec

	// SLO rollups, fed from the SLOStatus nodes piggyback on their
	// status replies.
	mSLOServices *metrics.Gauge
	mSLOAttain   *metrics.Gauge
}

// NewFleet builds an aggregator for a room with the given budget,
// optionally publishing rollup gauges on reg.
func NewFleet(budget units.Watts, reg *metrics.Registry) *Fleet {
	f := &Fleet{
		budget:   budget,
		nodes:    make(map[string]*fleetNode),
		roundRes: stats.NewReservoir(),
	}
	if reg != nil {
		f.mPower = reg.Gauge("fleet_power_watts", "Power summed over the latest good report of every node.")
		f.mBudget = reg.Gauge("fleet_budget_watts", "Room power budget.")
		f.mNodes = reg.Gauge("fleet_nodes", "Nodes the coordinator manages.")
		f.mReporting = reg.Gauge("fleet_nodes_reporting", "Nodes whose report succeeded in the latest round.")
		f.mAppWatts = reg.GaugeVec("fleet_app_watts", "Per-application watts summed across nodes, from the latest reports.", "app")
		f.mRoundSec = reg.Histogram("fleet_round_seconds", "End-to-end latency of one coordinator reallocation round.", metrics.DefBuckets)
		f.mStraggler = reg.Counter("fleet_straggler_rounds_total", "Rounds in which some node was flagged as the straggler.")
		f.mEnergy = reg.Gauge("fleet_energy_joules", "Energy attributed across the fleet, summed over the latest ledger summary of every node.")
		f.mEnergyBudget = reg.Gauge("fleet_energy_budget_joules", "Room budget integrated over the longest node run clock — what the fleet was allowed to burn.")
		f.mEnergyCost = reg.Gauge("fleet_energy_cost_usd", "Fleet energy cost under the nodes' rate schedules.")
		f.mEnergyCarbon = reg.Gauge("fleet_energy_carbon_grams", "Fleet carbon footprint under the nodes' rate schedules.")
		f.mAnomalies = reg.GaugeVec("fleet_anomalies_total", "Ledger anomalies summed across nodes, by detector kind.", "kind")
		f.mSLOServices = reg.Gauge("fleet_slo_services", "Latency-service instances reporting SLO telemetry across the fleet.")
		f.mSLOAttain = reg.Gauge("fleet_slo_attainment", "Fraction of reporting service instances meeting their p99 objective (1 when none report).")
		f.mBudget.Set(float64(budget))
	}
	return f
}

// ObserveRound folds one reallocation round into the rollups. total is
// the round's end-to-end latency as the coordinator measured it, and obs
// covers the coordinator's whole node set: a node missing from it has left,
// and its row goes.
func (f *Fleet) ObserveRound(round uint64, total time.Duration, obs []NodeObservation) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.round = round
	f.roundAcc.Add(total.Seconds())
	f.roundRes.Add(total.Seconds())

	reporting := 0
	var finishes []time.Duration
	var finObs []int
	for k, o := range obs {
		n := f.nodes[o.Node]
		if n == nil {
			n = &fleetNode{name: o.Node, rpcRes: stats.NewReservoir()}
			f.nodes[o.Node] = n
			f.order = append(f.order, o.Node)
		}
		if o.Err != nil {
			n.missed++
			n.totalMissed++
			continue
		}
		reporting++
		n.missed = 0
		n.lastRound = round
		n.power = o.Report.Power
		n.limit = o.Report.Limit
		n.rpcAcc.Add(o.RPC.Seconds())
		n.rpcRes.Add(o.RPC.Seconds())
		finishes = append(finishes, o.Finish)
		finObs = append(finObs, k)
		if st := o.Report.Status; st != nil {
			n.frame, n.status = *st, &n.frame
			if st.Lease != nil {
				n.lease, n.frame.Lease = *st.Lease, &n.lease
			}
		}
	}
	if len(f.nodes) > len(obs) {
		// obs is the coordinator's whole node set: a node it dropped leaves
		// the rollups with it.
		in := make(map[string]bool, len(obs))
		for _, o := range obs {
			in[o.Node] = true
		}
		f.order = slices.DeleteFunc(f.order, func(name string) bool {
			gone := !in[name]
			if gone {
				delete(f.nodes, name)
			}
			return gone
		})
	}
	if at := tracing.StragglerIn(finishes); at >= 0 {
		o := obs[finObs[at]]
		n := f.nodes[o.Node]
		n.straggles++
		n.worstRPC = max(n.worstRPC, o.RPC)
		f.mStraggler.Inc()
	}

	var totalPower units.Watts
	appWatts := map[string]float64{}
	var energyJ, costUSD, carbonG, maxElapsed float64
	anomalies := map[string]float64{}
	sloTotal, sloMet := 0, 0
	for _, n := range f.nodes {
		totalPower += n.power
		if n.status == nil {
			continue
		}
		for _, app := range n.status.Apps {
			appWatts[app.Name] += app.Watts
		}
		if s := n.status.SLO; s != nil {
			for _, svc := range s.Services {
				sloTotal++
				if svc.Met {
					sloMet++
				}
			}
		}
		if e := n.status.Energy; e != nil {
			energyJ += e.TotalJoules
			costUSD += e.CostUSD
			carbonG += e.CarbonGrams
			if e.ElapsedSeconds > maxElapsed {
				maxElapsed = e.ElapsedSeconds
			}
			for k, v := range e.Anomalies {
				anomalies[k] += float64(v)
			}
		}
	}
	f.mu.Unlock()

	f.mPower.Set(float64(totalPower))
	f.mNodes.Set(float64(len(obs)))
	f.mReporting.Set(float64(reporting))
	f.mRoundSec.Observe(total.Seconds())
	if f.mAppWatts != nil {
		for app, w := range appWatts {
			f.mAppWatts.With(app).Set(w)
		}
	}
	f.mEnergy.Set(energyJ)
	f.mEnergyBudget.Set(float64(f.budget) * maxElapsed)
	f.mEnergyCost.Set(costUSD)
	f.mEnergyCarbon.Set(carbonG)
	if f.mAnomalies != nil {
		for kind, v := range anomalies {
			f.mAnomalies.With(kind).Set(v)
		}
	}
	f.mSLOServices.Set(float64(sloTotal))
	attain := 1.0
	if sloTotal > 0 {
		attain = float64(sloMet) / float64(sloTotal)
	}
	f.mSLOAttain.Set(attain)
}

// LatencySummary condenses a latency distribution to what `top` shows.
type LatencySummary struct {
	P50MS   float64 `json:"p50_ms"`
	P99MS   float64 `json:"p99_ms"`
	MaxMS   float64 `json:"max_ms"`
	Samples int     `json:"samples"`
}

func summarize(acc stats.Accumulator, res *stats.Reservoir) LatencySummary {
	qs := res.Quantiles(50, 99) // one sort of the reservoir for both
	return LatencySummary{
		P50MS:   qs[0] * 1e3,
		P99MS:   qs[1] * 1e3,
		MaxMS:   acc.Max() * 1e3,
		Samples: acc.Count(),
	}
}

// FleetNode is one node's row in a fleet snapshot.
type FleetNode struct {
	Name         string              `json:"name"`
	PowerWatts   float64             `json:"power_watts"`
	LimitWatts   float64             `json:"limit_watts"`
	Policy       string              `json:"policy,omitempty"`
	Draining     bool                `json:"draining,omitempty"`
	Lease        *powerapi.LeaseInfo `json:"lease,omitempty"`
	LastRound    uint64              `json:"last_round"`
	MissedRounds int                 `json:"missed_rounds,omitempty"`
	TotalMissed  int                 `json:"total_missed,omitempty"`
	RPC          LatencySummary      `json:"rpc"`
	StatusRev    uint64              `json:"status_rev,omitempty"`
	EnergyJoules float64             `json:"energy_joules,omitempty"`
	CostUSD      float64             `json:"cost_usd,omitempty"`
	Anomalies    uint64              `json:"anomalies,omitempty"`
	SLOServices  int                 `json:"slo_services,omitempty"`
	SLOMet       int                 `json:"slo_met,omitempty"`
}

// FleetApp is one application's room-wide power rollup.
type FleetApp struct {
	Name  string  `json:"name"`
	Watts float64 `json:"watts"`
	Nodes int     `json:"nodes"`
}

// FleetAppEnergy is one application's room-wide energy rollup.
type FleetAppEnergy struct {
	Name        string  `json:"name"`
	Joules      float64 `json:"joules"`
	CostUSD     float64 `json:"cost_usd"`
	CarbonGrams float64 `json:"carbon_grams"`
	Nodes       int     `json:"nodes"`
}

// FleetServiceSLO is one latency service's room-wide SLO rollup: how
// many node instances report it, how many meet their p99 objective, and
// the worst tail across them.
type FleetServiceSLO struct {
	Name       string  `json:"name"`
	Nodes      int     `json:"nodes"`
	MetNodes   int     `json:"met_nodes"`
	WorstP99MS float64 `json:"worst_p99_ms"`
	TargetMS   float64 `json:"target_ms,omitempty"`
	Rate       float64 `json:"rate"`
}

// FleetStraggler ranks one node's straggler record.
type FleetStraggler struct {
	Node    string  `json:"node"`
	Rounds  int     `json:"rounds"`
	WorstMS float64 `json:"worst_ms"` // slowest report in a flagged round, as in Merge
}

// FleetSnapshot is the room-level rollup served at /debug/fleet.
type FleetSnapshot struct {
	Round           uint64             `json:"round"`
	BudgetWatts     float64            `json:"budget_watts"`
	TotalPowerWatts float64            `json:"total_power_watts"`
	Nodes           []FleetNode        `json:"nodes"`
	Apps            []FleetApp         `json:"apps,omitempty"`
	RoundLatency    LatencySummary     `json:"round_latency"`
	LeaseEvents     map[string]float64 `json:"lease_events,omitempty"`
	Stragglers      []FleetStraggler   `json:"stragglers,omitempty"`
	Versions        []string           `json:"versions,omitempty"`
	MixedVersions   bool               `json:"mixed_versions,omitempty"`

	// Energy rollups from the nodes' piggybacked ledger summaries.
	// EnergyBudgetJoules integrates the room budget over the longest node
	// run clock — the fleet's allowance over the same window the joules
	// were burned in — so EnergyJoules/EnergyBudgetJoules reads directly
	// as budget utilisation.
	EnergyJoules       float64           `json:"energy_joules,omitempty"`
	EnergyBudgetJoules float64           `json:"energy_budget_joules,omitempty"`
	OvershootJoules    float64           `json:"overshoot_joules,omitempty"`
	ExcludedJoules     float64           `json:"excluded_joules,omitempty"`
	EnergyCostUSD      float64           `json:"energy_cost_usd,omitempty"`
	EnergyCarbonGrams  float64           `json:"energy_carbon_grams,omitempty"`
	TopEnergyApps      []FleetAppEnergy  `json:"top_energy_apps,omitempty"`
	AnomalyCounts      map[string]uint64 `json:"anomaly_counts,omitempty"`

	// SLO rollups from the nodes' piggybacked service telemetry.
	// SLOAttainment is SLOMet/SLOTotal, only meaningful when SLOTotal is
	// non-zero.
	SLOTotal      int               `json:"slo_total,omitempty"`
	SLOMet        int               `json:"slo_met,omitempty"`
	SLOAttainment float64           `json:"slo_attainment,omitempty"`
	SLOServices   []FleetServiceSLO `json:"slo_services,omitempty"`
}

// Snapshot renders the current rollups. Nil-safe (returns zero value).
func (f *Fleet) Snapshot() FleetSnapshot {
	if f == nil {
		return FleetSnapshot{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()

	snap := FleetSnapshot{
		Round:        f.round,
		BudgetWatts:  float64(f.budget),
		RoundLatency: summarize(f.roundAcc, f.roundRes),
		LeaseEvents:  map[string]float64{},
	}
	apps := map[string]*FleetApp{}
	energyApps := map[string]*FleetAppEnergy{}
	sloSvcs := map[string]*FleetServiceSLO{}
	versions := map[string]bool{}
	var maxElapsed float64
	for _, name := range f.order {
		n := f.nodes[name]
		row := FleetNode{
			Name:         n.name,
			PowerWatts:   float64(n.power),
			LimitWatts:   float64(n.limit),
			LastRound:    n.lastRound,
			MissedRounds: n.missed,
			TotalMissed:  n.totalMissed,
			RPC:          summarize(n.rpcAcc, n.rpcRes),
		}
		if st := n.status; st != nil {
			row.StatusRev = st.Rev
			row.Policy = st.Policy
			row.Draining = st.Draining
			if st.Lease != nil {
				lease := *st.Lease
				row.Lease = &lease
			}
			for _, app := range st.Apps {
				a := apps[app.Name]
				if a == nil {
					a = &FleetApp{Name: app.Name}
					apps[app.Name] = a
				}
				a.Watts += app.Watts
				a.Nodes++
			}
			if s := st.SLO; s != nil {
				for _, svc := range s.Services {
					row.SLOServices++
					snap.SLOTotal++
					if svc.Met {
						row.SLOMet++
						snap.SLOMet++
					}
					fs := sloSvcs[svc.Name]
					if fs == nil {
						fs = &FleetServiceSLO{Name: svc.Name}
						sloSvcs[svc.Name] = fs
					}
					fs.Nodes++
					if svc.Met {
						fs.MetNodes++
					}
					if svc.P99MS > fs.WorstP99MS {
						fs.WorstP99MS = svc.P99MS
					}
					if svc.TargetMS > 0 {
						fs.TargetMS = svc.TargetMS
					}
					fs.Rate += svc.Rate
				}
			}
			if e := st.Energy; e != nil {
				row.EnergyJoules = e.TotalJoules
				row.CostUSD = e.CostUSD
				for _, v := range e.Anomalies {
					row.Anomalies += v
				}
				snap.EnergyJoules += e.TotalJoules
				snap.OvershootJoules += e.OvershootJoules
				snap.ExcludedJoules += float64(e.ExcludedUJ) / 1e6
				snap.EnergyCostUSD += e.CostUSD
				snap.EnergyCarbonGrams += e.CarbonGrams
				if e.ElapsedSeconds > maxElapsed {
					maxElapsed = e.ElapsedSeconds
				}
				for k, v := range e.Anomalies {
					if snap.AnomalyCounts == nil {
						snap.AnomalyCounts = map[string]uint64{}
					}
					snap.AnomalyCounts[k] += v
				}
				for _, ae := range e.Apps {
					fa := energyApps[ae.Name]
					if fa == nil {
						fa = &FleetAppEnergy{Name: ae.Name}
						energyApps[ae.Name] = fa
					}
					fa.Joules += ae.Joules
					fa.Nodes++
					// Split the node's cost and carbon over its apps in
					// proportion to attributed joules; unattributed and
					// excluded energy stays in the node-level totals.
					if e.TotalJoules > 0 {
						fa.CostUSD += e.CostUSD * ae.Joules / e.TotalJoules
						fa.CarbonGrams += e.CarbonGrams * ae.Joules / e.TotalJoules
					}
				}
			}
			for k, v := range st.Metrics {
				if ev, ok := leaseEvent(k); ok {
					snap.LeaseEvents[ev] += v
				}
				if strings.HasPrefix(k, "padpd_build_info{") {
					versions[k] = true
				}
			}
		}
		snap.TotalPowerWatts += float64(n.power)
		snap.Nodes = append(snap.Nodes, row)
		if n.straggles > 0 {
			snap.Stragglers = append(snap.Stragglers, FleetStraggler{
				Node: n.name, Rounds: n.straggles, WorstMS: float64(n.worstRPC) / 1e6,
			})
		}
	}
	for _, a := range apps {
		snap.Apps = append(snap.Apps, *a)
	}
	sort.Slice(snap.Apps, func(i, j int) bool {
		if snap.Apps[i].Watts != snap.Apps[j].Watts {
			return snap.Apps[i].Watts > snap.Apps[j].Watts
		}
		return snap.Apps[i].Name < snap.Apps[j].Name
	})
	sort.Slice(snap.Stragglers, func(i, j int) bool {
		a, b := snap.Stragglers[i], snap.Stragglers[j]
		if a.Rounds != b.Rounds {
			return a.Rounds > b.Rounds
		}
		return a.WorstMS > b.WorstMS
	})
	if len(snap.Stragglers) > StragglerTopK {
		snap.Stragglers = snap.Stragglers[:StragglerTopK]
	}
	snap.EnergyBudgetJoules = float64(f.budget) * maxElapsed
	for _, a := range energyApps {
		snap.TopEnergyApps = append(snap.TopEnergyApps, *a)
	}
	sort.Slice(snap.TopEnergyApps, func(i, j int) bool {
		a, b := snap.TopEnergyApps[i], snap.TopEnergyApps[j]
		if a.Joules != b.Joules {
			return a.Joules > b.Joules
		}
		return a.Name < b.Name
	})
	if len(snap.TopEnergyApps) > EnergyTopK {
		snap.TopEnergyApps = snap.TopEnergyApps[:EnergyTopK]
	}
	if snap.SLOTotal > 0 {
		snap.SLOAttainment = float64(snap.SLOMet) / float64(snap.SLOTotal)
	}
	for _, s := range sloSvcs {
		snap.SLOServices = append(snap.SLOServices, *s)
	}
	sort.Slice(snap.SLOServices, func(i, j int) bool {
		a, b := snap.SLOServices[i], snap.SLOServices[j]
		// Worst-attaining services first, then by name for stability.
		am, bm := float64(a.MetNodes)/float64(a.Nodes), float64(b.MetNodes)/float64(b.Nodes)
		if am != bm {
			return am < bm
		}
		return a.Name < b.Name
	})
	for v := range versions {
		snap.Versions = append(snap.Versions, v)
	}
	sort.Strings(snap.Versions)
	snap.MixedVersions = len(snap.Versions) > 1
	if len(snap.LeaseEvents) == 0 {
		snap.LeaseEvents = nil
	}
	return snap
}

// leaseEvent extracts the event label from a lease-churn series key,
// e.g. `powerapi_lease_events_total{event="renew"}` -> "renew".
func leaseEvent(key string) (string, bool) {
	const prefix = `powerapi_lease_events_total{event="`
	if !strings.HasPrefix(key, prefix) {
		return "", false
	}
	rest := strings.TrimPrefix(key, prefix)
	i := strings.IndexByte(rest, '"')
	if i < 0 {
		return "", false
	}
	return rest[:i], true
}
