package bench

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/hierarchy"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/flight"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/powerapi"
	"repro/internal/sim"
	"repro/internal/svc"
	"repro/internal/telemetry"
	"repro/internal/tracing"
	"repro/internal/units"
	"repro/internal/workload"
)

// Node counts for the coordinator-tick trajectory and core counts for
// the control-loop trajectory. Smoke mode keeps the loop trajectory
// through the first multi-socket size (128 cores, where the NUMA paths
// start mattering) and drops only the largest fleets, so CI's gate run
// stays fast but still exercises cross-socket sampling.
var (
	coordinatorNodes      = []int{4, 16, 64}
	coordinatorSmokeNodes = []int{4, 16}
	// Hierarchy sizes are {leaves, rows}: 3-tier trees of in-process
	// leaves under rows reached over loopback-HTTP uplinks. The 1024-leaf
	// flagship (32 rows × 32 leaves) is the thousand-node configuration
	// the flat coordinator could never poll in one round.
	hierSizes         = [][2]int{{64, 8}, {256, 16}, {1024, 32}}
	hierSmokeSizes    = [][2]int{{64, 8}}
	loopCores         = []int{4, 10, 32, 128, 256, 512}
	loopSmokeCores    = []int{4, 10, 32, 128}
	ledgerApps        = []int{2, 8, 32, 128}
	ledgerSmokeApps   = []int{2, 8, 32}
	svcTickCores      = []int{8, 32, 128}
	svcTickSmokeCores = []int{8, 32}
)

func sizes(all, smokeSubset []int, smoke bool) []int {
	if smoke {
		return smokeSubset
	}
	return all
}

// benchSocketCores is the per-socket core count the multi-socket bench
// machines are built from: eight of these make the 512-core flagship.
const benchSocketCores = 64

// benchChip builds the control-loop benchmark machine for a core count:
// a single widened Skylake socket up to 64 cores, and a multi-socket
// package of 64-core sockets beyond that (128 = 2×64, 512 = 8×64), so
// the large configurations exercise per-socket RAPL domains and
// cross-socket turbo occupancy rather than one implausibly wide socket.
func benchChip(cores int) platform.Chip {
	if cores <= benchSocketCores {
		return platform.ScaleSocket(platform.Skylake(), cores)
	}
	if cores%benchSocketCores != 0 {
		panic(fmt.Sprintf("bench: %d cores is not a multiple of the %d-core bench socket", cores, benchSocketCores))
	}
	socket := platform.ScaleSocket(platform.Skylake(), benchSocketCores)
	return platform.MultiSocket(socket, cores/benchSocketCores)
}

// benchNode is one loopback-HTTP node for the coordinator benchmark:
// the full powerd stack (machine, daemon, agent, obs listener), reached
// only through the wire.
type benchNode struct {
	agent *powerapi.Agent
	srv   *httptest.Server
}

func (n *benchNode) close() {
	n.srv.Close()
	n.agent.Close()
}

func newBenchNode(name string, limit units.Watts, withLedger bool) (*benchNode, error) {
	chip := platform.Skylake()
	m, err := sim.New(chip)
	if err != nil {
		return nil, err
	}
	apps := []string{"gcc", "cam4"}
	specs := make([]core.AppSpec, len(apps))
	for i, a := range apps {
		p := workload.MustByName(a)
		if err := m.Pin(workload.NewInstance(p), i); err != nil {
			return nil, err
		}
		specs[i] = core.AppSpec{Name: a, Core: i, Shares: 50, AVX: p.AVX}
	}
	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		return nil, err
	}
	var led *ledger.Ledger
	if withLedger {
		if led, err = ledger.New(ledger.Config{Chip: chip, Apps: specs}); err != nil {
			return nil, err
		}
	}
	d, err := daemon.New(daemon.Config{
		Chip: chip, Policy: pol, Apps: specs, Limit: limit, Ledger: led,
	}, m.Device(), daemon.MachineActuator{M: m})
	if err != nil {
		return nil, err
	}
	if err := d.AttachVirtual(m); err != nil {
		return nil, err
	}
	m.Run(time.Second) // non-zero power so the node bids
	agent, err := powerapi.NewAgent(powerapi.AgentConfig{
		Name: name, Daemon: d, Fallback: limit, PolicyName: "frequency",
		Ledger: led,
	})
	if err != nil {
		return nil, err
	}
	osrv := obs.New(nil, nil, nil, obs.WithHandler(powerapi.PathPrefix, agent.Handler()))
	return &benchNode{agent: agent, srv: httptest.NewServer(osrv.Handler())}, nil
}

// phaseWalls reduces a trace log to the mean wall-clock nanoseconds per
// span phase and round: concurrent spans of one phase (the report
// fan-out) count once, first-start to last-end.
func phaseWalls(log tracing.Log) map[string]float64 {
	sum := map[string]float64{}
	cnt := map[string]float64{}
	for _, r := range log.Rounds {
		starts := map[string]time.Duration{}
		ends := map[string]time.Duration{}
		for _, s := range r.Spans {
			if cur, ok := starts[s.Name]; !ok || s.Start < cur {
				starts[s.Name] = s.Start
			}
			if s.End > ends[s.Name] {
				ends[s.Name] = s.End
			}
		}
		for name := range starts {
			sum[name] += float64(ends[name] - starts[name])
			cnt[name]++
		}
	}
	out := make(map[string]float64, len(sum))
	for name, s := range sum {
		out[name] = s / cnt[name]
	}
	return out
}

// coordinatorEntry benchmarks one coordinator reallocation round over a
// loopback-HTTP fleet of n nodes. With withLedger every node runs an
// energy ledger and piggybacks its summary on the status poll, and the
// coordinator aggregates the fleet energy rollup — the full observability
// cost a production round pays.
func coordinatorEntry(n int, withLedger bool) (Entry, error) {
	budget := units.Watts(30 * n)
	nodes := make([]*benchNode, n)
	ts := make([]cluster.Transport, n)
	for i := range nodes {
		name := fmt.Sprintf("n%03d", i)
		nd, err := newBenchNode(name, budget/units.Watts(n), withLedger)
		if err != nil {
			return Entry{}, fmt.Errorf("bench: node %d of %d: %w", i, n, err)
		}
		nodes[i] = nd
		ts[i] = cluster.NewHTTPNode(name, nd.srv.URL, "bench")
	}
	defer func() {
		for _, nd := range nodes {
			nd.close()
		}
	}()
	tracer := tracing.New("bench-coord", 0)
	ccfg := cluster.Config{
		Budget:      budget,
		FloorBudget: budget,
		LeaseTTL:    time.Hour,
		Retries:     -1,
		Tracer:      tracer,
	}
	if withLedger {
		ccfg.Fleet = cluster.NewFleet(budget, nil)
	}
	c, err := cluster.NewOverTransports(ts, ccfg)
	if err != nil {
		return Entry{}, err
	}
	ctx := context.Background()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := c.Step(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	phases := phaseWalls(tracer.Log())
	if _, ok := phases["grant"]; !ok {
		// Steady-state rounds skip no-op renewals, so a converged fleet
		// never shows a grant wave. Shrink the budget once under a traced
		// round to measure a real full-fleet wave.
		wid := ccfg.RoundBase + 1<<31
		if err := c.SetBudget(powerapi.WithRound(ctx, wid), budget*9/10); err != nil {
			return Entry{}, err
		}
		for _, rd := range tracer.Log().Rounds {
			if rd.ID != wid {
				continue
			}
			if w := phaseWalls(tracing.Log{Rounds: []tracing.Round{rd}})["grant"]; w > 0 {
				phases["grant"] = w
			}
		}
	}
	name := fmt.Sprintf("coordinator_tick/nodes=%d", n)
	cfg := map[string]int{"nodes": n}
	if withLedger {
		name = fmt.Sprintf("coordinator_tick_ledger/nodes=%d", n)
		cfg["ledger"] = 1
	}
	return Entry{
		Name:        name,
		Config:      cfg,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
		Phases:      phases,
	}, nil
}

// meanRoundWall averages the wall-clock nanoseconds per recorded round
// across the given trace logs.
func meanRoundWall(logs ...tracing.Log) float64 {
	var sum, cnt float64
	for _, l := range logs {
		for _, r := range l.Rounds {
			sum += float64(r.End - r.Start)
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / cnt
}

// hierarchyEntry benchmarks one full tree round — every row polls its
// leaves, then the building polls the rows' fresh aggregates over
// loopback-HTTP uplinks and re-cascades budget — on a 3-tier tree of
// the given shape.
func hierarchyEntry(leaves, rows int) (Entry, error) {
	tree, err := hierarchy.NewSimTree(hierarchy.SimTreeConfig{
		Leaves:      leaves,
		Rows:        rows,
		Budget:      units.Watts(30 * leaves),
		LeaseTTL:    time.Hour,
		Retries:     -1,
		HTTPUplinks: true,
		Trace:       true,
	})
	if err != nil {
		return Entry{}, err
	}
	defer tree.Close()
	ctx := context.Background()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := tree.Step(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	logs := tree.Logs()
	phases := map[string]float64{}
	if w := meanRoundWall(logs[0]); w > 0 {
		phases["round_building"] = w
	}
	if w := meanRoundWall(logs[1:]...); w > 0 {
		phases["round_row"] = w
	}
	return Entry{
		Name:        fmt.Sprintf("coordinator_tick_hier/leaves=%d", leaves),
		Config:      map[string]int{"leaves": leaves, "rows": rows},
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
		Phases:      phases,
	}, nil
}

// HierarchyTrajectory benchmarks the full-tree reallocation round of
// room→row→building trees at increasing leaf counts. The leaves attach
// in-process (the deployment cost of a leaf lives in the flat
// coordinator_tick family); the row→building uplinks run the real
// delta-status wire protocol over loopback HTTP, so the trajectory
// prices exactly what the hierarchy adds: per-tier aggregation and the
// cascading grant wave.
func HierarchyTrajectory(smoke bool) ([]Entry, error) {
	shapes := hierSizes
	if smoke {
		shapes = hierSmokeSizes
	}
	var entries []Entry
	for _, s := range shapes {
		e, err := hierarchyEntry(s[0], s[1])
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// CoordinatorTrajectory benchmarks one coordinator reallocation round
// over loopback-HTTP node fleets of increasing size: the concurrent
// status fan-out, the water-fill plan, and the grant wave, with the
// phase breakdown taken from the round traces the run records. Each
// fleet size runs twice — bare, and with per-node energy ledgers plus
// the coordinator's fleet energy rollup — so the ledger's status-poll
// piggyback cost is pinned in the baseline next to the figure it must
// not regress.
func CoordinatorTrajectory(smoke bool) ([]Entry, error) {
	var entries []Entry
	for _, withLedger := range []bool{false, true} {
		for _, n := range sizes(coordinatorNodes, coordinatorSmokeNodes, smoke) {
			e, err := coordinatorEntry(n, withLedger)
			if err != nil {
				return nil, err
			}
			entries = append(entries, e)
		}
	}
	return entries, nil
}

// LoopTrajectory benchmarks one 1 ms control-loop iteration (sample →
// decide → actuate plus one simulator step) on Skylake sockets scaled
// to increasing core counts, with the phase breakdown read back from
// the daemon's phase histograms.
func LoopTrajectory(smoke bool) ([]Entry, error) {
	names := []string{"gcc", "cam4", "leela", "cactusBSSN"}
	var entries []Entry
	for _, cores := range sizes(loopCores, loopSmokeCores, smoke) {
		chip := benchChip(cores)
		reg := metrics.NewRegistry()
		m, err := sim.New(chip)
		if err != nil {
			return nil, err
		}
		specs := make([]core.AppSpec, cores)
		for i := 0; i < cores; i++ {
			p := workload.MustByName(names[i%len(names)])
			if err := m.Pin(workload.NewInstance(p), i); err != nil {
				return nil, err
			}
			specs[i] = core.AppSpec{Name: p.Name, Core: i, Shares: units.Shares(10 + i%7), AVX: p.AVX}
		}
		pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
		if err != nil {
			return nil, err
		}
		limit := chip.RAPLMax * 6 / 10
		d, err := daemon.New(daemon.Config{
			Chip: chip, Policy: pol, Apps: specs, Limit: limit, Metrics: reg,
		}, m.Device(), daemon.MachineActuator{M: m})
		if err != nil {
			return nil, err
		}
		if err := d.Start(); err != nil {
			return nil, err
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Step()
				if _, err := d.RunIteration(time.Millisecond); err != nil {
					b.Fatal(err)
				}
			}
		})
		phases := map[string]float64{}
		vec := reg.HistogramVec("powerd_phase_seconds", "", nil, "phase")
		for _, ph := range []string{"sample", "decide", "actuate"} {
			h := vec.With(ph)
			if c := h.Count(); c > 0 {
				phases[ph] = h.Sum() / float64(c) * 1e9
			}
		}
		entries = append(entries, Entry{
			Name:        fmt.Sprintf("loop_iteration/cores=%d", cores),
			Config:      map[string]int{"cores": cores},
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: float64(r.AllocsPerOp()),
			BytesPerOp:  float64(r.AllocedBytesPerOp()),
			Phases:      phases,
		})
	}
	return entries, nil
}

// coreRange returns the half-open core interval [lo, hi).
func coreRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for c := lo; c < hi; c++ {
		out = append(out, c)
	}
	return out
}

// svcBenchTenants is how many open-loop services share the svc bench
// machine, each on an equal slice of its cores.
const svcBenchTenants = 4

// buildSvcBench assembles the service-model bench: four co-located
// open-loop services at 40 req/s per core on a machine held at nominal
// frequency, advanced through one full default Window (10 s) so every
// sliding window is at its steady-state occupancy — at 128 cores, full to
// WindowCap. After that the model is driven directly, so entries price
// the service model alone, not the simulator.
func buildSvcBench(cores int) (*svc.Model, error) {
	chip := benchChip(cores)
	m, err := sim.New(chip)
	if err != nil {
		return nil, err
	}
	per := cores / svcBenchTenants
	cfgs := make([]svc.Config, svcBenchTenants)
	for i := range cfgs {
		cfgs[i] = svc.Config{
			Name:     fmt.Sprintf("svc%d", i),
			Cores:    coreRange(i*per, (i+1)*per),
			Seed:     int64(i + 1),
			Arrivals: svc.OpenPoisson,
			Rate:     svc.ConstantRate(40 * float64(per)),
			SLO:      50 * time.Millisecond,
		}
	}
	model, err := svc.NewModel(cfgs...)
	if err != nil {
		return nil, err
	}
	if err := model.Attach(m); err != nil {
		return nil, err
	}
	for c := 0; c < cores; c++ {
		if err := m.SetRequest(c, chip.Freq.Nom); err != nil {
			return nil, err
		}
	}
	// One simulated interval populates the effective frequencies.
	m.Run(100 * time.Millisecond)
	for i := 0; i < 10_000; i++ {
		model.Advance(time.Millisecond)
	}
	return model, nil
}

func svcEntry(family string, cores int, r testing.BenchmarkResult) Entry {
	return Entry{
		Name:        fmt.Sprintf("%s/cores=%d", family, cores),
		Config:      map[string]int{"cores": cores, "services": svcBenchTenants},
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
	}
}

// SvcTrajectory benchmarks one 1 ms advance of the multi-tenant
// latency-service model — arrival admission, per-core cycle drain, and
// sliding-window bookkeeping (ring plus order statistics) for four
// co-located open-loop services — at increasing machine sizes. The tick
// rides the control loop's cadence, so the family is held to the hard
// zero-allocation gate.
func SvcTrajectory(smoke bool) ([]Entry, error) {
	var entries []Entry
	for _, cores := range sizes(svcTickCores, svcTickSmokeCores, smoke) {
		model, err := buildSvcBench(cores)
		if err != nil {
			return nil, err
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				model.Advance(time.Millisecond)
			}
		})
		entries = append(entries, svcEntry("svc_tick", cores, r))
	}
	return entries, nil
}

// SvcTelemetryTrajectory benchmarks one Model.FillServiceSLO — rate,
// queue depth and the window's p50/p90/p99 for each of the four services
// — on the same warmed machines. It is the read half of the sliding
// window, which the daemon's sample phase pays once per interval; the
// write half is in svc_tick. Zero-alloc gated like the loop it feeds.
func SvcTelemetryTrajectory(smoke bool) ([]Entry, error) {
	var entries []Entry
	for _, cores := range sizes(svcTickCores, svcTickSmokeCores, smoke) {
		model, err := buildSvcBench(cores)
		if err != nil {
			return nil, err
		}
		buf := make([]core.ServiceSLO, 0, svcBenchTenants)
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = model.FillServiceSLO(buf[:0])
			}
		})
		entries = append(entries, svcEntry("svc_telemetry", cores, r))
	}
	return entries, nil
}

// buildSLOBench assembles the SLO control-loop machine: half the cores
// serve an open-loop websearch service, a quarter serve ads, the rest
// run gcc batch, all daemonised under the SLO-feedback policy with the
// service model feeding telemetry into every snapshot.
func buildSLOBench(cores int) (*sim.Machine, *daemon.Daemon, *metrics.Registry, error) {
	chip := benchChip(cores)
	reg := metrics.NewRegistry()
	m, err := sim.New(chip)
	if err != nil {
		return nil, nil, nil, err
	}
	web, ads := cores/2, cores/4
	model, err := svc.NewModel(
		svc.Config{
			Name: "websearch", Cores: coreRange(0, web), Seed: 1,
			Arrivals: svc.OpenPoisson, Rate: svc.ConstantRate(40 * float64(web)),
			SLO: 50 * time.Millisecond,
		},
		svc.Config{
			Name: "ads", Cores: coreRange(web, web+ads), Seed: 2,
			Arrivals: svc.OpenPoisson, Rate: svc.ConstantRate(40 * float64(ads)),
			SLO: 30 * time.Millisecond,
		},
	)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := model.Attach(m); err != nil {
		return nil, nil, nil, err
	}
	specs := make([]core.AppSpec, cores)
	for i := 0; i < cores; i++ {
		switch {
		case i < web:
			specs[i] = core.AppSpec{Name: "websearch", Core: i, Shares: 50}
		case i < web+ads:
			specs[i] = core.AppSpec{Name: "ads", Core: i, Shares: 50}
		default:
			p := workload.MustByName("gcc")
			if err := m.Pin(workload.NewInstance(p), i); err != nil {
				return nil, nil, nil, err
			}
			specs[i] = core.AppSpec{Name: p.Name, Core: i, Shares: 30, AVX: p.AVX}
		}
	}
	targets := []core.SLOTarget{
		{Service: "websearch", P99: 50 * time.Millisecond},
		{Service: "ads", P99: 30 * time.Millisecond},
	}
	pol, err := core.NewSLOFeedback(chip, specs, core.SLOConfig{Targets: targets})
	if err != nil {
		return nil, nil, nil, err
	}
	d, err := daemon.New(daemon.Config{
		Chip: chip, Policy: pol, Apps: specs, Limit: chip.RAPLMax * 6 / 10,
		Metrics: reg, SLO: model, SLOTargets: targets,
	}, m.Device(), daemon.MachineActuator{M: m})
	if err != nil {
		return nil, nil, nil, err
	}
	if err := d.Start(); err != nil {
		return nil, nil, nil, err
	}
	return m, d, reg, nil
}

// SLOLoopTrajectory benchmarks the control-loop iteration with the SLO
// machinery engaged: the service model ticks on the simulator step, the
// daemon double-buffers per-service telemetry into the snapshot, and
// the SLO-feedback policy runs its PI loops. The entries live under the
// loop_iteration/ prefix, so the zero-alloc gate covers the whole SLO
// decide path.
func SLOLoopTrajectory(smoke bool) ([]Entry, error) {
	var entries []Entry
	for _, cores := range sizes(svcTickCores, svcTickSmokeCores, smoke) {
		m, d, reg, err := buildSLOBench(cores)
		if err != nil {
			return nil, err
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Step()
				if _, err := d.RunIteration(time.Millisecond); err != nil {
					b.Fatal(err)
				}
			}
		})
		phases := map[string]float64{}
		vec := reg.HistogramVec("powerd_phase_seconds", "", nil, "phase")
		for _, ph := range []string{"sample", "decide", "actuate"} {
			h := vec.With(ph)
			if c := h.Count(); c > 0 {
				phases[ph] = h.Sum() / float64(c) * 1e9
			}
		}
		entries = append(entries, Entry{
			Name:        fmt.Sprintf("loop_iteration/slo/cores=%d", cores),
			Config:      map[string]int{"cores": cores},
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: float64(r.AllocsPerOp()),
			BytesPerOp:  float64(r.AllocedBytesPerOp()),
			Phases:      phases,
		})
	}
	return entries, nil
}

// LedgerTrajectory benchmarks one energy-ledger Append — attribution,
// tier append, detectors, cost, metrics publish, and flight events — at
// increasing app counts on the same multi-socket machines the loop
// trajectory uses. The family rides the control loop, so it is held to
// the hard zero-allocation gate alongside loop_iteration.
func LedgerTrajectory(smoke bool) ([]Entry, error) {
	var entries []Entry
	for _, napps := range sizes(ledgerApps, ledgerSmokeApps, smoke) {
		chip := benchChip(napps)
		names := []string{"gcc", "cam4", "leela", "cactusBSSN"}
		specs := make([]core.AppSpec, napps)
		for i := range specs {
			specs[i] = core.AppSpec{Name: names[i%len(names)], Core: i, Shares: units.Shares(10 + i%7)}
		}
		led, err := ledger.New(ledger.Config{
			Chip: chip, Apps: specs,
			Metrics: metrics.NewRegistry(), Flight: flight.New(0),
		})
		if err != nil {
			return nil, err
		}
		sockets := chip.Sockets()
		in := ledger.Input{
			Dt:           time.Millisecond,
			Limit:        units.Watts(25 * sockets),
			PackagePower: units.Watts(30 * sockets),
			PkgStatus:    telemetry.StatusOK,
			SocketPower:  make([]units.Watts, sockets),
			SocketStatus: make([]telemetry.CoreStatus, sockets),
			Cores:        make([]telemetry.CoreSample, chip.NumCores),
		}
		for s := 0; s < sockets; s++ {
			in.SocketPower[s] = 30
			in.SocketStatus[s] = telemetry.StatusOK
		}
		for c := range in.Cores {
			in.Cores[c] = telemetry.CoreSample{
				CPU: c, ActiveFreq: units.Hertz(2e9 + float64(c)*1e7), Status: telemetry.StatusOK,
			}
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in.At += in.Dt
				led.Append(in)
			}
		})
		entries = append(entries, Entry{
			Name:        fmt.Sprintf("ledger_append/apps=%d", napps),
			Config:      map[string]int{"apps": napps},
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: float64(r.AllocsPerOp()),
			BytesPerOp:  float64(r.AllocedBytesPerOp()),
		})
	}
	return entries, nil
}
