package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/experiments"
	"repro/internal/flight"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/metrics/decisions"
	"repro/internal/msr"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/svc"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workload"
)

// nodeSpec describes one simulated node: what runs on which core and
// which policy holds it under its limit.
type nodeSpec struct {
	chip     platform.Chip
	specs    []core.AppSpec           // every managed core, service cores included
	batch    map[int]workload.Profile // core → batch profile pinned there
	services []svc.Config
	targets  []core.SLOTarget // non-empty selects core.SLOFeedback, else FrequencyShares
	limit    units.Watts
	interval time.Duration // control interval, a whole number of 1 ms ticks

	// attach hangs the daemon on the machine's tick hook, as powerd
	// does, so advancing the machine runs the control loop. Off, the
	// benchmark calls RunIteration itself to time it apart from Step.
	attach bool
}

// nodeRig is one built node, assembled the way cmd/powerd's drive
// assembles it by default: metrics registry, decision journal, flight
// recorder (on the machine and the daemon) and energy ledger all on.
// The benchmark steps the machine and calls RunIteration itself, so it
// can time the two apart.
type nodeRig struct {
	spec    nodeSpec
	m       *sim.Machine
	d       *daemon.Daemon
	led     *ledger.Ledger
	rec     *flight.Recorder
	reg     *metrics.Registry
	journal *decisions.Journal
	model   *svc.Model
	ticks   int

	// Traced run only.
	t           *tracer
	dev         *tracedDevice
	pol         *tracedPolicy
	act         *tracedActuator
	probe       *telemetry.Sampler // benchmark-owned sampler on the same device
	probeN      int64
	probeT      time.Duration
	probeEvents uint64 // flight events the probe's own reads left behind

	next int // id of the next interval
}

func buildNode(s nodeSpec, t *tracer) (*nodeRig, error) {
	r := &nodeRig{spec: s, t: t, ticks: int(s.interval / time.Millisecond)}
	r.reg = metrics.NewRegistry()
	metrics.RegisterBuildInfo(r.reg, "powerd")
	r.journal = decisions.NewJournal(0)
	r.rec = flight.New(0)

	m, err := sim.New(s.chip, sim.WithMetrics(r.reg), sim.WithFlightRecorder(r.rec))
	if err != nil {
		return nil, err
	}
	r.m = m
	for c, p := range s.batch {
		if err := m.Pin(workload.NewInstance(p), c); err != nil {
			return nil, err
		}
	}
	if len(s.services) > 0 {
		if r.model, err = svc.NewModel(s.services...); err != nil {
			return nil, err
		}
		// The two hooks bracket the model's own tick hook, which Attach
		// registers between them.
		var tickStart int64
		if t != nil {
			m.OnTick(func(time.Duration) { tickStart = t.now() })
		}
		if err := r.model.Attach(m); err != nil {
			return nil, err
		}
		if t != nil {
			m.OnTick(func(time.Duration) { t.add(lySvcTick, -1, tickStart) })
		}
	}

	var pol core.Policy
	if len(s.targets) > 0 {
		pol, err = core.NewSLOFeedback(s.chip, s.specs, core.SLOConfig{Targets: s.targets})
	} else {
		pol, err = core.NewFrequencyShares(s.chip, s.specs, core.ShareConfig{})
	}
	if err != nil {
		return nil, err
	}
	r.led, err = ledger.New(ledger.Config{Chip: s.chip, Apps: s.specs, Metrics: r.reg, Flight: r.rec})
	if err != nil {
		return nil, err
	}

	dev := m.Device()
	var act daemon.Actuator = daemon.MachineActuator{M: m, Dev: dev}
	var slo daemon.SLOSource
	if r.model != nil {
		slo = r.model
	}
	if t != nil {
		r.dev = &tracedDevice{dev: dev, t: t}
		r.pol = &tracedPolicy{Policy: pol, t: t}
		r.act = &tracedActuator{act: act, t: t}
		dev, pol, act = r.dev, r.pol, r.act
		if slo != nil {
			slo = tracedSLO{src: slo, t: t}
		}
		e0 := r.rec.Total()
		if r.probe, err = newProbeSampler(m.Device(), s.chip); err != nil {
			return nil, err
		}
		r.probeEvents = r.rec.Total() - e0
	}
	dcfg := daemon.Config{
		Chip: s.chip, Policy: pol, Apps: s.specs, Limit: s.limit, Interval: s.interval,
		Metrics: r.reg, Journal: r.journal, Flight: r.rec, Ledger: r.led,
	}
	if slo != nil {
		dcfg.SLO = slo
		dcfg.SLOTargets = s.targets
	}
	if r.d, err = daemon.New(dcfg, dev, act); err != nil {
		return nil, err
	}
	if s.attach {
		err = r.d.AttachVirtual(m)
	} else {
		err = r.d.Start()
	}
	return r, err
}

// warm runs n untimed intervals and then forgets what the tracer and
// the wrappers saw of them, so per-layer numbers cover the timed
// region only.
func (r *nodeRig) warm(n int) {
	r.run(n, nil, nil, nil, nil)
	if r.t != nil {
		r.t.reset()
		r.dev.reads, r.dev.batches, r.pol.actions, r.act.calls = 0, 0, 0, 0
		r.probeN, r.probeT = 0, 0
	}
}

func newProbeSampler(dev msr.Device, chip platform.Chip) (*telemetry.Sampler, error) {
	s, err := telemetry.NewSampler(dev, chip.NumCores, chip.Freq.Nom, chip.PerCorePower)
	if err != nil {
		return nil, err
	}
	if err := s.SetSockets(chip.Sockets()); err != nil {
		return nil, err
	}
	return s, s.Prime()
}

// run drives n control intervals: the interval's ticks, then one
// RunIteration. iter and whole, when non-nil, receive the host
// milliseconds of the RunIteration alone and of the whole interval;
// after sees every snapshot.
func (r *nodeRig) run(n int, chk *checker, iter, whole *[]float64, after func(core.Snapshot)) {
	for i := 0; i < n; i++ {
		id := r.next
		r.next++
		t0 := time.Now()
		var s int64
		if r.t != nil {
			r.t.begin(id)
			s = r.t.now()
		}
		for k := 0; k < r.ticks; k++ {
			r.m.Step()
		}
		if r.t != nil {
			r.t.add(lyStepBlock, -1, s)
			s = r.t.now()
		}
		t1 := time.Now()
		snap, err := r.d.RunIteration(r.spec.interval)
		t2 := time.Now()
		if r.t != nil {
			r.t.add(lyInterval, -1, s)
		}
		if chk != nil {
			chk.attempted++
			chk.err(id, "RunIteration", err)
		}
		if iter != nil {
			*iter = append(*iter, float64(t2.Sub(t1))/1e6)
			*whole = append(*whole, float64(t2.Sub(t0))/1e6)
		}
		if after != nil && err == nil {
			after(snap)
		}
		if r.t != nil {
			e0, p0 := r.rec.Total(), time.Now()
			if _, err := r.probe.Sample(r.spec.interval); err == nil {
				r.probeT += time.Since(p0)
				r.probeN++
			}
			r.probeEvents += r.rec.Total() - e0
			r.t.end(false)
		}
	}
}

// counts adds the node's exact counts and simulated statistics to
// into: what must repeat for a seed, traced or not. Flight events are
// counted less the ones the traced run's probe sampler causes by
// reading the same device.
func (r *nodeRig) counts(into map[string]float64) {
	into["msr.reads"] += r.reg.Counter("telemetry_msr_reads_total", "").Value()
	into["flight.events"] += float64(r.rec.Total() - r.probeEvents)
	into["sim.clock_ms"] += float64(r.m.Now() / time.Millisecond)
	into["sim.package_uj"] += float64(r.led.Summarize().TotalUJ)
	if r.model != nil {
		for _, s := range r.model.Services() {
			into["svc.arrived"] += float64(s.Arrived())
			into["svc.completed"] += float64(s.Completed())
		}
	}
}

// heapStats is the allocation and GC state the benchmark differences
// around a timed region.
type heapStats struct {
	mallocs, gcs, pauseNS uint64
}

func readHeap() heapStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heapStats{mallocs: ms.Mallocs, gcs: uint64(ms.NumGC), pauseNS: ms.PauseTotalNs}
}

// liveHeapMB forces a collection and reports what stays in use.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

var batchNames = []string{"gcc", "cam4", "leela", "cactusBSSN"}

// batchSocket is the socket the large batch node is built from.
const batchSocket = 64

// nodeBatchSpec is the paper's loop at NUMA scale: a 2 × 64-core node,
// one batch app per core with its profile and shares drawn from the
// seed, frequency shares at 60 % of the RAPL maximum.
func nodeBatchSpec(seed int64) nodeSpec {
	chip := platform.MultiSocket(platform.ScaleSocket(platform.Skylake(), batchSocket), 2)
	rng := rand.New(rand.NewSource(seed))
	s := nodeSpec{
		chip: chip, batch: map[int]workload.Profile{},
		limit: chip.RAPLMax * 6 / 10, interval: 10 * time.Millisecond,
	}
	for c := 0; c < chip.NumCores; c++ {
		p := workload.MustByName(batchNames[rng.Intn(len(batchNames))])
		s.batch[c] = p
		s.specs = append(s.specs, core.AppSpec{
			Name: p.Name, Core: c, Shares: units.Shares(10 + rng.Intn(7)), AVX: p.AVX,
		})
	}
	return s
}

func coreRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for c := lo; c < hi; c++ {
		out = append(out, c)
	}
	return out
}

// nodeSLOSpec is a 32-core node serving two open-loop latency services
// beside a batch pool, under the SLO-feedback policy.
func nodeSLOSpec(seed int64) nodeSpec {
	const web, ads, cores = 16, 8, 32
	chip := platform.ScaleSocket(platform.Skylake(), cores)
	gcc := workload.MustByName("gcc")
	s := nodeSpec{
		chip: chip, batch: map[int]workload.Profile{},
		limit: chip.RAPLMax * 6 / 10, interval: 10 * time.Millisecond,
		services: []svc.Config{
			{
				Name: "websearch", Cores: coreRange(0, web), Seed: 2*seed + 1,
				Arrivals: svc.OpenPoisson, Rate: svc.ConstantRate(40 * web), SLO: 50 * time.Millisecond,
			},
			{
				Name: "ads", Cores: coreRange(web, web+ads), Seed: 2*seed + 2,
				Arrivals: svc.OpenPoisson, Rate: svc.ConstantRate(40 * ads), SLO: 30 * time.Millisecond,
			},
		},
		targets: []core.SLOTarget{
			{Service: "websearch", P99: 50 * time.Millisecond},
			{Service: "ads", P99: 30 * time.Millisecond},
		},
	}
	for c := 0; c < cores; c++ {
		switch {
		case c < web:
			s.specs = append(s.specs, core.AppSpec{Name: "websearch", Core: c, Shares: 50})
		case c < web+ads:
			s.specs = append(s.specs, core.AppSpec{Name: "ads", Core: c, Shares: 50})
		default:
			s.batch[c] = gcc
			s.specs = append(s.specs, core.AppSpec{Name: gcc.Name, Core: c, Shares: 30, AVX: gcc.AVX})
		}
	}
	return s
}

// The load of slo-step: a square wave between a trough and the SLO
// study's evening peak, so every period steps the load up and down.
const (
	sloStepPeriod = 120 * time.Second
	sloStepLow    = 0.5
	sloStepHigh   = 1.15
	sloStepSeeds  = 3
	sloStepWindow = 5 // load periods to a window of quietPercentile: half a second of the host's time
)

// sloStepSpec is the SLO study's validated machine — Ryzen, six
// websearch cores beside two cpuburn cores at 35 W, a 65 ms p99
// objective regulated at 0.85× — under the square-wave load, with
// arrivals drawn from arrivalSeed.
func sloStepSpec(arrivalSeed int64) nodeSpec {
	chip := platform.Ryzen()
	setpoint := time.Duration(float64(experiments.SLOStudyTarget) * experiments.SLOSetpointMargin)
	edge := sloStepPeriod / 2
	s := nodeSpec{
		chip: chip, batch: map[int]workload.Profile{},
		limit: experiments.SLOStudyLimit, interval: time.Second,
		services: []svc.Config{{
			Name: "websearch", Cores: coreRange(0, 6), Seed: arrivalSeed,
			Arrivals: svc.OpenPoisson,
			Rate: svc.RateSchedule{
				Base: experiments.SLOStudyBaseRate, Period: sloStepPeriod,
				Points: []svc.RatePoint{
					{At: 0, Mul: sloStepLow}, {At: edge - time.Millisecond, Mul: sloStepLow},
					{At: edge, Mul: sloStepHigh}, {At: sloStepPeriod - time.Millisecond, Mul: sloStepHigh},
				},
			},
			SLO: experiments.SLOStudyTarget, RecordAll: true,
		}},
		targets: []core.SLOTarget{{Service: "websearch", P99: setpoint}},
	}
	for c := 0; c < 6; c++ {
		s.specs = append(s.specs, core.AppSpec{
			Name: "websearch", Core: c, Shares: 50, HighPriority: true,
			BaselineIPS: svc.InteractiveProfile.IPS(chip.Freq.Ceiling(1, false)),
		})
	}
	for c := 6; c < 8; c++ {
		s.batch[c] = workload.CPUBurn
		s.specs = append(s.specs, core.AppSpec{
			Name: "cpuburn", Core: c, Shares: 50, AVX: true,
			BaselineIPS: workload.CPUBurn.IPS(chip.Freq.Ceiling(1, true)),
		})
	}
	return s
}

// nodeWarmup is how many control intervals fill caches and settle the
// policy before timing starts.
const nodeWarmup = 2000

// nodeWindow is how many control intervals make a window of
// quietPercentile on the node workloads: 20 to 40 ms of the host's time,
// short against the box's stretches, with one interval beyond its p99.
const nodeWindow = 100

// runNode measures node-batch or node-slo: ops control intervals on
// one node after the warm-up. The primary operation is RunIteration.
func runNode(name string, spec nodeSpec, ops, warmup int, cfg config, t *tracer, chk *checker) (*measurement, error) {
	mm := newMeasurement(name)
	mm.ops["intervals"] = ops
	mm.ops["warmup_intervals"] = warmup
	setup := func() (*nodeRig, error) {
		t0 := time.Now()
		r, err := buildNode(spec, t)
		if err != nil {
			return nil, err
		}
		r.warm(warmup)
		mm.setup = append(mm.setup, time.Since(t0).Seconds())
		return r, nil
	}
	var rig *nodeRig
	for i := 0; i < cfg.setupsBefore(); i++ {
		var err error
		if rig, err = setup(); err != nil {
			return nil, err
		}
	}

	iter := make([]float64, 0, ops)
	whole := make([]float64, 0, ops)
	base := map[string]float64{}
	rig.counts(base)
	h0 := readHeap()
	t0 := time.Now()
	rig.run(ops, chk, &iter, &whole, nil)
	elapsed := time.Since(t0)
	h1 := readHeap()

	mm.opMS, mm.tailPct, mm.window = iter, 99, nodeWindow
	mm.specific["live_heap_mb"] = liveHeapMB()
	mm.specific["sim_ms_per_s"] = float64(ops*rig.ticks) / elapsed.Seconds()
	mm.specific["allocs_per_op"] = float64(h1.mallocs-h0.mallocs) / float64(ops)
	chk.conservation(rig.next, rig.led.Summarize())
	rig.counts(mm.counts)
	if t != nil {
		nodeLayers(mm, []*nodeRig{rig}, base, h0, h1)
	}
	for len(mm.setup) < cfg.setups {
		if _, err := setup(); err != nil {
			return nil, err
		}
	}
	return mm, nil
}

// nodeLayers fills the per-layer metrics of a traced node run from the
// tracer the rigs share and the wrappers each rig owns. base holds the
// rigs' counts as they stood when timing began.
func nodeLayers(mm *measurement, rigs []*nodeRig, base map[string]float64, h0, h1 heapStats) {
	t := rigs[0].t
	n := int(t.cnt[lyInterval])
	ticks := n * rigs[0].ticks
	var reads, batches, actions, calls, probeN int64
	var probeT time.Duration
	for _, r := range rigs {
		reads += r.dev.reads
		batches += r.dev.batches
		actions += r.pol.actions
		calls += r.act.calls
		probeN += r.probeN
		probeT += r.probeT
	}
	per := func(total int64) float64 { return float64(total) / float64(n) }
	grew := func(key string) float64 { return mm.counts[key] - base[key] }

	mm.layers["sim.steps"] = float64(ticks)
	mm.layers["sim.step_us"] = float64(t.sum[lyStepBlock]-t.sum[lySvcTick]) / float64(ticks) / 1e3
	mm.layers["svc.tick_us"] = t.meanUS(lySvcTick)
	mm.layers["svc.arrived"] = grew("svc.arrived")
	mm.layers["svc.completed"] = grew("svc.completed")
	mm.layers["svc.telemetry_us"] = t.perUS(lySvcTelemetry, n)
	mm.layers["msr.read_us"] = t.perUS(lyMSRRead, n)
	mm.layers["msr.reads"] = per(reads)
	mm.layers["core.decide_us"] = t.perUS(lyDecide, n)
	mm.layers["core.actions"] = per(actions)
	mm.layers["daemon.actuate_us"] = t.perUS(lyActuate, n)
	mm.layers["daemon.actuations"] = per(calls)
	children := t.sum[lySvcTelemetry] + t.sum[lyMSRRead] + t.sum[lyDecide] + t.sum[lyActuate]
	mm.layers["daemon.self_us"] = float64(t.sum[lyInterval]-children) / float64(n) / 1e3
	mm.layers["flight.events"] = grew("flight.events") / float64(n)
	if probeN > 0 {
		mm.layers["telemetry.sample_us"] = float64(probeT) / float64(probeN) / 1e3
	}
	mm.layers["ledger.append_us"] = probeLedger(rigs[0].spec)
	mm.layers["flight.record_us"] = probeFlight()
	mm.layers["go.gc_cycles"] = float64(h1.gcs - h0.gcs)
	mm.layers["go.gc_pause_ms"] = float64(h1.pauseNS-h0.pauseNS) / 1e6

	mm.rootUS = t.perUS(lyInterval, n)
	mm.partsUS = float64(children)/float64(n)/1e3 + mm.layers["daemon.self_us"]
	mm.wrapper["intervals"] = float64(n)
	mm.wrapper["msr.reads"] = float64(reads)
	mm.wrapper["msr.batches"] = float64(batches)
}

const probeCalls = 2000

// probeLedger times Ledger.Append on an identical ledger fed a
// synthesized interval for the node's app set.
func probeLedger(s nodeSpec) float64 {
	led, err := ledger.New(ledger.Config{
		Chip: s.chip, Apps: s.specs, Metrics: metrics.NewRegistry(), Flight: flight.New(0),
	})
	if err != nil {
		return 0
	}
	sockets := s.chip.Sockets()
	in := ledger.Input{
		Dt: s.interval, Limit: s.limit, PackagePower: s.limit, PkgStatus: telemetry.StatusOK,
		SocketPower:  make([]units.Watts, sockets),
		SocketStatus: make([]telemetry.CoreStatus, sockets),
		Cores:        make([]telemetry.CoreSample, s.chip.NumCores),
	}
	for i := range in.SocketPower {
		in.SocketPower[i] = s.limit / units.Watts(sockets)
		in.SocketStatus[i] = telemetry.StatusOK
	}
	for c := range in.Cores {
		in.Cores[c] = telemetry.CoreSample{
			CPU: c, ActiveFreq: units.Hertz(2e9 + float64(c)*1e7), Status: telemetry.StatusOK,
		}
	}
	t0 := time.Now()
	for i := 0; i < probeCalls; i++ {
		in.At += in.Dt
		led.Append(in)
	}
	return float64(time.Since(t0)) / probeCalls / 1e3
}

// probeFlight times Recorder.Record on a recorder of the default size.
func probeFlight() float64 {
	rec := flight.New(0)
	ev := flight.Event{Kind: flight.KindActuate, Source: flight.SourceDaemon, Core: 3, Arg: flight.ActSetFreq, Value: 2e9}
	const calls = 100 * probeCalls
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		rec.Record(ev)
	}
	return float64(time.Since(t0)) / calls / 1e3
}

// runSLOStep measures slo-step: sloStepSeeds machines, each warmed for
// one load period and then measured for periods more. The primary
// operation is one whole load period — 120 simulated control seconds,
// each a thousand ticks and the RunIteration that closes it — because a
// control second costs the host twice as much in the loaded half of the
// period as in the idle half, and a median over seconds would sit on
// the edge between the two.
func runSLOStep(periods int, cfg config, t *tracer, chk *checker) (*measurement, error) {
	mm := newMeasurement("slo-step")
	rng := rand.New(rand.NewSource(cfg.seed))
	seeds := make([]int64, sloStepSeeds)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	warm := int(sloStepPeriod / time.Second)
	measured := periods * warm
	mm.ops["arrival_seeds"] = sloStepSeeds
	mm.ops["warmup_sim_s"] = warm
	mm.ops["measured_sim_s"] = measured

	setup := func() ([]*nodeRig, error) {
		t0 := time.Now()
		rigs := make([]*nodeRig, len(seeds))
		for j, as := range seeds {
			r, err := buildNode(sloStepSpec(as), t)
			if err != nil {
				return nil, err
			}
			r.warm(warm)
			r.model.Service("websearch").ResetStats()
			rigs[j] = r
		}
		mm.setup = append(mm.setup, time.Since(t0).Seconds())
		return rigs, nil
	}
	var rigs []*nodeRig
	for i := 0; i < cfg.setupsBefore(); i++ {
		var err error
		if rigs, err = setup(); err != nil {
			return nil, err
		}
	}

	objective := experiments.SLOStudyTarget.Seconds()
	var iter, whole, p99s []float64
	var misses, intervals int
	base := map[string]float64{}
	for _, r := range rigs {
		r.counts(base)
	}
	h0 := readHeap()
	t0 := time.Now()
	for i, r := range rigs {
		r.run(measured, chk, &iter, &whole, func(s core.Snapshot) {
			intervals++
			if len(s.Services) > 0 && s.Services[0].P99 > objective {
				misses++
			}
		})
		p99 := r.model.Service("websearch").LatencyPercentile(99) * 1e3
		p99s = append(p99s, p99)
		chk.conservation(r.next, r.led.Summarize())
		r.counts(mm.counts)
		mm.counts[fmt.Sprintf("seed%d.svc_p99_sim_ms", i)] = p99
	}
	elapsed := time.Since(t0)
	h1 := readHeap()

	ops := len(rigs) * measured
	for i := 0; i+warm <= len(whole); i += warm {
		var ms float64
		for _, x := range whole[i : i+warm] {
			ms += x
		}
		mm.opMS = append(mm.opMS, ms)
	}
	mm.tailPct, mm.window = 90, sloStepWindow
	mm.specific["live_heap_mb"] = liveHeapMB()
	mm.specific["sim_ms_per_s"] = float64(ops) * 1000 / elapsed.Seconds()
	mm.specific["svc_p99_sim_ms"] = median(p99s)
	mm.specific["slo_miss_share"] = float64(misses) / float64(intervals)
	mm.specific["allocs_per_op"] = float64(h1.mallocs-h0.mallocs) / float64(ops)
	mm.counts["slo_misses"] = float64(misses)
	if t != nil {
		nodeLayers(mm, rigs, base, h0, h1)
	}
	for len(mm.setup) < cfg.setups {
		if _, err := setup(); err != nil {
			return nil, err
		}
	}
	return mm, nil
}
