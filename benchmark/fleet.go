package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/hierarchy"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/powerapi"
	"repro/internal/tracing"
	"repro/internal/units"
	"repro/internal/workload"
)

// room is a built control plane — the flat fleet or the three-tier
// tree — behind the few calls the round driver needs.
type room struct {
	full     units.Watts                              // the budget at 100 %
	low      units.Watts                              // the budget a step shrinks to
	phase    int                                      // which round of every ten steps the budget
	advance  func()                                   // untimed work between rounds
	step     func(ctx context.Context) error          // one full round
	rows     func(ctx context.Context) error          // tree only: the row phase of a round
	root     func(ctx context.Context) error          // tree only: the building phase
	budget   func() units.Watts                       // the top coordinator's committed budget
	set      func(context.Context, units.Watts) error // SetBudget on the top coordinator
	capSum   func() units.Watts                       // Σ caps the leaves enforce
	grants   *atomic.Int64
	wire     *wireStats // traced
	closers  []func()
	requests int // status polls per round, for the skip ratio
}

func (rm *room) close() {
	for i := len(rm.closers) - 1; i >= 0; i-- {
		rm.closers[i]()
	}
}

// transport is what the coordinator side's HTTP clients share: the
// default transport's settings on a transport of the room's own, so
// closing the room drops its connections.
func (rm *room) transport() *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	rm.closers = append(rm.closers, tr.CloseIdleConnections)
	return tr
}

// httpNodeClient is one HTTPNode's client; traced, it gets a round
// tripper of its own around the shared transport.
func httpNodeClient(base *http.Transport, t *tracer, node int32, wire *wireStats) *http.Client {
	if t == nil {
		return &http.Client{Transport: base}
	}
	return &http.Client{Transport: &tracedRoundTripper{base: base, t: t, node: node, stats: wire}}
}

const (
	fleetNodes    = 64
	fleetNodeApps = 8
	fleetNodeCap  = 40 // watts per node at the full room budget
	fleetLow      = 0.80
	fleetFloor    = 0.60
	fleetAdvance  = 10 * time.Millisecond
	roundsPerStep = 10
)

// fleetNodeSpec is one full-stack fleet node: a Skylake socket running
// eight batch apps drawn from the seed, which want more power than the
// room can give, so every cap binds.
func fleetNodeSpec(rng *rand.Rand) nodeSpec {
	chip := platform.Skylake()
	s := nodeSpec{
		chip: chip, batch: map[int]workload.Profile{},
		limit: fleetNodeCap, interval: fleetAdvance, attach: true,
	}
	for c := 0; c < fleetNodeApps; c++ {
		p := workload.MustByName(batchNames[rng.Intn(len(batchNames))])
		s.batch[c] = p
		s.specs = append(s.specs, core.AppSpec{
			Name: p.Name, Core: c, Shares: units.Shares(10 + rng.Intn(7)), AVX: p.AVX,
		})
	}
	return s
}

// buildFleet assembles the flat room: nodes of them (64), each the whole powerd
// stack (machine, daemon, ledger, agent behind the obs mux) on a
// loopback listener, under one coordinator that polls them over HTTP
// with piggybacked metrics and rolls the fleet up every round.
func buildFleet(seed int64, nodes int, t *tracer) (*room, error) {
	rng := rand.New(rand.NewSource(seed))
	rm := &room{
		grants: new(atomic.Int64), full: units.Watts(fleetNodeCap * nodes), requests: nodes,
	}
	rm.low = rm.full * fleetLow
	if t != nil {
		rm.wire = &wireStats{}
	}
	ok := false
	defer func() {
		if !ok {
			rm.close()
		}
	}()
	base := rm.transport()
	rigs := make([]*nodeRig, nodes)
	ts := make([]cluster.Transport, nodes)
	for i := range rigs {
		name := fmt.Sprintf("n%03d", i)
		r, err := buildNode(fleetNodeSpec(rng), nil)
		if err != nil {
			return nil, err
		}
		r.m.Run(time.Second) // non-zero power, so the node bids
		tracer := tracing.New(name, 0)
		agent, err := powerapi.NewAgent(powerapi.AgentConfig{
			Name: name, Daemon: r.d, Fallback: fleetNodeCap, PolicyName: "frequency",
			Metrics: r.reg, Flight: r.rec, Tracer: tracer, Ledger: r.led,
		})
		if err != nil {
			return nil, err
		}
		rm.closers = append(rm.closers, agent.Close)
		h := agent.Handler()
		if t != nil {
			h = tracedHandler(h, t, int32(i))
		}
		srv := httptest.NewServer(obs.New(r.reg, r.journal, obs.DaemonStatusFunc(r.d),
			obs.WithLedger(r.led), obs.WithFlight(r.rec), obs.WithRounds(tracer),
			obs.WithHandler(powerapi.PathPrefix, h)).Handler())
		rm.closers = append(rm.closers, srv.Close)
		node := cluster.NewHTTPNode(name, srv.URL, "room").CollectMetrics().
			WithHTTPClient(httpNodeClient(base, t, int32(i), rm.wire))
		rigs[i] = r
		ts[i] = countedTransport{Transport: node, t: t, node: int32(i), grants: rm.grants}
	}
	c, err := cluster.NewOverTransports(ts, cluster.Config{
		Budget: rm.full, FloorBudget: rm.full * fleetFloor,
		LeaseTTL: time.Hour, Retries: -1, Fleet: cluster.NewFleet(rm.full, nil),
	})
	if err != nil {
		return nil, err
	}
	rm.phase = rng.Intn(roundsPerStep)
	rm.step = c.Step
	rm.set = c.SetBudget
	rm.budget = c.Budget
	rm.advance = func() {
		for _, r := range rigs {
			r.m.Run(fleetAdvance)
		}
	}
	rm.capSum = func() units.Watts {
		var sum units.Watts
		for _, r := range rigs {
			sum += r.d.Limit()
		}
		return sum
	}
	ok = true
	return rm, nil
}

const (
	treeLeaves  = 1024
	treeRows    = 32
	treeLeafCap = 30 // watts per leaf at the full building budget
	treeLow     = 0.75
)

// buildTree assembles the three-tier tree from the hierarchy package's
// own parts, as NewSimTree does, so the benchmark's transports sit
// between the tiers: in-process leaves under rows, rows under the
// building over loopback-HTTP uplinks with delta status. Leaf demands
// are drawn from the seed — 30 % to 90 % of the equal share — and then
// stay fixed. They sum to less than the shrunk budget, so no leaf is
// pressed against its cap, every bid is the leaf's own draw, and the
// plan comes to rest two rounds after a step: a converged round is
// status polls alone.
func buildTree(seed int64, leaves, rows int, t *tracer) (*room, error) {
	rng := rand.New(rand.NewSource(seed))
	rm := &room{
		grants: new(atomic.Int64), full: units.Watts(treeLeafCap * leaves), requests: leaves + rows,
	}
	rm.low = rm.full * treeLow
	if t != nil {
		rm.wire = &wireStats{}
	}
	ok := false
	defer func() {
		if !ok {
			rm.close()
		}
	}()

	// The fallback chain of NewSimTree: every tier's fallback cap is the
	// floor its parent promises it.
	const floorFraction = 0.5
	rowFallback := rm.full * floorFraction / units.Watts(rows)
	tree := &hierarchy.SimTree{}
	rm.closers = append(rm.closers, tree.Close)
	var id int16
	per := leaves / rows
	uplinks := make([]cluster.Transport, rows)
	base := rm.transport()
	for r := 0; r < rows; r++ {
		rowName := fmt.Sprintf("row%d", r)
		k := per
		if r < leaves%rows {
			k++
		}
		var rowLeaves []*hierarchy.Leaf
		ts := make([]cluster.Transport, k)
		for j := 0; j < k; j++ {
			id++
			demand := units.Watts(treeLeafCap * (0.3 + 0.6*rng.Float64()))
			leaf, err := hierarchy.NewLeaf(hierarchy.LeafConfig{
				Name: fmt.Sprintf("n%d", len(tree.Leaves)), NodeID: id,
				Max: 2 * treeLeafCap, Fallback: rowFallback * floorFraction / units.Watts(k),
				Demand: demand,
			})
			if err != nil {
				return nil, err
			}
			tree.Leaves = append(tree.Leaves, leaf)
			rowLeaves = append(rowLeaves, leaf)
			ts[j] = countedTransport{Transport: leaf.Transport(rowName), t: t, node: int32(id), grants: rm.grants}
		}
		tree.RowLeaves = append(tree.RowLeaves, rowLeaves)
		id++
		row, err := hierarchy.NewTier(hierarchy.TierConfig{
			Name: rowName, Level: "row", NodeID: id, StartAtFallback: true, Fallback: rowFallback,
			LeaseTTL: time.Hour, Retries: -1,
		}, ts)
		if err != nil {
			return nil, err
		}
		tree.Rows = append(tree.Rows, row)
		h := row.Agent().Handler()
		if t != nil {
			h = tracedHandler(h, t, int32(id))
		}
		srv := httptest.NewServer(h)
		rm.closers = append(rm.closers, srv.Close)
		up := cluster.NewHTTPNode(rowName, srv.URL, "building").DeltaStatus().
			WithHTTPClient(httpNodeClient(base, t, int32(id), rm.wire))
		uplinks[r] = countedTransport{Transport: up, t: t, node: int32(id), grants: rm.grants}
	}
	id++
	root, err := hierarchy.NewTier(hierarchy.TierConfig{
		Name: "building", Level: "building", NodeID: id, Budget: rm.full, Fallback: rm.full,
		LeaseTTL: time.Hour, Retries: -1,
	}, uplinks)
	if err != nil {
		return nil, err
	}
	tree.Root = root

	rm.phase = rng.Intn(roundsPerStep)
	rm.rows, rm.root, rm.step = tree.StepRows, tree.StepRoot, tree.Step
	rm.set = root.SetBudget
	rm.budget = func() units.Watts { return root.Coordinator().Budget() }
	rm.capSum = tree.TotalLeafCaps
	rm.advance = func() {}
	ok = true
	return rm, nil
}

// roomWarmup is how many rounds grant every lease and settle the plan
// before timing starts.
const roomWarmup = 20

// roomWindow is how many budget cycles make a window of quietPercentile:
// forty rounds, half a second or so of the host's time. stepWindow is
// how many budget steps of one direction do: a hundred rounds.
const (
	roomWindow = 4
	stepWindow = 5
)

// settleRounds follow every budget step and are left out of the
// converged-round timing.
const settleRounds = 4

// cycleMeans averages the converged rounds of each budget cycle: the
// roundsPerStep - settleRounds rounds between one step's settling and the
// next step. On one processor every second or third round of the tree
// carries a collection cycle and costs half as much again, so a median
// over single rounds falls now among the rounds with one, now among
// those without (11 % between the quartiles of ten runs); a cycle's mean
// holds its share of both (4 %).
func cycleMeans(roundMS []float64) []float64 {
	const n = roundsPerStep - settleRounds
	var out []float64
	for i := 0; i+n <= len(roundMS); i += n {
		var sum float64
		for _, ms := range roundMS[i : i+n] {
			sum += ms
		}
		out = append(out, sum/n)
	}
	return out
}

// roomRun is what driving a room yields.
type roomRun struct {
	roundMS    []float64 // converged rounds
	shrinkMS   []float64
	growMS     []float64
	growRounds []float64
}

// round runs one timed round. Traced, the tree's two phases are timed
// apart; they are what SimTree.Step does in one call.
func (rm *room) round(ctx context.Context, id int, t *tracer, chk *checker, converged bool) float64 {
	rm.advance()
	var err error
	var s int64
	if t != nil {
		t.begin(id)
		s = t.now()
	}
	t0 := time.Now()
	if t != nil && rm.rows != nil {
		err = rm.rows(ctx)
		t.add(lyRowsPhase, -1, s)
		if err == nil {
			mid := t.now()
			err = rm.root(ctx)
			t.add(lyRootPhase, -1, mid)
		}
	} else {
		err = rm.step(ctx)
	}
	ms := float64(time.Since(t0)) / 1e6
	if t != nil {
		t.add(lyRound, -1, s)
		t.end(converged)
	}
	chk.attempted++
	chk.err(id, "round", err)
	chk.caps(id, rm.capSum(), rm.budget())
	return ms
}

// drive runs rounds rounds, stepping the budget before one round in
// every ten: down to low, then back up, alternately. A shrink is timed
// from the SetBudget call until the leaves' caps fit under the new
// budget (SetBudget returns only then, unless a child refused); a grow
// from the call until the caps have taken up 99 % of it, which takes
// rounds.
func (rm *room) drive(ctx context.Context, rounds int, t *tracer, chk *checker) *roomRun {
	run := &roomRun{}
	id := 0
	settle := 0
	shrunk := false
	for r := 0; r < rounds; r++ {
		if r%roundsPerStep == rm.phase {
			id++
			target := rm.low
			if shrunk {
				target = rm.full
			}
			var s int64
			if t != nil {
				t.begin(id)
				s = t.now()
			}
			t0 := time.Now()
			err := rm.set(ctx, target)
			ms := float64(time.Since(t0)) / 1e6
			if t != nil {
				t.add(lyBudget, -1, s)
				t.end(false)
			}
			chk.attempted++
			chk.err(id, "SetBudget", err)
			done := func() bool {
				if shrunk {
					return rm.capSum() >= target*0.99
				}
				return rm.capSum() <= target+capSlack
			}
			k := 0
			for !done() && k < maxStepRounds {
				id++
				k++
				ms += rm.round(ctx, id, t, chk, false)
			}
			if !done() {
				chk.fail(failUnenforced, id, "caps sum to %.1f W %d rounds after the budget went to %.1f W",
					float64(rm.capSum()), k, float64(target))
			}
			if shrunk {
				run.growMS = append(run.growMS, ms)
				run.growRounds = append(run.growRounds, float64(k))
			} else {
				run.shrinkMS = append(run.shrinkMS, ms)
			}
			shrunk = !shrunk
			settle = settleRounds
		}
		id++
		converged := settle == 0
		ms := rm.round(ctx, id, t, chk, converged)
		if converged {
			run.roundMS = append(run.roundMS, ms)
		} else {
			settle--
		}
	}
	return run
}

// runRoom measures fleet-http or tree-1024.
func runRoom(name string, build func(*tracer) (*room, error), rounds int, cfg config, t *tracer, chk *checker) (*measurement, error) {
	mm := newMeasurement(name)
	mm.ops["rounds"] = rounds
	mm.ops["warmup_rounds"] = roomWarmup
	ctx := context.Background()
	setup := func() (*room, error) {
		t0 := time.Now()
		rm, err := build(t)
		if err != nil {
			return nil, err
		}
		for r := 0; r < roomWarmup; r++ {
			rm.advance()
			if err := rm.step(ctx); err != nil {
				rm.close()
				return nil, fmt.Errorf("%s warm-up round %d: %w", name, r, err)
			}
		}
		mm.setup = append(mm.setup, time.Since(t0).Seconds())
		return rm, nil
	}
	var rm *room
	for i := 0; i < cfg.setupsBefore(); i++ {
		if rm != nil {
			rm.close()
		}
		var err error
		if rm, err = setup(); err != nil {
			return nil, err
		}
	}
	if t != nil {
		t.reset()
		*rm.wire = wireStats{}
	}
	grants0 := rm.grants.Load()

	h0 := readHeap()
	run := rm.drive(ctx, rounds, t, chk)
	h1 := readHeap()

	steps := len(run.shrinkMS) + len(run.growMS)
	mm.ops["budget_steps"] = steps
	mm.ops["converged_rounds"] = len(run.roundMS)
	mm.opMS, mm.tailPct, mm.window = cycleMeans(run.roundMS), 90, roomWindow
	mm.specific["live_heap_mb"] = liveHeapMB()
	mm.specific["budget_shrink_ms_p50"] = quietPercentile(run.shrinkMS, 50, stepWindow)
	mm.specific["budget_shrink_ms_p90"] = quietPercentile(run.shrinkMS, 90, stepWindow)
	mm.specific["budget_grow_ms_p50"] = quietPercentile(run.growMS, 50, stepWindow)
	mm.samples["budget_shrink_ms_p50"] = len(run.shrinkMS)
	mm.samples["budget_shrink_ms_p90"] = len(run.shrinkMS)
	mm.samples["budget_grow_ms_p50"] = len(run.growMS)
	mm.specific["allocs_per_op"] = float64(h1.mallocs-h0.mallocs) / float64(chk.attempted)
	grants := float64(rm.grants.Load() - grants0)
	var growRounds float64
	for _, k := range run.growRounds {
		growRounds += k
	}
	mm.counts["cluster.grants"] = grants
	mm.counts["hierarchy.grow_rounds"] = growRounds
	mm.counts["budget_steps"] = float64(steps)
	mm.counts["cap_sum_mw"] = float64(int64(rm.capSum() * 1000))

	if t != nil {
		roundsRun := float64(t.cnt[lyRound])
		mm.layers["cluster.report_us"] = t.meanUS(lyReport)
		mm.layers["cluster.grant_us"] = t.meanUS(lyGrant)
		mm.layers["cluster.grants"] = grants
		mm.layers["cluster.grant_skip_ratio"] = 1 - grants/(float64(rm.requests)*(roundsRun+float64(steps)))
		mm.layers["powerapi.agent_handle_us"] = t.meanUS(lyHandler)
		mm.layers["cluster.transport_us"] = t.meanUS(lyHTTP) - t.meanUS(lyHandler)
		if t.rounds > 0 {
			n := float64(t.rounds) * 1e3
			mm.layers["cluster.report_max_us"] = float64(t.reportMax) / n
			mm.layers["cluster.round_self_us"] = float64(t.roundSelf) / n
			mm.layers["cluster.fanout_wall_us"] = float64(t.fanoutWall) / n
			mm.rootUS = float64(t.roundSelf+t.fanoutWall) / n
			mm.partsUS = mm.layers["cluster.round_self_us"] + mm.layers["cluster.fanout_wall_us"]
		}
		mm.layers["hierarchy.rows_phase_us"] = t.meanUS(lyRowsPhase)
		mm.layers["hierarchy.root_phase_us"] = t.meanUS(lyRootPhase)
		if len(run.growRounds) > 0 {
			mm.layers["hierarchy.grow_rounds"] = growRounds / float64(len(run.growRounds))
		}
		w := rm.wire
		w.mu.Lock()
		mm.layers["powerapi.requests"] = float64(w.requests) / roundsRun
		if w.statusN > 0 {
			mm.layers["powerapi.status_bytes"] = float64(w.statusBytes) / float64(w.statusN)
		}
		if w.grantN > 0 {
			mm.layers["powerapi.grant_bytes"] = float64(w.grantBytes) / float64(w.grantN)
		}
		mm.layers["powerapi.encode_us"], mm.layers["powerapi.decode_us"] = probeCodec(w.statuses, w.grants)
		w.mu.Unlock()
		mm.layers["go.gc_cycles"] = float64(h1.gcs - h0.gcs)
		mm.layers["go.gc_pause_ms"] = float64(h1.pauseNS-h0.pauseNS) / 1e6
	}
	rm.close()
	for len(mm.setup) < cfg.setups {
		extra, err := setup()
		if err != nil {
			return nil, err
		}
		extra.close()
	}
	return mm, nil
}

// probeCodec times powerapi.Unmarshal and powerapi.Marshal on the
// envelopes the round tripper captured off the wire: mean host
// microseconds to encode and to decode one.
func probeCodec(statuses, grants [][]byte) (encodeUS, decodeUS float64) {
	envelopes := append(append([][]byte(nil), statuses...), grants...)
	if len(envelopes) == 0 {
		return 0, 0
	}
	const laps = 50
	msgs := make([]any, 0, len(envelopes))
	t0 := time.Now()
	for lap := 0; lap < laps; lap++ {
		msgs = msgs[:0]
		for _, e := range envelopes {
			if _, msg, err := powerapi.Unmarshal(e); err == nil {
				msgs = append(msgs, msg)
			}
		}
	}
	decode := time.Since(t0)
	if len(msgs) == 0 {
		return 0, 0
	}
	t0 = time.Now()
	for lap := 0; lap < laps; lap++ {
		for _, m := range msgs {
			_, _ = powerapi.Marshal(m) // the message decoded from a valid envelope encodes
		}
	}
	encode := time.Since(t0)
	n := float64(laps * len(msgs))
	return float64(encode) / n / 1e3, float64(decode) / n / 1e3
}
