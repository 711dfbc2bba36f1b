package hierarchy

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/flight"
	"repro/internal/units"
)

// roundTick is how far the virtual clock moves between rounds.
const roundTick = 2 * time.Millisecond

// faultTransport wraps a child transport with schedule-driven fault
// injection at the control-plane level, reusing the fault package's
// schedule/window machinery with the transport's global index standing
// in for the CPU. The classes translate as:
//
//	eio     → requests dropped with probability Prob
//	stuck   → reports answered from a stale cache (lying telemetry)
//	torn    → grant waves dropped while reports still flow
//	latency → Delay added to every request
//	thermal → the reported absorbable max collapses to half
//	rapl    → the reported power draw collapses to half
//	offline → full partition: every request fails
//
// Requests are dropped before reaching the node — partition semantics —
// so a dropped grant is never applied-but-unacknowledged; modelling
// lost acks would need grant-side idempotency tokens the protocol does
// not promise.
type faultTransport struct {
	inner cluster.Transport
	idx   int
	sched fault.Schedule
	clock func() time.Duration

	mu   sync.Mutex
	rng  *rand.Rand
	last cluster.Report
	have bool
}

func (f *faultTransport) Name() string { return f.inner.Name() }

// Local is false whatever the inner transport says: an injected delay
// blocks, and a blocked report must not hold up its siblings.
func (f *faultTransport) Local() bool { return false }

// TestFaultTransportNotLocal: the in-process transport it wraps is Local,
// the fault injector in front of it must not be.
func TestFaultTransportNotLocal(t *testing.T) {
	leaf, err := NewLeaf(LeafConfig{Name: "n0", Max: 100, Fallback: 25})
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()
	inner := leaf.Transport("row")
	if !inner.Local() {
		t.Error("AgentTransport must be Local: its report is an in-process status snapshot")
	}
	if (&faultTransport{inner: inner}).Local() {
		t.Error("faultTransport must not be Local: injected latency blocks")
	}
}

func (f *faultTransport) active(class fault.Class) (fault.Entry, bool) {
	now := f.clock()
	for _, e := range f.sched {
		if e.Class == class && e.Active(now) && e.Matches(f.idx, 0) {
			return e, true
		}
	}
	return fault.Entry{}, false
}

func (f *faultTransport) roll(p float64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Float64() < p
}

func (f *faultTransport) delay(ctx context.Context) error {
	if e, ok := f.active(fault.ClassLatency); ok && e.Delay > 0 {
		select {
		case <-time.After(e.Delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

func (f *faultTransport) dropped() error {
	if _, ok := f.active(fault.ClassOffline); ok {
		return fmt.Errorf("%s offline: %w", f.inner.Name(), fault.ErrInjected)
	}
	if e, ok := f.active(fault.ClassEIO); ok && f.roll(e.Prob) {
		return fmt.Errorf("%s flaky: %w", f.inner.Name(), fault.ErrInjected)
	}
	return nil
}

func (f *faultTransport) Report(ctx context.Context) (cluster.Report, error) {
	if err := f.delay(ctx); err != nil {
		return cluster.Report{}, err
	}
	if err := f.dropped(); err != nil {
		return cluster.Report{}, err
	}
	if _, ok := f.active(fault.ClassStuck); ok {
		f.mu.Lock()
		last, have := f.last, f.have
		f.mu.Unlock()
		if have {
			return last, nil
		}
	}
	r, err := f.inner.Report(ctx)
	if err != nil {
		return r, err
	}
	if _, ok := f.active(fault.ClassThermal); ok {
		r.Max /= 2
	}
	if _, ok := f.active(fault.ClassRAPL); ok {
		r.Power /= 2
	}
	f.mu.Lock()
	f.last, f.have = r, true
	f.mu.Unlock()
	return r, nil
}

func (f *faultTransport) Grant(ctx context.Context, g cluster.Grant) error {
	if err := f.delay(ctx); err != nil {
		return err
	}
	if err := f.dropped(); err != nil {
		return err
	}
	if _, ok := f.active(fault.ClassTorn); ok {
		return fmt.Errorf("%s torn wave: %w", f.inner.Name(), fault.ErrInjected)
	}
	return f.inner.Grant(ctx, g)
}

// faultTree is a randomized 2- or 3-tier tree whose every transport is
// fault-wrapped, with the bookkeeping the conservation replay needs.
type faultTree struct {
	root   *Tier
	rows   []*Tier
	leaves []*Leaf

	budget units.Watts
	// bounds holds each agent's starting enforced cap (its fallback);
	// the root's entry is the building budget, which nothing leases.
	bounds map[int16]units.Watts
	// childOf maps each coordinator's node ID to its children's IDs.
	childOf map[int16][]int16
	rootID  int16

	// uplinkIdx maps row position to the global transport index of its
	// uplink, for aiming kill windows.
	uplinkIdx []int

	// wrappers are every fault wrapper in the tree, by transport index.
	wrappers []*faultTransport
}

func (ft *faultTree) close() {
	if ft.root != nil {
		ft.root.Close()
	}
	for _, r := range ft.rows {
		r.Close()
	}
	for _, l := range ft.leaves {
		l.Close()
	}
}

// buildFaultTree assembles the tree: 3-tier (building→rows→leaves) or
// 2-tier (building→leaves) with every transport wrapped in the same
// global fault schedule, every tier and leaf on the virtual clock vc.
func buildFaultTree(t *testing.T, rng *rand.Rand, rec *flight.Recorder, vc *clock.Virtual, sched fault.Schedule, threeTier bool, ttl time.Duration) *faultTree {
	t.Helper()
	rows := 2 + rng.Intn(3)
	perRow := 2 + rng.Intn(4)
	nLeaves := rows * perRow
	if !threeTier {
		nLeaves = 3 + rng.Intn(6)
	}
	budget := units.Watts(100 * nLeaves)

	ft := &faultTree{
		budget:  budget,
		bounds:  make(map[int16]units.Watts),
		childOf: make(map[int16][]int16),
	}
	nodeID := int16(0)
	nextID := func() int16 { nodeID++; return nodeID }
	txIdx := 0
	wrap := func(tr cluster.Transport) cluster.Transport {
		w := &faultTransport{inner: tr, idx: txIdx, sched: sched, clock: func() time.Duration { return since(vc) },
			rng: rand.New(rand.NewSource(rng.Int63()))}
		txIdx++
		ft.wrappers = append(ft.wrappers, w)
		return w
	}
	newLeaf := func(name string, fallback units.Watts) (*Leaf, int16) {
		id := nextID()
		leaf, err := NewLeaf(LeafConfig{
			Name: name, NodeID: id, Max: 200, Fallback: fallback,
			Demand: units.Watts(40 + rng.Float64()*120), Flight: rec, Clock: vc,
		})
		if err != nil {
			t.Fatal(err)
		}
		ft.leaves = append(ft.leaves, leaf)
		ft.bounds[id] = fallback
		return leaf, id
	}

	tcfg := func(name, level string, id int16, fb units.Watts, atFB bool) TierConfig {
		return TierConfig{
			Name: name, Level: level, NodeID: id,
			Budget: budget, StartAtFallback: atFB, Fallback: fb,
			Interval: 5 * time.Millisecond, LeaseTTL: ttl,
			NodeTimeout: time.Second, Flight: rec, Clock: vc,
		}
	}

	if !threeTier {
		leafFallback := budget * floorFraction / units.Watts(nLeaves)
		ts := make([]cluster.Transport, 0, nLeaves)
		var kids []int16
		for i := 0; i < nLeaves; i++ {
			leaf, id := newLeaf(fmt.Sprintf("n%d", i), leafFallback)
			kids = append(kids, id)
			ts = append(ts, wrap(leaf.Transport("building")))
		}
		ft.rootID = nextID()
		ft.bounds[ft.rootID] = budget
		ft.childOf[ft.rootID] = kids
		root, err := NewTier(tcfg("building", "building", ft.rootID, budget, false), ts)
		if err != nil {
			t.Fatal(err)
		}
		ft.root = root
		return ft
	}

	rowFallback := budget * floorFraction / units.Watts(rows)
	leafFallback := rowFallback * floorFraction / units.Watts(perRow)
	rowIDs := make([]int16, rows)
	rowKids := make([][]int16, rows)
	rowTs := make([][]cluster.Transport, rows)
	li := 0
	for r := 0; r < rows; r++ {
		for j := 0; j < perRow; j++ {
			leaf, id := newLeaf(fmt.Sprintf("n%d", li), leafFallback)
			li++
			rowKids[r] = append(rowKids[r], id)
			rowTs[r] = append(rowTs[r], wrap(leaf.Transport(fmt.Sprintf("row%d", r))))
		}
	}
	uplinks := make([]cluster.Transport, rows)
	var kids []int16
	for r := 0; r < rows; r++ {
		id := nextID()
		rowIDs[r] = id
		ft.bounds[id] = rowFallback
		ft.childOf[id] = rowKids[r]
		kids = append(kids, id)
		row, err := NewTier(tcfg(fmt.Sprintf("row%d", r), "row", id, rowFallback, true), rowTs[r])
		if err != nil {
			t.Fatal(err)
		}
		ft.rows = append(ft.rows, row)
		ft.uplinkIdx = append(ft.uplinkIdx, txIdx)
		uplinks[r] = wrap(row.Transport("building"))
	}
	ft.rootID = nextID()
	ft.bounds[ft.rootID] = budget
	ft.childOf[ft.rootID] = kids
	root, err := NewTier(tcfg("building", "building", ft.rootID, budget, false), uplinks)
	if err != nil {
		t.Fatal(err)
	}
	ft.root = root
	return ft
}

// capPoint is one value in a node's enforced-cap history: val held
// from time from until the next point.
type capPoint struct {
	val  float64 // µW
	from time.Duration
}

// checkTierConservation replays the shared flight recorder's lease
// events, stamped from the tree's one virtual clock, and asserts, at every
// event, two things per tier.
//
// First, the assumable caps of the tier's children sum within a cap
// the tier itself was held to within the last child-lease TTL. A
// child's assumable cap is what it enforces while its lease is live,
// and its fallback once the lease deadline passes — because from that
// instant the parent is entitled to re-grant the difference without
// coordination while the child's own timer races to revert it. Both
// windows are the protocol's actual promise, not fudge factors: a tier
// that reverts to fallback cannot revoke leases granted under the old
// budget, only let them lapse (hence the tier-cap history window), and
// an expired child reverts itself a timer-fire after its parent wrote
// it off (hence the assumable cap). What no fault interleaving may
// ever produce is live leases summing past every budget the tier was
// recently held to.
//
// Second, the lapse actually happens: once a deadline has passed, the
// child's ENFORCED cap must have come down to its fallback — the "rows
// within one TTL, leaves within two" cascade, checked from the replay
// rather than the end state.
func checkTierConservation(t *testing.T, events []flight.Event, ft *faultTree, childTTL time.Duration) {
	t.Helper()
	sort.Slice(events, func(i, j int) bool { return events[i].Seq < events[j].Seq })
	caps := make(map[int16]float64, len(ft.bounds))
	deadline := make(map[int16]time.Duration, len(ft.bounds))
	hist := make(map[int16][]capPoint, len(ft.bounds))
	for id, fb := range ft.bounds {
		caps[id] = float64(fb) * 1e6 // µW, matching flight lease values
		hist[id] = []capPoint{{val: caps[id]}}
	}
	// bound is the largest cap the tier was held to over [w-grace, w].
	grace := childTTL
	bound := func(tier int16, w time.Duration) float64 {
		h := hist[tier]
		max := 0.0
		for i, p := range h {
			until := w
			if i+1 < len(h) {
				until = h[i+1].from
			}
			if until >= w-grace && p.val > max {
				max = p.val
			}
		}
		return max
	}
	assumable := func(id int16, w time.Duration) float64 {
		if d, ok := deadline[id]; ok && w <= d {
			return caps[id]
		}
		if fb := float64(ft.bounds[id]) * 1e6; caps[id] > fb {
			return fb
		}
		return caps[id]
	}
	for _, e := range events {
		if e.Kind != flight.KindLease || e.Core < 1 {
			continue
		}
		switch e.Arg {
		case flight.LeaseGrant, flight.LeaseRenew:
			caps[e.Core] = float64(e.Value)
			deadline[e.Core] = e.Time + time.Duration(e.Aux)
			hist[e.Core] = append(hist[e.Core], capPoint{val: float64(e.Value), from: e.Time})
		case flight.LeaseFallback:
			caps[e.Core] = float64(e.Value)
			delete(deadline, e.Core)
			hist[e.Core] = append(hist[e.Core], capPoint{val: float64(e.Value), from: e.Time})
		}
		for id, d := range deadline {
			if e.Time > d && caps[id] > float64(ft.bounds[id])*1e6*1.000001 {
				t.Fatalf("at seq %d: node %d still enforces %.1f W, %v past its lease deadline (fallback %.1f W)",
					e.Seq, id, caps[id]/1e6, e.Time-d, float64(ft.bounds[id]))
			}
		}
		for tierID, kids := range ft.childOf {
			var sum float64
			for _, k := range kids {
				sum += assumable(k, e.Time)
			}
			if b := bound(tierID, e.Time); sum > b*1.000001 {
				t.Fatalf("after seq %d (%s node %d): tier %d children assumably hold %.1f W > every cap (max %.1f W) the tier held in the last %v",
					e.Seq, flight.LeaseName(e.Arg), e.Core, tierID, sum/1e6, b/1e6, grace)
			}
		}
	}
}

// TestTierConservationUnderFaults is the hierarchy's property test:
// randomized 2–3 tier trees driven under schedules covering all seven
// fault classes plus killed mid-tier coordinators must never let any
// tier's children out-hold the cap the tier itself is held to —
// verified from the replayed flight events, not the happy-path state.
func TestTierConservationUnderFaults(t *testing.T) {
	const rounds = 40
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			threeTier := seed%2 == 1
			vc, rec := virtualRun(1 << 16)

			// One window of every fault class at a random time aimed at a
			// random transport (or everyone), so each run exercises the
			// full class alphabet.
			var sched fault.Schedule
			for class := fault.ClassEIO; class <= fault.ClassOffline; class++ {
				target := rng.Intn(24)
				if rng.Intn(10) == 0 {
					target = -1
				}
				sched = append(sched, fault.Entry{
					At:    time.Duration(rng.Intn(rounds-10)) * roundTick,
					For:   time.Duration(2+rng.Intn(10)) * roundTick,
					Class: class,
					CPU:   target,
					Prob:  0.4 + 0.5*rng.Float64(),
					Delay: 2 * time.Millisecond,
				})
			}

			ttl := 20 * time.Millisecond
			ft := buildFaultTree(t, rng, rec, vc, sched, threeTier, ttl)
			defer ft.close()

			// A killed mid-tier coordinator: one row stops stepping and
			// its uplink partitions for a window of rounds.
			killRow, killFrom, killTo := -1, 0, 0
			if threeTier && len(ft.rows) > 0 {
				killRow = rng.Intn(len(ft.rows))
				killFrom = 10 + rng.Intn(10)
				killTo = killFrom + 8 + rng.Intn(8)
				sched = append(sched, fault.Entry{
					At:    time.Duration(killFrom) * roundTick,
					For:   time.Duration(killTo-killFrom) * roundTick,
					Class: fault.ClassOffline,
					CPU:   ft.uplinkIdx[killRow],
				})
				// The wrappers share the schedule slice header; rebuild
				// their view to include the kill window.
				refreshSchedules(ft, sched)
			}

			ctx := context.Background()
			for round := 0; round < rounds; round++ {
				if round > 0 {
					vc.Advance(roundTick)
				}
				for r, row := range ft.rows {
					if r == killRow && round >= killFrom && round < killTo {
						continue
					}
					if err := row.Step(ctx); err != nil {
						t.Fatalf("round %d row %d: %v", round, r, err)
					}
				}
				if err := ft.root.Step(ctx); err != nil {
					t.Fatalf("round %d root: %v", round, err)
				}
			}

			// The tree still coordinated every round despite the faults.
			if got := ft.root.Coordinator().Rounds(); got != rounds {
				t.Errorf("root coordinated %d rounds, want %d", got, rounds)
			}
			// End state: the leaves' enforced caps fit the building budget.
			var sum units.Watts
			for _, l := range ft.leaves {
				sum += l.Limit()
			}
			if float64(sum) > float64(ft.budget)+slack {
				t.Errorf("leaf caps %v exceed budget %v at end of run", sum, ft.budget)
			}
			checkTierConservation(t, rec.Dump("fault-run").Events, ft, ttl)
		})
	}
}

// refreshSchedules swaps the schedule every fault wrapper consults —
// needed when windows are appended after the tree was wired.
func refreshSchedules(ft *faultTree, sched fault.Schedule) {
	for _, f := range ft.wrappers {
		f.sched = sched
	}
}
