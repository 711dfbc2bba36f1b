package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/powerapi"
	"repro/internal/units"
)

// scriptedReport is one report of a lendingTransport's script: a failed
// call, a report without a frame (status nil), or a report lending status.
type scriptedReport struct {
	fail   bool
	status *powerapi.NodeStatus
}

// lendingTransport replays a script, lending every frame through the same
// NodeStatus and TierStatus, overwritten in place by the next Report —
// what Report.Status allows and an in-process agent transport does.
type lendingTransport struct {
	name   string
	script []scriptedReport
	next   int
	frame  powerapi.NodeStatus
	tier   powerapi.TierStatus
}

func (l *lendingTransport) Name() string                       { return l.name }
func (l *lendingTransport) Local() bool                        { return true }
func (l *lendingTransport) Grant(context.Context, Grant) error { return nil }

func (l *lendingTransport) Report(context.Context) (Report, error) {
	s := l.script[l.next%len(l.script)]
	l.next++
	if s.fail {
		return Report{}, errors.New("scripted failure")
	}
	if s.status == nil {
		return Report{Power: 10, Limit: 20, Max: 30}, nil
	}
	l.frame = *s.status
	if s.status.Tier != nil {
		l.tier = *s.status.Tier
		l.frame.Tier = &l.tier
	}
	st := &l.frame
	return Report{
		Power:  units.Watts(st.PowerWatts),
		Limit:  units.Watts(st.LimitWatts),
		Max:    units.Watts(st.MaxWatts),
		Status: st,
	}, nil
}

// aggregateFromFrames is Aggregate as the coordinator derived it while it
// kept every node's last frame whole: frames[i] is node i's last non-nil
// status from a good report. It is the reference Aggregate is held to.
func aggregateFromFrames(c *Coordinator, frames []*powerapi.NodeStatus) Aggregate {
	c.mu.Lock()
	defer c.mu.Unlock()
	agg := Aggregate{Children: len(c.ts), Depth: 1}
	for i := range c.ts {
		agg.Power += c.lastPower[i]
		agg.Max += c.lastMax[i]
		if c.quar[i] {
			agg.Quarantined++
		}
		if c.lastMax[i] > 0 {
			agg.Reporting++
		}
		leaves := 1
		if st := frames[i]; st != nil {
			if st.Tier != nil {
				leaves = st.Tier.Nodes
				if d := st.Tier.Depth + 1; d > agg.Depth {
					agg.Depth = d
				}
			}
			if st.Energy != nil {
				if agg.Energy == nil {
					agg.Energy = &powerapi.EnergyStatus{}
				}
				agg.Energy.Accumulate(st.Energy)
			}
		}
		agg.Leaves += leaves
	}
	return agg
}

// Frames a script is built from.
func leafFrame(power float64) *powerapi.NodeStatus {
	return &powerapi.NodeStatus{Policy: "sim-leaf", PowerWatts: power, LimitWatts: 50, MaxWatts: 80}
}

func tierFrame(nodes, depth int) *powerapi.NodeStatus {
	st := leafFrame(40)
	st.Tier = &powerapi.TierStatus{Tier: "row", Children: nodes, Nodes: nodes, Depth: depth}
	return st
}

func energyFrame(uj uint64, app string) *powerapi.NodeStatus {
	st := leafFrame(30)
	st.Energy = &powerapi.EnergyStatus{
		ElapsedSeconds: float64(uj) / 1e6, Intervals: 3, TotalUJ: uj, TotalJoules: float64(uj) / 1e6,
		Apps:      []powerapi.AppEnergy{{Name: app, Core: 1, TotalUJ: uj, Joules: float64(uj) / 1e6}},
		Anomalies: map[string]uint64{"spike": 1},
	}
	return st
}

// randomScript draws a script over every kind of report.
func randomScript(rng *rand.Rand, n int) []scriptedReport {
	out := make([]scriptedReport, n)
	for i := range out {
		switch rng.Intn(6) {
		case 0:
			out[i] = scriptedReport{fail: true}
		case 1:
			out[i] = scriptedReport{}
		case 2:
			out[i] = scriptedReport{status: leafFrame(rng.Float64() * 60)}
		case 3:
			out[i] = scriptedReport{status: tierFrame(rng.Intn(4), rng.Intn(4)-1)}
		default:
			out[i] = scriptedReport{status: energyFrame(uint64(1+rng.Intn(1e6)), fmt.Sprint("app", rng.Intn(3)))}
		}
	}
	return out
}

// TestAggregateMatchesFrameDerivation: copying out what Aggregate reads
// from each borrowed frame gives, after every round, what deriving it from
// the last frames kept whole gives — including reports without a frame,
// tiers with no leaves, and failed reports, which leave the last frame in
// place.
func TestAggregateMatchesFrameDerivation(t *testing.T) {
	fail, bare := scriptedReport{fail: true}, scriptedReport{}
	cases := []struct {
		name    string
		scripts [][]scriptedReport
	}{
		{"sim leaves", [][]scriptedReport{
			{{status: leafFrame(10)}, {status: leafFrame(20)}},
			{{status: leafFrame(30)}},
		}},
		{"no frame keeps the last", [][]scriptedReport{
			{{status: tierFrame(8, 1)}, bare, bare, {status: leafFrame(5)}, bare},
			{bare},
		}},
		{"tier with no leaves", [][]scriptedReport{
			{{status: tierFrame(0, 0)}, {status: tierFrame(0, 2)}},
			{{status: tierFrame(3, 1)}, {status: leafFrame(1)}},
		}},
		{"failed reports keep the last", [][]scriptedReport{
			{{status: tierFrame(4, 1)}, fail, fail, fail, fail, {status: leafFrame(2)}},
			{fail},
			{{status: energyFrame(500, "gcc")}, fail, fail},
		}},
		{"energy", [][]scriptedReport{
			{{status: energyFrame(1000, "gcc")}, {status: energyFrame(2000, "cam4")}, bare},
			{{status: energyFrame(700, "gcc")}, {status: leafFrame(3)}},
			{{status: tierFrame(2, 1)}},
		}},
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		scripts := make([][]scriptedReport, 2+rng.Intn(4))
		for j := range scripts {
			scripts[j] = randomScript(rng, 1+rng.Intn(9))
		}
		cases = append(cases, struct {
			name    string
			scripts [][]scriptedReport
		}{fmt.Sprint("random", i), scripts})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := make([]Transport, len(tc.scripts))
			lenders := make([]*lendingTransport, len(tc.scripts))
			for i, s := range tc.scripts {
				lenders[i] = &lendingTransport{name: fmt.Sprint("n", i), script: s}
				ts[i] = lenders[i]
			}
			c, err := NewOverTransports(ts, Config{Budget: units.Watts(100 * len(ts)), QuarantineAfter: 2})
			if err != nil {
				t.Fatal(err)
			}
			frames := make([]*powerapi.NodeStatus, len(ts))
			if got, want := c.Aggregate(), aggregateFromFrames(c, frames); !reflect.DeepEqual(got, want) {
				t.Fatalf("before any round: Aggregate %+v, want %+v", got, want)
			}
			ctx := context.Background()
			for round := 0; round < 12; round++ {
				if err := c.Step(ctx); err != nil {
					t.Fatal(err)
				}
				for i, l := range lenders {
					// The reference keeps a frame whole, so it copies what
					// the lender will overwrite; Energy's pointee is never
					// written after its report.
					s := l.script[(l.next-1)%len(l.script)]
					if s.fail || s.status == nil {
						continue
					}
					kept := l.frame
					if kept.Tier != nil {
						tier := *kept.Tier
						kept.Tier = &tier
					}
					frames[i] = &kept
				}
				got, want := c.Aggregate(), aggregateFromFrames(c, frames)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: Aggregate %+v, want %+v", round, got, want)
				}
			}
		})
	}
}

// TestPlanAllocatesNothing: a round's plan, water-fill included, works in
// the round scratch.
func TestPlanAllocatesNothing(t *testing.T) {
	const n = 64
	ts := make([]Transport, n)
	reports := make([]Report, n)
	healthy := make([]bool, n)
	for i := range ts {
		ts[i] = &probeTransport{name: fmt.Sprint("n", i), local: true}
		reports[i] = Report{Power: units.Watts(20 + i%40), Limit: 50, Max: 80}
		healthy[i] = i%7 != 0
	}
	c, err := NewOverTransports(ts, Config{Budget: 50 * n})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.plan(reports, healthy) }); allocs != 0 {
		t.Errorf("plan: %v allocs, want 0", allocs)
	}
}
