package svc

import (
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// goldenCell pins the exact p50/p90/p99 series produced by the original
// standalone websearch implementation (captured before it became this
// package's closed loop). Websearch must reproduce these bit-for-bit: the
// closed-loop engine consumes randomness in the same order and
// schedules the same FIFO/core-slot drain, so any divergence here means
// Figures 5/12/13 no longer reproduce.
type goldenCell struct {
	seed      int64
	limit     units.Watts
	completed int
	p50       float64
	p90       float64
	p99       float64
	mean      float64
}

var goldenSeries = []goldenCell{
	{1, 55, 1617, 0.0089999999999999993, 0.029999999999999999, 0.058999999999999997, 0.01244573643410851},
	{1, 42, 1559, 0.010999999999999999, 0.035000000000000003, 0.072999999999999995, 0.015065775950667994},
	{1, 35, 1569, 0.012999999999999999, 0.043999999999999997, 0.090149999999999966, 0.018855983772819433},
	{2, 55, 1601, 0.0080000000000000002, 0.029000000000000001, 0.056379999999999889, 0.012481670061099751},
	{2, 42, 1538, 0.01, 0.035999999999999997, 0.073830000000000034, 0.01530744680851061},
	{2, 35, 1552, 0.012999999999999999, 0.047, 0.09101999999999999, 0.019819999999999987},
	{7, 55, 1550, 0.0080000000000000002, 0.029000000000000005, 0.056000000000000001, 0.012433637284701097},
	{7, 42, 1525, 0.01, 0.035000000000000003, 0.069800000000000181, 0.015380753138075269},
	{7, 35, 1516, 0.012, 0.043999999999999997, 0.086220000000000019, 0.018744680851063823},
}

func TestGoldenSeries(t *testing.T) {
	for _, g := range goldenSeries {
		m, err := sim.New(platform.Skylake())
		if err != nil {
			t.Fatal(err)
		}
		md, err := NewModel(Websearch(120, []int{0, 1, 2, 3, 4, 5, 6, 7}, g.seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := md.Attach(m); err != nil {
			t.Fatal(err)
		}
		a := md.Service("websearch")
		if err := m.Pin(workload.NewInstance(workload.CPUBurn), 9); err != nil {
			t.Fatal(err)
		}
		m.SetPowerLimit(g.limit)
		m.Run(3 * time.Second)
		a.ResetStats()
		m.Run(5 * time.Second)
		if got := int(a.Completed()); got != g.completed {
			t.Errorf("seed=%d limit=%v: completed=%d, golden %d", g.seed, g.limit, got, g.completed)
		}
		for _, pc := range []struct {
			p    float64
			want float64
		}{{50, g.p50}, {90, g.p90}, {99, g.p99}} {
			if got := a.LatencyPercentile(pc.p); got != pc.want {
				t.Errorf("seed=%d limit=%v: p%g=%.17g, golden %.17g", g.seed, g.limit, pc.p, got, pc.want)
			}
		}
		if got := a.MeanLatency(); got != g.mean {
			t.Errorf("seed=%d limit=%v: mean=%.17g, golden %.17g", g.seed, g.limit, got, g.mean)
		}
	}
}
