package ledger

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/units"
)

// foldInto folds one interval ending at at into a tier the way Append
// does: the package accounts through fold, then the per-app column, written
// whole into a raw bin and added into a wider tier's bin.
func foldInto(t *tier, at, dur time.Duration, iv accounts, appUJ []uint64) {
	b := t.fold(max(at-dur, 0), dur, iv)
	for i, v := range appUJ {
		if t.width == 0 {
			b.appUJ[i] = v
		} else {
			b.appUJ[i] += v
		}
	}
}

// feed pushes one synthetic interval into a tier: total µJ split as
// one-third per app column (2 apps) with the rest unattributed, so every
// account column is nonzero and conservation is checkable end to end.
func feed(t *tier, at, dur time.Duration, total uint64) {
	iv := accounts{total: total, unattrib: total - 2*(total/3), limit: total + 5, overshoot: 7}
	foldInto(t, at, dur, iv, []uint64{total / 3, total / 3})
}

func sumPoints(ps []Point) (total, unattrib, excluded, limit, overshoot uint64, apps []uint64) {
	for _, p := range ps {
		total += p.TotalUJ
		unattrib += p.UnattributedUJ
		excluded += p.ExcludedUJ
		limit += p.LimitUJ
		overshoot += p.OvershootUJ
		for len(apps) < len(p.AppUJ) {
			apps = append(apps, 0)
		}
		for i, v := range p.AppUJ {
			apps[i] += v
		}
	}
	return
}

// The raw tier seals one bin per interval, in arrival order.
func TestRawTierOneBinPerInterval(t *testing.T) {
	tr := makeTier(0, 16, 2)
	for i := 1; i <= 5; i++ {
		feed(&tr, time.Duration(i)*time.Millisecond, time.Millisecond, 300)
	}
	ps := tr.snapshotRange(0, 0)
	if len(ps) != 5 {
		t.Fatalf("raw bins = %d, want 5", len(ps))
	}
	for i, p := range ps {
		if p.StartNS != int64(i)*1e6 || p.DurNS != 1e6 || p.Intervals != 1 {
			t.Errorf("bin %d: %+v", i, p)
		}
		if p.TotalUJ != 300 || p.AppUJ[0] != 100 || p.UnattributedUJ != 100 {
			t.Errorf("bin %d accounts: %+v", i, p)
		}
	}
}

// A coarse tier accumulates intervals into one aligned open bin and seals
// it only when an interval starts past the bin's width.
func TestCoarseTierAccumulatesAndSeals(t *testing.T) {
	tr := makeTier(time.Second, 16, 2)
	// 4 intervals inside [0,1s), then one starting at 1.0s.
	for i := 1; i <= 4; i++ {
		feed(&tr, time.Duration(i)*250*time.Millisecond, 250*time.Millisecond, 1000)
	}
	ps := tr.snapshotRange(0, 0)
	if len(ps) != 1 || ps[0].Intervals != 4 || ps[0].TotalUJ != 4000 {
		t.Fatalf("open bin: %+v", ps)
	}
	if ps[0].StartNS != 0 || ps[0].DurNS != time.Second.Nanoseconds() {
		t.Fatalf("open bin alignment: %+v", ps[0])
	}
	feed(&tr, 1250*time.Millisecond, 250*time.Millisecond, 1000)
	ps = tr.snapshotRange(0, 0)
	if len(ps) != 2 {
		t.Fatalf("bins after boundary = %d, want 2", len(ps))
	}
	if ps[0].Intervals != 4 || ps[1].Intervals != 1 || ps[1].StartNS != time.Second.Nanoseconds() {
		t.Fatalf("seal: %+v", ps)
	}
}

// A start that jumps several widths ahead opens the new aligned bin
// directly: gaps produce no empty bins.
func TestTierGapProducesNoEmptyBins(t *testing.T) {
	tr := makeTier(time.Second, 16, 2)
	feed(&tr, 500*time.Millisecond, 500*time.Millisecond, 100)
	feed(&tr, 10500*time.Millisecond, 500*time.Millisecond, 100)
	ps := tr.snapshotRange(0, 0)
	if len(ps) != 2 {
		t.Fatalf("gap filled with empty bins: %d points", len(ps))
	}
	if ps[1].StartNS != (10 * time.Second).Nanoseconds() {
		t.Fatalf("gap bin start: %+v", ps[1])
	}
}

// An interval whose start lands behind the open bin (clock skew after a
// coarse sample) folds into the open bin instead of rewinding the ring.
func TestTierSkewFoldsIntoOpenBin(t *testing.T) {
	tr := makeTier(time.Second, 16, 2)
	feed(&tr, 1500*time.Millisecond, 500*time.Millisecond, 100) // opens [1s,2s)
	feed(&tr, 900*time.Millisecond, 500*time.Millisecond, 100)  // starts at 0.4s: skew
	ps := tr.snapshotRange(0, 0)
	if len(ps) != 1 || ps[0].Intervals != 2 || ps[0].TotalUJ != 200 {
		t.Fatalf("skew: %+v", ps)
	}
}

// The ring drops oldest-first once full, and oldest() tracks what
// snapshotRange will actually return.
func TestTierRingWrap(t *testing.T) {
	tr := makeTier(0, 4, 2)
	if tr.oldest() != -1 {
		t.Fatal("empty tier has an oldest bin")
	}
	for i := 1; i <= 10; i++ {
		feed(&tr, time.Duration(i)*time.Millisecond, time.Millisecond, 90)
	}
	ps := tr.snapshotRange(0, 0)
	if len(ps) != 4 {
		t.Fatalf("wrapped ring returned %d bins, want 4", len(ps))
	}
	// Newest 4 of 10 intervals: starts 6,7,8,9 ms.
	for i, p := range ps {
		if want := int64(6+i) * 1e6; p.StartNS != want {
			t.Errorf("bin %d start %d, want %d", i, p.StartNS, want)
		}
	}
	if got := tr.oldest(); got != 6*time.Millisecond {
		t.Errorf("oldest = %v, want 6ms", got)
	}

	// Same, with an open bin at the write position (coarse tier).
	tc := makeTier(time.Second, 4, 2)
	for i := 0; i < 6; i++ {
		feed(&tc, time.Duration(i)*time.Second+500*time.Millisecond, 500*time.Millisecond, 90)
	}
	ps = tc.snapshotRange(0, 0)
	if len(ps) != 4 {
		t.Fatalf("coarse wrap returned %d bins, want 4", len(ps))
	}
	if ps[0].StartNS != (2 * time.Second).Nanoseconds() {
		t.Errorf("coarse oldest start: %+v", ps[0])
	}
	if got := tc.oldest(); got != 2*time.Second {
		t.Errorf("coarse oldest = %v, want 2s", got)
	}
	for i := 1; i < len(ps); i++ {
		if ps[i].StartNS <= ps[i-1].StartNS {
			t.Fatalf("wrap snapshot out of order: %+v", ps)
		}
	}
}

func TestSnapshotRangeBounds(t *testing.T) {
	tr := makeTier(0, 16, 2)
	for i := 1; i <= 8; i++ {
		feed(&tr, time.Duration(i)*time.Second, time.Second, 50)
	}
	// Bins start at 0..7s. [2s, 5s] keeps starts 2,3,4,5.
	ps := tr.snapshotRange(2*time.Second, 5*time.Second)
	if len(ps) != 4 {
		t.Fatalf("bounded range = %d bins, want 4", len(ps))
	}
	if ps[0].StartNS != (2*time.Second).Nanoseconds() || ps[3].StartNS != (5*time.Second).Nanoseconds() {
		t.Fatalf("bounds: %+v", ps)
	}
	// to <= 0 is open-ended.
	if got := len(tr.snapshotRange(6*time.Second, 0)); got != 2 {
		t.Fatalf("open-ended tail = %d bins, want 2", got)
	}
}

// Auto resolution picks the finest tier whose retention still covers the
// range start, falling back coarser as the raw ring wraps away.
func TestPickAutoResolution(t *testing.T) {
	var s store
	s.init(1, 8, 16, 16) // tiny raw ring: wraps after 8 intervals
	for i := 1; i <= 100; i++ {
		for _, t := range []*tier{&s.raw, &s.secs, &s.mins} {
			foldInto(t, time.Duration(i)*100*time.Millisecond, 100*time.Millisecond, accounts{total: 10}, []uint64{10})
		}
	}
	// Raw retains starts [9.2s, 9.9s]; seconds tier covers from 0.
	if _, res := s.pick(ResAuto, 9500*time.Millisecond); res != ResRaw {
		t.Errorf("recent range picked %s, want raw", res)
	}
	if _, res := s.pick(ResAuto, 0); res != ResSecond {
		t.Errorf("full-history range picked %s, want 1s", res)
	}
	// Explicit resolutions are honoured verbatim.
	if _, res := s.pick(ResMinute, 0); res != ResMinute {
		t.Errorf("explicit 1m picked %s", res)
	}
}

// Downsampling must conserve every microjoule column and return sorted,
// step-aligned, non-overlapping windows.
func TestDownsampleConserves(t *testing.T) {
	var pts []Point
	// Unsorted input with irregular starts and mixed app-column widths.
	for i := 19; i >= 0; i-- {
		pts = append(pts, Point{
			StartNS: int64(i)*737_000_000 + int64(i%3),
			DurNS:   737_000_000, Intervals: 1,
			TotalUJ: uint64(1000 + i), UnattributedUJ: uint64(i), ExcludedUJ: uint64(i * 2),
			LimitUJ: uint64(i * 3), OvershootUJ: uint64(i % 5),
			AppUJ: []uint64{uint64(i * 7), uint64(i * 11)},
		})
	}
	wantT, wantU, wantE, wantL, wantO, wantA := sumPoints(pts)
	out := Downsample(pts, 3*time.Second)
	gotT, gotU, gotE, gotL, gotO, gotA := sumPoints(out)
	if gotT != wantT || gotU != wantU || gotE != wantE || gotL != wantL || gotO != wantO {
		t.Fatalf("package columns not conserved: %d/%d/%d/%d/%d vs %d/%d/%d/%d/%d",
			gotT, gotU, gotE, gotL, gotO, wantT, wantU, wantE, wantL, wantO)
	}
	for i := range wantA {
		if gotA[i] != wantA[i] {
			t.Errorf("app %d column not conserved: %d vs %d", i, gotA[i], wantA[i])
		}
	}
	step := (3 * time.Second).Nanoseconds()
	for i, p := range out {
		if p.StartNS%step != 0 {
			t.Errorf("window %d not aligned: %d", i, p.StartNS)
		}
		if i > 0 && p.StartNS <= out[i-1].StartNS {
			t.Errorf("windows out of order at %d", i)
		}
	}
	if len(out) >= len(pts) {
		t.Errorf("nothing merged: %d windows from %d points", len(out), len(pts))
	}
	// Non-positive step sorts without merging.
	if got := Downsample(pts, 0); len(got) != len(pts) {
		t.Errorf("step=0 merged points: %d from %d", len(got), len(pts))
	}
}

// End-to-end through the ledger: Range honours step and limit, and the
// downsampled series still sums to the cumulative totals.
func TestRangeStepAndLimit(t *testing.T) {
	chip := twoSocketChip()
	apps := []core.AppSpec{
		{Name: "gcc", Core: 0, Shares: 60},
		{Name: "cam4", Core: chip.CoresPerSocket(), Shares: 40},
	}
	l := newTestLedger(t, chip, apps, Config{})
	l.store.init(len(apps), 64, secondBins, minuteBins)
	for i := 1; i <= 50; i++ {
		l.Append(okInput(chip, time.Duration(i)*100*time.Millisecond, 100*time.Millisecond, 100,
			[]units.Watts{30, 20}, nil))
	}
	s := l.Summarize()

	r, err := l.Range(Query{Res: ResRaw, Step: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if r.Resolution != ResRaw || len(r.Apps) != 2 {
		t.Fatalf("result header: %+v", r)
	}
	gotT, gotU, gotE, _, _, gotA := sumPoints(r.Points)
	if gotT != s.TotalUJ || gotU != s.UnattributedUJ || gotE != s.ExcludedUJ {
		t.Fatalf("downsampled series does not sum to cumulative totals: %d vs %d", gotT, s.TotalUJ)
	}
	for i := range s.Apps {
		if gotA[i] != s.Apps[i].TotalUJ {
			t.Errorf("app %d series sum %d, cumulative %d", i, gotA[i], s.Apps[i].TotalUJ)
		}
	}

	r, err = l.Range(Query{Res: ResRaw, Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 5 {
		t.Fatalf("limit ignored: %d points", len(r.Points))
	}
	// Newest kept: the last raw bin starts at 4.9 s.
	if want := (4900 * time.Millisecond).Nanoseconds(); r.Points[4].StartNS != want {
		t.Fatalf("limit kept oldest points: %+v", r.Points)
	}
}

// Range takes its points and its summary under one lock, so each reply is
// one instant of the ledger while Append runs beside it: over a horizon the
// raw tier still covers, the points sum to the summary's total.
func TestRangeSummaryMatchesPoints(t *testing.T) {
	chip := twoSocketChip()
	l := newTestLedger(t, chip, []core.AppSpec{
		{Name: "gcc", Core: 0, Shares: 60},
		{Name: "cam4", Core: chip.CoresPerSocket(), Shares: 40},
	}, Config{})
	const intervals = rawBins / 2
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= intervals; i++ {
			l.Append(okInput(chip, time.Duration(i)*time.Millisecond, time.Millisecond, 100, []units.Watts{30, 20}, nil))
		}
	}()
	for replies, finished := 0, false; !finished; replies++ {
		select {
		case <-done:
			finished = true
		default:
		}
		r, err := l.Range(Query{Res: ResRaw})
		if err != nil {
			t.Fatal(err)
		}
		if total, _, _, _, _, _ := sumPoints(r.Points); total != r.Summary.TotalUJ {
			t.Fatalf("reply %d: %d raw points sum to %d uJ, summary says %d", replies, len(r.Points), total, r.Summary.TotalUJ)
		}
	}
}
