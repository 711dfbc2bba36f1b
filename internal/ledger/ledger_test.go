package ledger

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// twoSocketChip is a 2×10-core package: apps can live on separate RAPL
// domains, so exclusion and attribution are testable per socket.
func twoSocketChip() platform.Chip {
	return platform.MultiSocket(platform.Skylake(), 2)
}

func newTestLedger(t *testing.T, chip platform.Chip, apps []core.AppSpec, cfg Config) *Ledger {
	t.Helper()
	cfg.Chip = chip
	cfg.Apps = apps
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// okInput builds one interval's telemetry: every core trustworthy at the
// given frequency, every socket at the given watts.
func okInput(chip platform.Chip, at, dt time.Duration, limit units.Watts, sockW []units.Watts, freq []units.Hertz) Input {
	in := Input{
		At: at, Dt: dt, Limit: limit,
		PkgStatus:    telemetry.StatusOK,
		SocketPower:  sockW,
		SocketStatus: make([]telemetry.CoreStatus, len(sockW)),
		Cores:        make([]telemetry.CoreSample, chip.NumCores),
	}
	for s := range sockW {
		in.PackagePower += sockW[s]
		in.SocketStatus[s] = telemetry.StatusOK
	}
	for c := range in.Cores {
		f := units.Hertz(2e9)
		if c < len(freq) {
			f = freq[c]
		}
		in.Cores[c] = telemetry.CoreSample{CPU: c, ActiveFreq: f, Status: telemetry.StatusOK}
	}
	return in
}

func checkConservation(t *testing.T, l *Ledger) Summary {
	t.Helper()
	s := l.Summarize()
	if got := l.AttributedUJ() + s.UnattributedUJ + s.ExcludedUJ; got != s.TotalUJ {
		t.Fatalf("conservation violated: attributed %d + unattributed %d + excluded %d = %d, want total %d",
			l.AttributedUJ(), s.UnattributedUJ, s.ExcludedUJ, got, s.TotalUJ)
	}
	return s
}

func TestMicrojoules(t *testing.T) {
	cases := []struct {
		w    units.Watts
		dt   time.Duration
		want uint64
	}{
		{0, time.Second, 0},
		{-5, time.Second, 0},
		{50, 0, 0},
		{50, time.Second, 50_000_000},
		{50, time.Millisecond, 50_000},
		{1, time.Microsecond, 1},   // 1 W × 1 µs = 1 µJ
		{0.4, time.Microsecond, 0}, // 0.4 µJ rounds down
		{0.6, time.Microsecond, 1}, // 0.6 µJ rounds up
		{33.333, 3 * time.Second, 99_999_000},
	}
	for _, c := range cases {
		if got := microjoules(c.w, c.dt); got != c.want {
			t.Errorf("microjoules(%v, %v) = %d, want %d", c.w, c.dt, got, c.want)
		}
	}
}

// Attribution must hand out every microjoule of a trusted socket: the
// per-app accounts sum to the quantised socket energy exactly, whatever
// the weights.
func TestAttributionExact(t *testing.T) {
	chip := platform.Skylake()
	apps := []core.AppSpec{
		{Name: "gcc", Core: 0, Shares: 90},
		{Name: "cam4", Core: 1, Shares: 10},
		{Name: "leela", Core: 2, Shares: 7},
	}
	l := newTestLedger(t, chip, apps, Config{})

	// Awkward wattage and interval so the float weights can't be exact.
	at := time.Duration(0)
	for i := 0; i < 1000; i++ {
		at += 997 * time.Microsecond
		in := okInput(chip, at, 997*time.Microsecond, 50,
			[]units.Watts{33.777}, []units.Hertz{2.1e9, 1.9e9, 2.7e9})
		l.Append(in)
	}
	s := checkConservation(t, l)
	if s.ExcludedUJ != 0 {
		t.Errorf("excluded %d uJ with fully trusted telemetry", s.ExcludedUJ)
	}
	if s.UnattributedUJ != 0 {
		t.Errorf("unattributed %d uJ with every core active", s.UnattributedUJ)
	}
	if s.Intervals != 1000 {
		t.Errorf("intervals = %d, want 1000", s.Intervals)
	}
	// Higher shares at comparable frequency must earn more energy.
	if !(s.Apps[0].TotalUJ > s.Apps[1].TotalUJ && s.Apps[0].TotalUJ > s.Apps[2].TotalUJ) {
		t.Errorf("share weighting inverted: %+v", s.Apps)
	}
}

// Largest-remainder ties go to the lowest app index, deterministically.
func TestLargestRemainderDeterminism(t *testing.T) {
	chip := platform.Skylake()
	apps := []core.AppSpec{
		{Name: "a", Core: 0, Shares: 50},
		{Name: "b", Core: 1, Shares: 50},
	}
	mk := func() *Ledger { return newTestLedger(t, chip, apps, Config{}) }

	// 3 µJ split 50/50: 1.5 each, remainders tie, app0 takes the spare.
	in := okInput(chip, time.Microsecond, time.Microsecond, 50,
		[]units.Watts{3}, []units.Hertz{2e9, 2e9})
	l1, l2 := mk(), mk()
	l1.Append(in)
	l2.Append(in)
	s1, s2 := l1.Summarize(), l2.Summarize()
	if s1.Apps[0].TotalUJ != 2 || s1.Apps[1].TotalUJ != 1 {
		t.Errorf("tie-break not lowest-index: %d/%d, want 2/1", s1.Apps[0].TotalUJ, s1.Apps[1].TotalUJ)
	}
	for i := range s1.Apps {
		if s1.Apps[i].TotalUJ != s2.Apps[i].TotalUJ {
			t.Errorf("attribution not deterministic: app %d %d vs %d", i, s1.Apps[i].TotalUJ, s2.Apps[i].TotalUJ)
		}
	}
	checkConservation(t, l1)
}

// A fully idle socket's energy is unattributed — static power is real but
// belongs to no app, and must not be invented onto one.
func TestIdleEnergyUnattributed(t *testing.T) {
	chip := platform.Skylake()
	apps := []core.AppSpec{{Name: "gcc", Core: 0, Shares: 50}}
	l := newTestLedger(t, chip, apps, Config{})
	in := okInput(chip, time.Second, time.Second, 50, []units.Watts{12}, []units.Hertz{0})
	in.Cores[0].Status = telemetry.StatusIdle
	l.Append(in)
	s := checkConservation(t, l)
	if s.UnattributedUJ != 12_000_000 {
		t.Errorf("unattributed = %d uJ, want 12000000", s.UnattributedUJ)
	}
	if got := l.AttributedUJ(); got != 0 {
		t.Errorf("attributed %d uJ to an idle app", got)
	}
}

// An untrustworthy socket is excluded whole: its energy lands in the
// excluded account and no app on it gets anything, while the other
// socket's attribution is unaffected.
func TestUntrustedSocketExcludedNotSmeared(t *testing.T) {
	chip := twoSocketChip()
	cps := chip.CoresPerSocket()
	apps := []core.AppSpec{
		{Name: "gcc", Core: 0, Shares: 50},
		{Name: "cam4", Core: cps, Shares: 50}, // first core of socket 1
	}
	l := newTestLedger(t, chip, apps, Config{})
	in := okInput(chip, time.Second, time.Second, 100, []units.Watts{40, 60}, nil)
	in.SocketStatus[1] = telemetry.StatusStale
	l.Append(in)
	s := checkConservation(t, l)
	if s.ExcludedUJ != 60_000_000 {
		t.Errorf("excluded = %d uJ, want socket 1's 60000000", s.ExcludedUJ)
	}
	if s.Apps[1].TotalUJ != 0 {
		t.Errorf("app on untrusted socket attributed %d uJ, want 0", s.Apps[1].TotalUJ)
	}
	if s.Apps[0].TotalUJ != 40_000_000 {
		t.Errorf("trusted socket attribution disturbed: %d uJ, want 40000000", s.Apps[0].TotalUJ)
	}
}

// A lying app-core counter poisons its whole socket: the domain's energy
// cannot be split honestly when one of the weights is fabricated.
func TestUntrustedCoreExcludesSocket(t *testing.T) {
	chip := platform.Skylake()
	apps := []core.AppSpec{
		{Name: "gcc", Core: 0, Shares: 50},
		{Name: "cam4", Core: 1, Shares: 50},
	}
	l := newTestLedger(t, chip, apps, Config{})
	in := okInput(chip, time.Second, time.Second, 100, []units.Watts{40}, nil)
	in.Cores[1].Status = telemetry.StatusDark
	l.Append(in)
	s := checkConservation(t, l)
	if s.ExcludedUJ != 40_000_000 {
		t.Errorf("excluded = %d uJ, want 40000000", s.ExcludedUJ)
	}
	if got := l.AttributedUJ(); got != 0 {
		t.Errorf("attributed %d uJ from a poisoned socket", got)
	}
}

func TestOvershootAccounting(t *testing.T) {
	chip := platform.Skylake()
	apps := []core.AppSpec{{Name: "gcc", Core: 0, Shares: 50}}
	l := newTestLedger(t, chip, apps, Config{})
	in := okInput(chip, time.Second, time.Second, 50, []units.Watts{58}, nil)
	l.Append(in)
	s := l.Summarize()
	if s.OvershootUJ != 8_000_000 {
		t.Errorf("overshoot = %d uJ, want 8000000", s.OvershootUJ)
	}
	if s.LimitUJ != 50_000_000 {
		t.Errorf("limit budget = %d uJ, want 50000000", s.LimitUJ)
	}
	if s.OverIntervals != 1 {
		t.Errorf("over-limit intervals = %d, want 1", s.OverIntervals)
	}
}

func TestCostAndCarbon(t *testing.T) {
	chip := platform.Skylake()
	apps := []core.AppSpec{{Name: "gcc", Core: 0, Shares: 50}}
	l := newTestLedger(t, chip, apps, Config{
		Rates: RateSchedule{{Start: 0, USDPerKWh: 0.36, GCO2PerKWh: 360}},
	})
	// 100 W × 36 s = 3600 J = 0.001 kWh.
	for i := 1; i <= 36; i++ {
		l.Append(okInput(chip, time.Duration(i)*time.Second, time.Second, 200, []units.Watts{100}, nil))
	}
	s := l.Summarize()
	if s.TotalJoules != 3600 {
		t.Fatalf("total = %v J, want 3600", s.TotalJoules)
	}
	if diff := s.CostUSD - 0.00036; diff < -1e-12 || diff > 1e-12 {
		t.Errorf("cost = %v, want 0.00036", s.CostUSD)
	}
	if diff := s.CarbonGrams - 0.36; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("carbon = %v g, want 0.36", s.CarbonGrams)
	}
}

// Reconfiguration carries cumulative app totals by name and keeps the
// package accounts running.
func TestReconfigureCarriesTotalsByName(t *testing.T) {
	chip := platform.Skylake()
	l := newTestLedger(t, chip, []core.AppSpec{
		{Name: "gcc", Core: 0, Shares: 50},
		{Name: "cam4", Core: 1, Shares: 50},
	}, Config{})
	l.Append(okInput(chip, time.Second, time.Second, 100, []units.Watts{40}, nil))
	before := l.Summarize()

	// gcc moves to core 2 and keeps its joules; cam4 is replaced by leela,
	// whose account starts at zero.
	l.Reconfigure([]core.AppSpec{
		{Name: "gcc", Core: 2, Shares: 30},
		{Name: "leela", Core: 3, Shares: 70},
	})
	after := l.Summarize()
	if after.TotalUJ != before.TotalUJ {
		t.Errorf("package total changed across reconfigure: %d -> %d", before.TotalUJ, after.TotalUJ)
	}
	if after.Apps[0].Name != "gcc" || after.Apps[0].TotalUJ != before.Apps[0].TotalUJ {
		t.Errorf("gcc's total not carried: %+v", after.Apps[0])
	}
	if after.Apps[1].Name != "leela" || after.Apps[1].TotalUJ != 0 {
		t.Errorf("new app not zeroed: %+v", after.Apps[1])
	}

	// The ledger keeps accounting under the new spec set.
	l.Append(okInput(chip, 2*time.Second, time.Second, 100, []units.Watts{40}, nil))
	if got := l.Summarize().TotalUJ; got != before.TotalUJ+40_000_000 {
		t.Errorf("post-reconfigure total = %d, want %d", got, before.TotalUJ+40_000_000)
	}
}

// Apps that share a name keep their own accounts across a reconfiguration:
// each old account carries to at most one new app, the one on the same core
// first, then the rest of the name in spec order. Across the same set the
// conservation identity holds to the microjoule, and dropping an app lowers
// Σ app by exactly that app's total.
func TestReconfigureKeepsEachAppsTotal(t *testing.T) {
	chip := platform.Skylake()
	web0, web1, gcc := core.AppSpec{Name: "web", Core: 0, Shares: 50}, core.AppSpec{Name: "web", Core: 1, Shares: 30}, core.AppSpec{Name: "gcc", Core: 2, Shares: 20}
	l := newTestLedger(t, chip, []core.AppSpec{web0, web1, gcc}, Config{})
	for i := 1; i <= 10; i++ {
		l.Append(okInput(chip, time.Duration(i)*100*time.Millisecond, 100*time.Millisecond, 100,
			[]units.Watts{40}, []units.Hertz{2e9, 3e9, 1e9}))
	}
	before := checkConservation(t, l)
	want := map[int]uint64{} // by core
	for _, a := range before.Apps {
		want[a.Core] = a.TotalUJ
	}

	for _, set := range [][]core.AppSpec{{web0, web1, gcc}, {web1, gcc, web0}} {
		l.Reconfigure(set)
		after := checkConservation(t, l)
		for _, a := range after.Apps {
			if a.TotalUJ != want[a.Core] {
				t.Errorf("%s on core %d holds %d uJ after reconfigure, had %d", a.Name, a.Core, a.TotalUJ, want[a.Core])
			}
		}
	}

	// web on core 0 leaves; a web on core 5 takes the account of neither
	// the web that stayed nor gcc, and there is none left for it.
	sum := l.AttributedUJ()
	l.Reconfigure([]core.AppSpec{web1, gcc})
	if got := sum - l.AttributedUJ(); got != want[0] {
		t.Errorf("dropping web@0 lowered the app sum by %d uJ, want its %d", got, want[0])
	}
	l.Reconfigure([]core.AppSpec{{Name: "web", Core: 5, Shares: 10}, web1, gcc})
	if s := l.Summarize(); s.Apps[0].TotalUJ != 0 || s.Apps[1].TotalUJ != want[1] || s.Apps[2].TotalUJ != want[2] {
		t.Errorf("after adding web@5: %+v", s.Apps)
	}
}

// The KindEnergy batch's identities are built once per app set. After a
// reconfiguration to fewer apps, on other cores, in another order, the next
// interval's events carry the new cores and indices, and a dump spanning the
// change still rebuilds the live accounts to the microjoule.
func TestReconfigureRebuildsEnergyBatch(t *testing.T) {
	chip := twoSocketChip()
	cps := chip.CoresPerSocket()
	rec := flight.New(0)
	l := newTestLedger(t, chip, []core.AppSpec{
		{Name: "gcc", Core: 0, Shares: 50},
		{Name: "cam4", Core: 1, Shares: 30},
		{Name: "leela", Core: cps, Shares: 20},
	}, Config{Flight: rec})
	at := time.Duration(0)
	step := func(n int) {
		for range n {
			at += time.Millisecond
			l.Append(okInput(chip, at, time.Millisecond, 70, []units.Watts{31.13, 27.77}, nil))
		}
	}
	step(20)
	next := []core.AppSpec{
		{Name: "leela", Core: cps + 3, Shares: 60},
		{Name: "gcc", Core: 5, Shares: 40},
	}
	l.Reconfigure(next)
	mark := rec.Total()
	step(1)

	live := l.Summarize()
	var apps []flight.Event
	for _, e := range rec.Snapshot() {
		if e.Seq > mark && e.Kind == flight.KindEnergy && e.Core != -1 {
			apps = append(apps, e)
		}
	}
	if len(apps) != len(next) {
		t.Fatalf("interval after reconfigure carries %d app accounts, want %d: %+v", len(apps), len(next), apps)
	}
	for i, e := range apps {
		if int(e.Core) != next[i].Core || e.Arg != uint32(i) || e.Aux != live.Apps[i].TotalUJ {
			t.Errorf("account %d = core %d arg %d aux %d, want core %d arg %d aux %d",
				i, e.Core, e.Arg, e.Aux, next[i].Core, i, live.Apps[i].TotalUJ)
		}
	}

	step(10)
	s := l.Summarize() // cam4's joules stay in the package accounts only
	r := Rebuild(rec.Dump("reconfigure").Events)
	if r.TotalUJ != s.TotalUJ || r.UnattributedUJ != s.UnattributedUJ ||
		r.ExcludedUJ != s.ExcludedUJ || r.LimitUJ != s.LimitUJ || r.OvershootUJ != s.OvershootUJ {
		t.Fatalf("package accounts diverge:\nrebuilt %+v\nlive    %+v", r, s)
	}
	if len(r.AppUJ) != len(s.Apps) {
		t.Fatalf("rebuilt %d apps, want %d", len(r.AppUJ), len(s.Apps))
	}
	for i := range s.Apps {
		if r.AppUJ[i] != s.Apps[i].TotalUJ {
			t.Errorf("app %d: rebuilt %d uJ, live %d uJ", i, r.AppUJ[i], s.Apps[i].TotalUJ)
		}
	}
}

// bigNode is the largest node the loop is gated at: one app per core of a
// 2×64-core package, every core at its own frequency so attribution has
// 128 distinct weights to rank.
func bigNode() (platform.Chip, []core.AppSpec, []units.Hertz) {
	big := platform.MultiSocket(platform.ScaleSocket(platform.Skylake(), 64), 2)
	names := []string{"gcc", "cam4", "leela", "cactusBSSN"}
	apps := make([]core.AppSpec, big.NumCores)
	freq := make([]units.Hertz, big.NumCores)
	for i := range apps {
		apps[i] = core.AppSpec{Name: names[i%len(names)], Core: i, Shares: units.Shares(10 + i%7)}
		freq[i] = units.Hertz(2e9 + float64(i)*1e7)
	}
	return big, apps, freq
}

// The hot path must not allocate, with metrics and flight events on: the
// control loop's zero-alloc gate rides on it, up to the 128-app bigNode.
func TestAppendAllocs(t *testing.T) {
	small := twoSocketChip()
	big, bigApps, bigFreq := bigNode()
	for _, tc := range []struct {
		name string
		chip platform.Chip
		apps []core.AppSpec
		freq []units.Hertz
	}{
		{"apps=3", small, []core.AppSpec{
			{Name: "gcc", Core: 0, Shares: 90},
			{Name: "cam4", Core: 1, Shares: 10},
			{Name: "leela", Core: small.CoresPerSocket(), Shares: 40},
		}, nil},
		{"apps=128", big, bigApps, bigFreq},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newTestLedger(t, tc.chip, tc.apps, Config{
				Metrics: metrics.NewRegistry(),
				Flight:  flight.New(0),
			})
			in := okInput(tc.chip, 0, time.Millisecond, 50, []units.Watts{30, 25}, tc.freq)
			allocs := testing.AllocsPerRun(200, func() {
				in.At += in.Dt
				l.Append(in)
			})
			if allocs != 0 {
				t.Fatalf("Append allocates %v times per interval, want 0", allocs)
			}
		})
	}
}

// BenchmarkAppend bills one interval of bigNode with metrics and flight
// events on, reporting the time per app.
func BenchmarkAppend(b *testing.B) {
	chip, apps, freq := bigNode()
	l, err := New(Config{Chip: chip, Apps: apps, Metrics: metrics.NewRegistry(), Flight: flight.New(0)})
	if err != nil {
		b.Fatal(err)
	}
	in := okInput(chip, 0, time.Millisecond, 50, []units.Watts{30, 25}, freq)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.At += in.Dt
		l.Append(in)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(apps)), "ns/app")
}

func TestDetectorSustainedOvershoot(t *testing.T) {
	chip := platform.Skylake()
	apps := []core.AppSpec{{Name: "gcc", Core: 0, Shares: 50}}
	rec := flight.New(0)
	l := newTestLedger(t, chip, apps, Config{Flight: rec})
	cfg := ledgerDetectors
	cfg.overshootN = 5
	l.det = newDetectors(cfg, chip.Sockets())
	over := func(i int) Input {
		return okInput(chip, time.Duration(i)*time.Second, time.Second, 50, []units.Watts{60}, nil)
	}
	under := func(i int) Input {
		return okInput(chip, time.Duration(i)*time.Second, time.Second, 50, []units.Watts{45}, nil)
	}
	at := 0
	for i := 0; i < 4; i++ {
		at++
		l.Append(over(at))
	}
	if n := len(anomalies(rec)); n != 0 {
		t.Fatalf("fired after 4 intervals, want >=5: %d anomalies", n)
	}
	at++
	l.Append(over(at))
	if got := l.Summarize().Anomalies["overshoot"]; got != 1 {
		t.Fatalf("overshoot count = %d, want 1", got)
	}
	// Sustained excursion fires once, not once per interval.
	for i := 0; i < 20; i++ {
		at++
		l.Append(over(at))
	}
	if got := l.Summarize().Anomalies["overshoot"]; got != 1 {
		t.Fatalf("sustained excursion re-fired: count %d", got)
	}
	// Clearing re-arms; a second excursion fires again.
	at++
	l.Append(under(at))
	for i := 0; i < 5; i++ {
		at++
		l.Append(over(at))
	}
	if got := l.Summarize().Anomalies["overshoot"]; got != 2 {
		t.Fatalf("second excursion count = %d, want 2", got)
	}
	// Each firing: no core, the excess over the limit in µW, the run length.
	a := anomalies(rec)
	if len(a) != 2 {
		t.Fatalf("anomaly events = %+v", a)
	}
	for _, e := range a {
		if e.Arg != flight.AnomalyOvershoot || e.Core != -1 || e.Value != 10e6 || e.Aux != 5 {
			t.Fatalf("overshoot event = %+v, want core -1, value 10e6 µW, aux 5", e)
		}
	}
}

// anomalies returns the KindAnomaly events rec holds, oldest first.
func anomalies(rec *flight.Recorder) []flight.Event {
	var out []flight.Event
	for _, e := range rec.Snapshot() {
		if e.Kind == flight.KindAnomaly {
			out = append(out, e)
		}
	}
	return out
}

func TestDetectorCapOscillation(t *testing.T) {
	chip := platform.Skylake()
	apps := []core.AppSpec{{Name: "gcc", Core: 0, Shares: 50}}
	rec := flight.New(0)
	l := newTestLedger(t, chip, apps, Config{Flight: rec})
	cfg := ledgerDetectors
	cfg.oscillationWindow, cfg.oscillationFlips = 20, 4
	l.det = newDetectors(cfg, chip.Sockets())
	limits := []units.Watts{50, 60, 50, 60, 50, 60, 50, 60}
	for i, lim := range limits {
		l.Append(okInput(chip, time.Duration(i+1)*time.Second, time.Second, lim, []units.Watts{30}, nil))
	}
	if got := l.Summarize().Anomalies["oscillation"]; got != 1 {
		t.Fatalf("oscillation count = %d, want 1", got)
	}
	// The fourth flip fires it, at the fifth limit (60 W, in µW).
	if a := anomalies(rec); len(a) != 1 || a[0].Arg != flight.AnomalyOscillation ||
		a[0].Core != -1 || a[0].Value != 60e6 || a[0].Aux != 4 {
		t.Fatalf("oscillation events = %+v, want one at core -1, value 60e6 µW, aux 4", a)
	}
	// A steady limit never flips.
	l2 := newTestLedger(t, chip, apps, Config{})
	l2.det = newDetectors(cfg, chip.Sockets())
	for i := 0; i < 50; i++ {
		l2.Append(okInput(chip, time.Duration(i+1)*time.Second, time.Second, 50, []units.Watts{30}, nil))
	}
	if got := l2.Summarize().Anomalies["oscillation"]; got != 0 {
		t.Fatalf("steady limit fired oscillation %d times", got)
	}
}

func TestDetectorShareDrift(t *testing.T) {
	chip := platform.Skylake()
	apps := []core.AppSpec{
		{Name: "gcc", Core: 0, Shares: 50},
		{Name: "cam4", Core: 1, Shares: 50},
	}
	rec := flight.New(0)
	l := newTestLedger(t, chip, apps, Config{Flight: rec})
	cfg := ledgerDetectors
	cfg.driftAlpha, cfg.driftN, cfg.driftMargin = 0.5, 5, 0.15
	l.det = newDetectors(cfg, chip.Sockets())
	// Equal shares but gcc's core runs 10× the frequency: its energy
	// fraction settles near 0.9 against a 0.5 share fraction.
	for i := 0; i < 20; i++ {
		l.Append(okInput(chip, time.Duration(i+1)*time.Second, time.Second, 100,
			[]units.Watts{40}, []units.Hertz{20e9, 2e9}))
	}
	s := l.Summarize()
	if got := s.Anomalies["share-drift"]; got == 0 {
		t.Fatalf("skewed run never fired share-drift: %+v", s.Anomalies)
	}
	// The event names gcc's core, its energy fraction (near 0.9) and its
	// share fraction (0.5), both in millionths.
	found := false
	for _, e := range anomalies(rec) {
		if e.Arg == flight.AnomalyShareDrift && e.Core == 0 && e.Value > 800000 && e.Aux == 500000 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no share-drift event for gcc on core 0: %+v", anomalies(rec))
	}
}

func TestDetectorStragglerSocket(t *testing.T) {
	chip := twoSocketChip()
	apps := []core.AppSpec{{Name: "gcc", Core: 0, Shares: 50}}
	rec := flight.New(0)
	l := newTestLedger(t, chip, apps, Config{Flight: rec})
	cfg := ledgerDetectors
	cfg.stragglerN = 5
	l.det = newDetectors(cfg, chip.Sockets())
	for i := 0; i < 6; i++ {
		in := okInput(chip, time.Duration(i+1)*time.Second, time.Second, 100, []units.Watts{40, 40}, nil)
		in.SocketStatus[1] = telemetry.StatusDark
		l.Append(in)
	}
	if got := l.Summarize().Anomalies["straggler"]; got != 1 {
		t.Fatalf("straggler count = %d, want 1", got)
	}
	if a := anomalies(rec); len(a) != 1 || a[0].Arg != flight.AnomalyStraggler ||
		a[0].Core != 1 || a[0].Value != 0 || a[0].Aux != 5 {
		t.Fatalf("straggler events = %+v, want one naming socket 1 after a run of 5", a)
	}
}

// The flight-recorder events must rebuild the ledger's totals
// bit-identically, even though the ring retains only the newest events.
func TestRebuildFromDumpBitIdentical(t *testing.T) {
	chip := twoSocketChip()
	cps := chip.CoresPerSocket()
	rec := flight.New(0)
	apps := []core.AppSpec{
		{Name: "gcc", Core: 0, Shares: 90},
		{Name: "cam4", Core: 1, Shares: 10},
		{Name: "leela", Core: cps, Shares: 40},
	}
	l := newTestLedger(t, chip, apps, Config{Flight: rec})
	cfg := ledgerDetectors
	cfg.overshootN = 3
	l.det = newDetectors(cfg, chip.Sockets())
	at := time.Duration(0)
	for i := 0; i < 500; i++ {
		at += 997 * time.Microsecond
		in := okInput(chip, at, 997*time.Microsecond, 40,
			[]units.Watts{31.13, 27.77}, []units.Hertz{2.1e9, 1.7e9})
		if i%7 == 0 {
			in.SocketStatus[1] = telemetry.StatusStale // some excluded energy
		}
		if i%5 == 0 {
			in.SocketPower[0] = 55 // overshoot excursions
			in.PackagePower = in.SocketPower[0] + in.SocketPower[1]
		}
		l.Append(in)
	}
	s := checkConservation(t, l)

	r := Rebuild(rec.Dump("test").Events)
	if r.Events == 0 {
		t.Fatal("dump contains no ledger events")
	}
	if r.TotalUJ != s.TotalUJ || r.UnattributedUJ != s.UnattributedUJ ||
		r.ExcludedUJ != s.ExcludedUJ || r.LimitUJ != s.LimitUJ || r.OvershootUJ != s.OvershootUJ {
		t.Fatalf("package accounts diverge:\nrebuilt %+v\nlive    %+v", r, s)
	}
	if len(r.AppUJ) != len(s.Apps) {
		t.Fatalf("rebuilt %d apps, want %d", len(r.AppUJ), len(s.Apps))
	}
	for i := range s.Apps {
		if r.AppUJ[i] != s.Apps[i].TotalUJ {
			t.Errorf("app %d: rebuilt %d uJ, live %d uJ", i, r.AppUJ[i], s.Apps[i].TotalUJ)
		}
	}
	if r.AttributedUJ()+r.UnattributedUJ+r.ExcludedUJ != r.TotalUJ {
		t.Error("rebuilt accounts violate conservation")
	}
	if len(r.AnomalyCounts) == 0 {
		t.Error("no anomalies rebuilt despite overshoot excursions")
	}
}

func TestNilLedgerIsSafe(t *testing.T) {
	var l *Ledger
	l.Append(Input{At: time.Second, Dt: time.Second})
	l.Reconfigure([]core.AppSpec{{Name: "x", Core: 0}})
	if s := l.Summarize(); s.TotalUJ != 0 {
		t.Error("nil Summarize not zero")
	}
	if l.AttributedUJ() != 0 {
		t.Error("nil accessors not zero")
	}
	if _, err := l.Range(Query{}); err == nil {
		t.Error("nil Range should error")
	}
}

func TestNewValidation(t *testing.T) {
	chip := platform.Skylake()
	if _, err := New(Config{Chip: chip}); err == nil {
		t.Error("no apps accepted")
	}
	if _, err := New(Config{Chip: chip, Apps: []core.AppSpec{{Name: "x", Core: 99}}}); err == nil {
		t.Error("out-of-range core accepted")
	}
	if _, err := New(Config{Chip: chip, Apps: []core.AppSpec{{Name: "x", Core: 0}},
		Rates: RateSchedule{{Start: time.Hour, USDPerKWh: 1}}}); err == nil {
		t.Error("rate schedule not starting at 0 accepted")
	}
}
