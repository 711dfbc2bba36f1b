package sim

import (
	"slices"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/workload"
)

// warmNode is the 2×64-core node with registry and flight recorder
// attached: four cores left empty, the rest running unphased profiles (so
// that no input to a memo moves by itself) at requests spread over the
// P-state range, stepped until every C-state and memo has settled.
func warmNode(t *testing.T) (m *Machine, awake int) {
	t.Helper()
	chip := platform.MultiSocket(platform.ScaleSocket(platform.Skylake(), 64), 2)
	m, err := New(chip, WithMetrics(metrics.NewRegistry()), WithFlightRecorder(flight.New(0)))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"povray", "imagick", "lbm", "exchange2"}
	levels := chip.Freq.Levels()
	for c := 4; c < chip.NumCores; c++ {
		if err := m.Pin(workload.NewInstance(workload.MustByName(names[c%len(names)])), c); err != nil {
			t.Fatal(err)
		}
		if err := m.SetRequest(c, levels[c%len(levels)]); err != nil {
			t.Fatal(err)
		}
		awake++
	}
	for i := 0; i < 2000; i++ {
		m.Step()
	}
	return m, awake
}

// The counts below repeat exactly: they are the memo's whole claim, stated
// where a change to Step that starts recomputing per tick turns them red.
func TestQuiescentStepRecomputesNothing(t *testing.T) {
	m, awake := warmNode(t)
	expect := func(when string, freq, power int) {
		t.Helper()
		if m.misses.freq != freq || m.misses.power != power {
			t.Fatalf("%s: %d frequency and %d power recomputations, want %d and %d",
				when, m.misses.freq, m.misses.power, freq, power)
		}
	}

	m.misses.freq, m.misses.power = 0, 0
	for i := 0; i < 1000; i++ {
		m.Step()
	}
	m.PackagePower()
	expect("1000 ticks with no input change", 0, 0)

	if err := m.SetRequest(9, m.chip.Freq.Min); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		m.Step()
	}
	expect("one SetRequest", 1, 1)

	// A limit far below the draw walks the limiter's cap down a step an
	// interval. The cap moves at the end of a tick; every awake core sees
	// it in its key on the next one, and the empty cores never look.
	m.SetPowerLimit(m.chip.RAPLMin)
	m.misses.freq, m.misses.power = 0, 0
	for before, n := m.limiter.Cap(), 0; m.limiter.Cap() == before; n++ {
		if n == 100 {
			t.Fatal("the limiter's cap never moved")
		}
		m.Step()
	}
	expect("until the cap moves", 0, 0)
	m.Step()
	if m.misses.freq != awake {
		t.Fatalf("a cap move recomputed %d cores' frequency, want the %d awake ones", m.misses.freq, awake)
	}
}

func TestStepZeroAlloc(t *testing.T) {
	m, _ := warmNode(t)
	// The calendar fires, reschedules and drops entries without allocating:
	// an Every fires every third tick, an At once mid-run.
	fired := 0
	m.Every(3*m.dt, func(time.Duration) { fired++ })
	m.At(m.Now()+500*m.dt, func() { fired++ })
	if n := testing.AllocsPerRun(1000, m.Step); n != 0 {
		t.Fatalf("Step allocates %v times a tick on the warmed node, want 0", n)
	}
	if fired != 1001/3+1 {
		t.Fatalf("calendar fired %d times in 1001 ticks, want %d", fired, 1001/3+1)
	}
}

// tickFullOver steps m n ticks and returns, per core, the ticks on which it
// took tickFull while awake (an instance moves there and nowhere else in
// Step), and how many of those left it without a run.
func tickFullOver(m *Machine, n int) (full, unarmed []int) {
	full, unarmed = make([]int, len(m.cores)), make([]int, len(m.cores))
	moves := make([]uint64, len(m.cores))
	for range n {
		for i := range m.cores {
			if a := m.cores[i].app; a != nil {
				moves[i] = a.Moves()
			}
		}
		m.Step()
		for i := range m.cores {
			if c := &m.cores[i]; !c.idle && c.app.Moves() != moves[i] {
				full[i]++
				if c.runLeft == 0 {
					unarmed[i]++
				}
			}
		}
	}
	return full, unarmed
}

// expectFull fails unless each awake core of m took tickFull want(i) times,
// arming a run every time.
func expectFull(t *testing.T, m *Machine, when string, full, unarmed []int, want func(core int) int) {
	t.Helper()
	for i := range m.cores {
		if m.cores[i].idle {
			continue
		}
		if full[i] != want(i) || unarmed[i] != 0 {
			t.Fatalf("%s: core %d took tickFull %d times, %d of them without arming; want %d, all arming",
				when, i, full[i], unarmed[i], want(i))
		}
	}
}

// only wants one tickFull of each of cores and none of the others.
func only(cores ...int) func(int) int {
	return func(i int) int {
		if slices.Contains(cores, i) {
			return 1
		}
		return 0
	}
}

// Which cores take tickFull, per core: on the quiet node each awake core
// takes it at most once in 1000 ticks, to arm; a write sends exactly the
// cores it reaches through it, for exactly one tick, on which they arm
// again; and a cap move sends every awake core through it once.
func TestSteadyStepCounts(t *testing.T) {
	m, _ := warmNode(t)
	none := only()

	// Once at most: a core's budget may run out.
	full, unarmed := tickFullOver(m, 1000)
	expectFull(t, m, "1000 ticks with no input change", full, unarmed, func(i int) int { return min(full[i], 1) })

	if err := m.SetRequest(9, m.chip.Freq.Min); err != nil {
		t.Fatal(err)
	}
	full, unarmed = tickFullOver(m, 1)
	expectFull(t, m, "the tick after one SetRequest", full, unarmed, only(9))
	full, unarmed = tickFullOver(m, 10)
	expectFull(t, m, "the ten after that", full, unarmed, none)

	// The cap moves at the end of a tick, at most once a limiter interval
	// (two ticks): every awake core takes tickFull on the tick after a move
	// and arms again there.
	m.SetPowerLimit(m.chip.RAPLMin)
	for before, n := m.limiter.Cap(), 0; m.limiter.Cap() == before; n++ {
		if n == 100 {
			t.Fatal("the limiter's cap never moved")
		}
		full, unarmed = tickFullOver(m, 1)
		expectFull(t, m, "until the cap moves", full, unarmed, none)
	}
	moved := m.limiter.Cap()
	full, unarmed = tickFullOver(m, 1)
	expectFull(t, m, "the tick after a cap move", full, unarmed, func(int) int { return 1 })
	if m.limiter.Cap() == moved {
		full, unarmed = tickFullOver(m, 1)
		expectFull(t, m, "the tick after that", full, unarmed, none)
	}
}

// What the runs serve, per core: on the quiet node every tick of every
// awake core but the one that arms it; a core whose phases turn over every
// few tens of ticks ends only its own run; and two instances that trade
// cores end both runs.
func TestSteadyRunCounts(t *testing.T) {
	m, awake := warmNode(t)

	before := m.served
	full, _ := tickFullOver(m, 1000)
	n := 0
	for _, f := range full {
		n += f
	}
	if served := m.served - before; served != awake*1000-n {
		t.Fatalf("1000 quiet ticks: runs served %d core-ticks, want %d", served, awake*1000-n)
	}

	// Re-pin core 9 with phases a few tens of ticks long: its budget ends
	// at every phase end, and no other core's run may end with it.
	short := workload.MustByName("gcc")
	short.Name = "short-phased"
	perTick := short.IPS(m.chip.Freq.Nom) * m.dt.Seconds()
	short.Phases = []workload.Phase{
		{Instructions: 20 * perTick, CPIMult: 1.00, ActivityMult: 1.00},
		{Instructions: 30 * perTick, CPIMult: 1.20, ActivityMult: 1.10},
		{Instructions: 40 * perTick, CPIMult: 0.90, ActivityMult: 0.95},
	}
	m.Unpin(9)
	if err := m.Pin(workload.NewInstance(short), 9); err != nil {
		t.Fatal(err)
	}
	tickFullOver(m, 1)
	full, _ = tickFullOver(m, 1000)
	if full[9] < 20 {
		t.Fatalf("the short-phased core took tickFull %d times in 1000 ticks, want a phase end every few tens", full[9])
	}
	for i := range m.cores {
		if i != 9 && !m.cores[i].idle && full[i] > 1 {
			t.Fatalf("core %d left its run %d times in 1000 ticks beside the short-phased core 9, want at most once", i, full[i])
		}
	}

	// Two instances of unphased, non-AVX profiles with the same move count
	// trade cores between two ticks, at the requests their cores had: every
	// other input to the cores' keys holds, and the runs must end anyway.
	a, b := m.App(4), m.App(7)
	if a.Moves() != b.Moves() {
		t.Fatalf("cores 4 and 7 moved %d and %d times; the swap needs them equal", a.Moves(), b.Moves())
	}
	ra, rb := m.Request(4), m.Request(7)
	m.Unpin(4)
	m.Unpin(7)
	for _, err := range []error{m.Pin(b, 4), m.Pin(a, 7), m.SetRequest(4, ra), m.SetRequest(7, rb)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	full, unarmed := tickFullOver(m, 1)
	expectFull(t, m, "the tick after two instances trade cores", full, unarmed, only(4, 7))
}
