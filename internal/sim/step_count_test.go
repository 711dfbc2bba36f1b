package sim

import (
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

// The steady path's own count: on the quiet node every awake core takes it
// every tick, and an input that moves sends exactly the cores it reaches
// down the full path, for exactly the one tick that re-derives their memo.
func TestSteadyStepCounts(t *testing.T) {
	m, awake := warmNode(t)
	steadyOver := func(ticks int) int {
		before := m.steady
		for i := 0; i < ticks; i++ {
			m.Step()
		}
		return m.steady - before
	}
	expect := func(when string, got, want int) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: %d steady core-ticks, want %d", when, got, want)
		}
	}

	expect("1000 ticks with no input change", steadyOver(1000), awake*1000)

	if err := m.SetRequest(9, m.chip.Freq.Min); err != nil {
		t.Fatal(err)
	}
	expect("the tick after one SetRequest", steadyOver(1), awake-1)
	expect("the ten after that", steadyOver(10), awake*10)

	// The cap moves at the end of a tick, at most once a limiter interval
	// (two ticks): every awake core leaves the steady path on the tick
	// after a move and takes it again on the next.
	m.SetPowerLimit(m.chip.RAPLMin)
	for before, n := m.limiter.Cap(), 0; m.limiter.Cap() == before; n++ {
		if n == 100 {
			t.Fatal("the limiter's cap never moved")
		}
		expect("until the cap moves", steadyOver(1), awake)
	}
	expect("the tick after a cap move", steadyOver(1), 0)
	expect("the tick after that", steadyOver(1), awake)
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

// The run's own count: on the quiet node a run, once armed, serves every
// tick until the budget of the instance nearest a run end is spent; a
// write of a control input costs exactly one full tick before the next
// arming, and so does a cap move.
func TestSteadyRunCounts(t *testing.T) {
	m, awake := warmNode(t)
	type counts struct{ full, armed, steady, runCores int }
	over := func(ticks int) counts {
		before, steady, cores := m.runs, m.steady, m.runs.cores
		for i := 0; i < ticks; i++ {
			m.Step()
		}
		return counts{
			full:     ticks - (m.runs.ticks - before.ticks),
			armed:    m.runs.armed - before.armed,
			steady:   m.steady - steady,
			runCores: m.runs.cores - cores,
		}
	}

	if c := over(1000); c.armed > 1 || c.full > c.armed || c.runCores != awake*(1000-c.full) {
		t.Fatalf("1000 ticks with no input change: %+v, want at most one arming, on the only full tick", c)
	}

	if err := m.SetRequest(9, m.chip.Freq.Min); err != nil {
		t.Fatal(err)
	}
	if c := over(1); c != (counts{full: 1, steady: awake - 1}) {
		t.Fatalf("the tick after one SetRequest: %+v, want one full tick with core 9 alone off the steady path", c)
	}
	if c := over(1); c != (counts{full: 1, armed: 1, steady: awake}) {
		t.Fatalf("the tick after that: %+v, want the one arming tick", c)
	}
	if c := over(10); c != (counts{steady: awake * 10, runCores: awake * 10}) {
		t.Fatalf("the ten after that: %+v, want all ten in the run", c)
	}

	// A cap move ends the run: the tick after it re-derives every awake
	// core, and the one after that arms again. The cap moves at the end of
	// a tick, at most once a limiter interval (two ticks), so the run that
	// arming starts is cut by the next move.
	m.SetPowerLimit(m.chip.RAPLMin)
	for before, n := m.limiter.Cap(), 0; m.limiter.Cap() == before; n++ {
		if n == 100 {
			t.Fatal("the limiter's cap never moved")
		}
		if c := over(1); c.full != 0 {
			t.Fatalf("until the cap moves: %+v, want every tick in the run", c)
		}
	}
	if c := over(1); c != (counts{full: 1}) {
		t.Fatalf("the tick after a cap move: %+v, want one full tick, no core steady", c)
	}
	if c := over(1); c != (counts{full: 1, armed: 1, steady: awake}) {
		t.Fatalf("the tick after that: %+v, want the one arming tick", c)
	}
}
