package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/msr"
	"repro/internal/platform"
	"repro/internal/units"
	"repro/internal/workload"
)

// Test-only reference for the memoised Step: stepRef is Step as it stood
// before the per-core memo and the hoisted tick constants — every core
// re-derives its effective frequency (effectiveRef), its binding constraint
// (constraintForRef) and its power (corePowerAtRef) every tick, and every
// conversion of the tick to seconds is made where it is used. A change that
// moves Step's results on purpose moves stepRef with it; a new input to the
// frequency resolution or to core power that does not join the memo key
// fails TestStepMatchesReference.

func (m *Machine) effectiveRef(i int, active int) units.Hertz {
	c := &m.cores[i]
	if c.idle || c.offline {
		return 0
	}
	avx := false
	if a := c.app; a != nil {
		avx = a.Profile.AVX
	}
	f := min(c.request, m.chip.Freq.Ceiling(active, avx))
	if clamp := m.limiter.Cap(); clamp > 0 {
		f = min(f, clamp)
	}
	f = m.chip.Freq.Quantize(f)
	if m.thermalCap > 0 && f > m.thermalCap {
		f = m.thermalCap
	}
	return f
}

func (m *Machine) corePowerAtRef(i int, f units.Hertz) units.Watts {
	c := &m.cores[i]
	if c.idle || f <= 0 {
		return m.idlePower(i)
	}
	activity := 1.0
	if a := c.app; a != nil {
		activity = a.CurrentActivity()
	}
	return m.chip.Power.CorePower(f, activity)
}

func (m *Machine) constraintForRef(i, active int) uint32 {
	c := &m.cores[i]
	if c.idle || c.offline {
		return flight.ConstraintIdle
	}
	a := c.app
	avx := a != nil && a.Profile.AVX
	f := m.chip.Freq.Quantize(c.request)
	constraint := flight.ConstraintRequest
	if cap := m.limiter.Cap(); cap > 0 && cap < f {
		f = cap
		constraint = flight.ConstraintRAPLCap
	}
	if ceil := m.chip.Freq.Ceiling(active, avx); ceil < f {
		f = ceil
		if avx && ceil < m.chip.Freq.Ceiling(active, false) {
			constraint = flight.ConstraintAVXLicence
		} else {
			constraint = flight.ConstraintTurbo
		}
	}
	if m.thermalCap > 0 && m.thermalCap < f {
		constraint = flight.ConstraintThermal
	}
	return constraint
}

func (m *Machine) fillActiveSockRef() []int {
	for s := range m.activeSock {
		m.activeSock[s] = 0
	}
	cps := m.chip.CoresPerSocket()
	for i := range m.cores {
		if c := &m.cores[i]; !c.idle && !c.offline {
			m.activeSock[i/cps]++
		}
	}
	return m.activeSock
}

func (m *Machine) packagePowerRef() units.Watts {
	act := m.fillActiveSockRef()
	cps := m.chip.CoresPerSocket()
	var total units.Watts
	for i := range m.cores {
		total += m.corePowerAtRef(i, m.effectiveRef(i, act[i/cps]))
	}
	return total + m.chip.Power.UncorePower*units.Watts(m.chip.Sockets())
}

func (m *Machine) stepRef() {
	dt := m.dt
	act := m.fillActiveSockRef()
	cps := m.chip.CoresPerSocket()
	m.mTicks.Inc()
	var pkg units.Watts
	var sockPower units.Watts
	sock := 0
	for i := range m.cores {
		c := &m.cores[i]
		if i/cps != sock {
			sockPower += m.chip.Power.UncorePower
			m.energySocket[sock] += sockPower.Energy(dt)
			pkg += sockPower
			sockPower = 0
			sock = i / cps
		}
		active := act[sock]
		eff := m.effectiveRef(i, active)
		if constr := m.constraintForRef(i, active); constr != uint32(c.lastConstr) {
			c.lastConstr = constraint(constr)
			if constr != flight.ConstraintIdle {
				m.mFreqConstr.With(flight.ConstraintFromCode(constr)).Inc()
				m.flight.Record(flight.Event{
					Kind: flight.KindConstraint, Source: flight.SourceSim,
					Core: int16(i), Arg: constr,
				})
			}
		}
		debt := m.stepIdle(i, eff > 0, dt)
		if debt > 0 && eff > 0 {
			eff = units.Hertz(float64(eff) * (1 - float64(debt)/float64(dt)))
		}
		c.lastEff = eff
		c.freqSum += float64(eff)
		p := m.corePowerAtRef(i, eff)
		sockPower += p
		e := p.Energy(dt)
		var instr float64
		if a := c.app; a != nil && !c.idle {
			instr = a.Advance(eff, dt)
		}
		c.Account(eff, m.chip.Freq.Nom.Cycles(dt), dt, dt.Seconds(), instr, e)
	}
	sockPower += m.chip.Power.UncorePower
	m.energySocket[sock] += sockPower.Energy(dt)
	pkg += sockPower
	m.limiter.Observe(pkg, dt)
	m.clock += dt
	if m.clock >= m.cal.Next() {
		m.cal.Fire(m.clock)
	}
}

// refProfiles is the mix the reference churn pins: phased (long SPEC phases
// and a train short enough to turn over every few ticks, with a run that
// restarts), AVX and the cpuburn power virus.
func refProfiles() []workload.Profile {
	churny := workload.MustByName("gcc")
	churny.Name = "churny"
	churny.TotalInstructions = 4e8
	churny.Phases = []workload.Phase{
		{Instructions: 7e6, CPIMult: 1.00, ActivityMult: 1.00},
		{Instructions: 3e6, CPIMult: 1.20, ActivityMult: 1.10},
		{Instructions: 5e6, CPIMult: 0.90, ActivityMult: 0.95},
	}
	return []workload.Profile{
		workload.MustByName("gcc"), workload.MustByName("cam4"),
		workload.MustByName("leela"), workload.MustByName("cactusBSSN"),
		workload.MustByName("povray"), workload.CPUBurn, churny,
	}
}

// refRig is one of the two identically built machines of the reference
// test, with the handles its observable state is read through.
type refRig struct {
	m        *Machine
	rec      *flight.Recorder
	counters []namedCounter // every sim_* and rapl_* counter series
	capMHz   *metrics.Gauge
	seen     uint64 // flight events already compared
}

type namedCounter struct {
	name string
	*metrics.Counter
}

func newRefRig(t *testing.T, chip platform.Chip, observed bool, tick time.Duration) *refRig {
	t.Helper()
	r := &refRig{}
	opts := []Option{WithTick(tick)}
	if observed {
		reg := metrics.NewRegistry()
		r.rec = flight.New(0)
		opts = append(opts, WithMetrics(reg), WithFlightRecorder(r.rec))
		for _, name := range []string{"sim_ticks_total", "rapl_throttle_events_total", "rapl_release_events_total"} {
			r.counters = append(r.counters, namedCounter{name, reg.Counter(name, "")})
		}
		for _, kind := range []string{"wake", "sleep"} {
			r.counters = append(r.counters,
				namedCounter{kind, reg.CounterVec("sim_cstate_transitions_total", "", "kind").With(kind)})
		}
		for _, c := range []string{"request", "rapl-cap", "avx-licence", "turbo", "thermal"} {
			r.counters = append(r.counters,
				namedCounter{c, reg.CounterVec("sim_freq_constraint_transitions_total", "", "constraint").With(c)})
		}
		r.capMHz = reg.Gauge("rapl_cap_mhz", "")
	}
	m, err := New(chip, opts...)
	if err != nil {
		t.Fatal(err)
	}
	r.m = m
	return r
}

// churn applies one seeded control action to the machine. The two rigs are
// handed generators in the same state, so they see the same action.
func churn(m *Machine, rng *rand.Rand, profiles []workload.Profile) {
	chip := m.chip
	core := rng.Intn(chip.NumCores)
	// Off the P-state grid and outside [Min, Max] on purpose: the request
	// path quantises, the thermal clamp does not.
	anyFreq := func() units.Hertz {
		return chip.Freq.Min/2 + units.Hertz(rng.Float64())*(chip.Freq.Max()+200*units.MHz-chip.Freq.Min/2)
	}
	switch rng.Intn(15) {
	case 0, 1:
		_ = m.SetRequest(core, anyFreq())
	case 2:
		_ = m.dev.Write(core, msr.IA32PerfCtl, msr.EncodePerfCtl(anyFreq(), chip.Freq.Step))
	case 3:
		_ = m.SetIdle(core, rng.Intn(2) == 0) // waking an empty or offline core fails on both
	case 4:
		_ = m.SetOffline(core, rng.Intn(3) == 0)
	case 5:
		if rng.Intn(2) == 0 {
			m.SetThermalCap(0)
		} else {
			m.SetThermalCap(anyFreq())
		}
	case 6, 7:
		// A limit inside the chip's window makes the limiter's cap walk;
		// zero reopens it.
		if rng.Intn(4) == 0 {
			m.SetPowerLimit(0)
		} else {
			m.SetPowerLimit(chip.RAPLMin + units.Watts(rng.Float64())*(chip.RAPLMax-chip.RAPLMin))
		}
	case 8, 9:
		p := profiles[rng.Intn(len(profiles))]
		if m.App(core) == nil {
			_ = m.Pin(workload.NewInstance(p), core)
		}
	case 10:
		m.Unpin(core)
	case 11:
		// A burst: every core re-requested in one tick, as a policy does.
		for c := 0; c < chip.NumCores; c++ {
			_ = m.SetRequest(c, anyFreq())
		}
	case 12:
		// PackagePower fills the memo for the request just written, so
		// that the next Step finds it current.
		_ = m.SetRequest(core, anyFreq())
		m.PackagePower()
	case 13:
		// The instance moves outside Step.
		if a := m.App(core); a != nil {
			a.Reset()
		}
	case 14:
		if a := m.App(core); a != nil {
			a.Advance(anyFreq(), time.Duration(rng.Intn(3000))*time.Microsecond)
		}
	}
}

// diff reports the first observable difference between the memoised machine
// and the reference one, or "". The flight event count is held every tick;
// the events themselves are compared before half a ring of them has gone
// by uncompared (so none is overwritten unseen) and when last is set.
func (got *refRig) diff(want *refRig, last bool) string {
	g, w := got.m, want.m
	for i := range g.cores {
		if g.EffectiveFreq(i) != w.EffectiveFreq(i) {
			return fmt.Sprintf("core %d EffectiveFreq %v, reference %v", i, float64(g.EffectiveFreq(i)), float64(w.EffectiveFreq(i)))
		}
		if g.Counters(i) != w.Counters(i) {
			return fmt.Sprintf("core %d Counters %+v, reference %+v", i, g.Counters(i), w.Counters(i))
		}
		if g.MeanFreq(i) != w.MeanFreq(i) {
			return fmt.Sprintf("core %d MeanFreq %v, reference %v", i, float64(g.MeanFreq(i)), float64(w.MeanFreq(i)))
		}
		if g.CoreEnergy(i) != w.CoreEnergy(i) {
			return fmt.Sprintf("core %d CoreEnergy %v, reference %v", i, float64(g.CoreEnergy(i)), float64(w.CoreEnergy(i)))
		}
		if g.CurrentCState(i) != w.CurrentCState(i) {
			return fmt.Sprintf("core %d C-state %d, reference %d", i, g.CurrentCState(i), w.CurrentCState(i))
		}
		ga, wa := g.App(i), w.App(i)
		if (ga == nil) != (wa == nil) {
			return fmt.Sprintf("core %d occupancy differs", i)
		}
		if ga != nil && (ga.TotalInstructions() != wa.TotalInstructions() ||
			ga.Progress() != wa.Progress() || ga.RunsCompleted() != wa.RunsCompleted()) {
			return fmt.Sprintf("core %d instance progress differs", i)
		}
	}
	for s := range g.energySocket {
		if g.energySocket[s] != w.energySocket[s] {
			return fmt.Sprintf("socket %d energy %v, reference %v", s, float64(g.energySocket[s]), float64(w.energySocket[s]))
		}
	}
	if g.Limiter().Cap() != w.Limiter().Cap() {
		return fmt.Sprintf("limiter cap %v, reference %v", g.Limiter().Cap(), w.Limiter().Cap())
	}
	// PackagePower reads through the memo Step fills, and fills it for
	// Step; two ticks in three Step meets a memo only Step has touched.
	if g.clock/g.dt%3 == 0 {
		if gp, wp := g.PackagePower(), w.packagePowerRef(); gp != wp {
			return fmt.Sprintf("PackagePower %v, reference %v", float64(gp), float64(wp))
		}
	}
	for i, c := range got.counters {
		if c.Value() != want.counters[i].Value() {
			return fmt.Sprintf("counter %s reads %v, reference %v", c.name, c.Value(), want.counters[i].Value())
		}
	}
	if got.capMHz != nil && got.capMHz.Value() != want.capMHz.Value() {
		return fmt.Sprintf("rapl_cap_mhz %v, reference %v", got.capMHz.Value(), want.capMHz.Value())
	}
	if got.rec.Total() != want.rec.Total() {
		return fmt.Sprintf("%d flight events, reference %d", got.rec.Total(), want.rec.Total())
	}
	if n := got.rec.Total(); n-got.seen > flight.DefaultCapacity/2 || last {
		got.seen = n
		ge, we := got.rec.Snapshot(), want.rec.Snapshot()
		if len(ge) != len(we) {
			return fmt.Sprintf("%d retained flight events, reference %d", len(ge), len(we))
		}
		for i := range ge {
			ge[i].Wall, we[i].Wall = 0, 0
			if ge[i] != we[i] {
				return fmt.Sprintf("flight event %+v, reference %+v", ge[i], we[i])
			}
		}
	}
	return ""
}

func TestStepMatchesReference(t *testing.T) {
	chips := []platform.Chip{
		platform.Skylake(), platform.Ryzen(),
		platform.MultiSocket(platform.ScaleSocket(platform.Skylake(), 64), 2),
	}
	const ticks = 20000
	// One action every eighth tick on average reaches every mechanism the
	// memo stands in front of. One every 500th leaves quiet cores in their
	// runs for long stretches across phase ends, app restarts and limiter
	// walks, at a tick shorter than the deep C-states' exit latencies, so
	// that a wake's debt spans several ticks.
	for _, every := range []int{8, 500} {
		tick := time.Millisecond
		if every != 8 {
			tick = 100 * time.Microsecond
		}
		for ci, chip := range chips {
			for _, observed := range []bool{true, false} {
				chip, observed, seed := chip, observed, int64(23+ci)
				name := fmt.Sprintf("%s/observed=%v", chip.Name, observed)
				if every != 8 {
					name += "/quiet"
				}
				t.Run(name, func(t *testing.T) {
					got, want := newRefRig(t, chip, observed, tick), newRefRig(t, chip, observed, tick)
					grng, wrng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
					profiles := refProfiles()
					// Start three quarters full, so the churn has something
					// to throttle, park and unplug from the first tick.
					for c := 0; c < chip.NumCores*3/4; c++ {
						p := profiles[c%len(profiles)]
						if err := got.m.Pin(workload.NewInstance(p), c); err != nil {
							t.Fatal(err)
						}
						if err := want.m.Pin(workload.NewInstance(p), c); err != nil {
							t.Fatal(err)
						}
					}
					for tick := 0; tick < ticks; tick++ {
						// Quiet stretches between actions are where a stale
						// memo would be served; sometimes several actions
						// land at once.
						for grng.Intn(every) == 0 {
							churn(got.m, grng, profiles)
						}
						for wrng.Intn(every) == 0 {
							churn(want.m, wrng, profiles)
						}
						got.m.Step()
						want.m.stepRef()
						if d := got.diff(want, tick == ticks-1); d != "" {
							t.Fatalf("tick %d: %s", tick, d)
						}
					}
					if every != 8 {
						// The quiet run is there for the runs: they must have
						// served a good part of the core-ticks.
						if n := ticks * chip.NumCores; got.m.served < n*2/5 {
							t.Errorf("%d of %d core-ticks in a run, want at least two fifths", got.m.served, n)
						}
						return
					}
					// The churn must have reached every mechanism the memo
					// stands in front of: limiter moves both ways, sleeps
					// and wakes, and each binding constraint.
					licence := false // Zen 1 has no AVX licence to bind on
					for _, b := range chip.Freq.Turbo {
						licence = licence || b.AVX < b.Normal
					}
					for _, c := range got.counters {
						if c.Value() == 0 && (licence || c.name != "avx-licence") {
							t.Errorf("%s never moved: the churn does not cover it", c.name)
						}
					}
				})
			}
		}
	}
}

// FuzzStepMatchesReference runs a script of control calls against the
// memoised machine and the reference one and holds them to the same
// observable state every tick. The first byte picks the chip, the second
// whether it is observed (registry and flight recorder) and the tick (1 ms
// or 100 µs, shorter than a deep C-state's exit latency); the rest is read
// four bytes a call: ticks to run before it, the call, the core, and its
// argument.
func FuzzStepMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 5, 0, 3, 40, 200, 4, 2, 120, 3, 5, 1, 0, 250, 1, 2, 0})
	f.Add([]byte{1, 3, 2, 2, 1, 0, 30, 2, 1, 1, 100, 2, 1, 0, 180, 0, 5, 90})
	f.Add([]byte{2, 1, 1, 4, 0, 200, 20, 6, 9, 0, 60, 5, 9, 3, 0, 3, 0, 0, 90, 1, 9, 1})
	f.Add([]byte{0, 0, 9, 3, 0, 255, 40, 3, 0, 0, 40, 4, 0, 60, 30, 4, 0, 0})
	f.Add([]byte{0, 1, 48, 4, 0, 48}) // a limit the cap walks down to
	// Runs on Ryzen at 100 µs ended by a Reset and an Advance from outside
	// Step of a churny instance pinned for them, and by a request read back
	// through PackagePower.
	f.Add([]byte{1, 3, 2, 5, 6, 6, 40, 8, 6, 0, 40, 9, 6, 255, 30, 7, 2, 200})
	chips := []platform.Chip{
		platform.Skylake(), platform.Ryzen(),
		platform.MultiSocket(platform.ScaleSocket(platform.Skylake(), 12), 2),
	}
	const maxTicks = 3000
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		chip := chips[int(data[0])%len(chips)]
		tick := time.Millisecond
		if data[1]&2 != 0 {
			tick = 100 * time.Microsecond
		}
		observed := data[1]&1 != 0
		got, want := newRefRig(t, chip, observed, tick), newRefRig(t, chip, observed, tick)
		profiles := refProfiles()
		// Three quarters full, so that cores arm runs from the start.
		for c := 0; c < chip.NumCores*3/4; c++ {
			p := profiles[c%len(profiles)]
			if err := got.m.Pin(workload.NewInstance(p), c); err != nil {
				t.Fatal(err)
			}
			if err := want.m.Pin(workload.NewInstance(p), c); err != nil {
				t.Fatal(err)
			}
		}
		ticks := 0
		run := func(n int) {
			for ; n > 0 && ticks < maxTicks; n-- {
				got.m.Step()
				want.m.stepRef()
				ticks++
				if d := got.diff(want, false); d != "" {
					t.Fatalf("tick %d: %s", ticks, d)
				}
			}
		}
		script := data[2:]
		for ; len(script) >= 4 && ticks < maxTicks; script = script[4:] {
			run(int(script[0]))
			call, core, arg := script[1], int(script[2])%chip.NumCores, script[3]
			for _, m := range []*Machine{got.m, want.m} {
				scriptCall(m, call, core, arg, profiles)
			}
		}
		// Long enough for a limiter walk and a wake's debt to play out.
		run(200)
		if d := got.diff(want, true); d != "" {
			t.Fatalf("end: %s", d)
		}
	})
}

// scriptCall applies one scripted control call to m; arg scales a
// frequency or a power limit over the chip's range (zero lifts a cap or a
// limit), picks a profile, says on or off, or gives an Advance its time in
// tens of microseconds.
func scriptCall(m *Machine, call byte, core int, arg byte, profiles []workload.Profile) {
	chip := m.chip
	frac := float64(arg) / 255
	// Off the P-state grid and outside [Min, Max], as the churn's are.
	freq := chip.Freq.Min/2 + units.Hertz(frac)*(chip.Freq.Max()+200*units.MHz-chip.Freq.Min/2)
	switch call % 10 {
	case 0:
		_ = m.SetRequest(core, freq)
	case 1:
		_ = m.SetIdle(core, arg&1 == 0)
	case 2:
		_ = m.SetOffline(core, arg&1 != 0)
	case 3:
		if arg == 0 {
			freq = 0
		}
		m.SetThermalCap(freq)
	case 4:
		limit := units.Watts(0)
		if arg != 0 {
			limit = chip.RAPLMin + units.Watts(frac)*(chip.RAPLMax-chip.RAPLMin)
		}
		m.SetPowerLimit(limit)
	case 5:
		if m.App(core) == nil {
			_ = m.Pin(workload.NewInstance(profiles[int(arg)%len(profiles)]), core)
		}
	case 6:
		m.Unpin(core)
	case 7:
		_ = m.SetRequest(core, freq)
		m.PackagePower()
	case 8:
		if a := m.App(core); a != nil {
			a.Reset()
		}
	case 9:
		if a := m.App(core); a != nil {
			a.Advance(freq, time.Duration(arg)*10*time.Microsecond)
		}
	}
}
