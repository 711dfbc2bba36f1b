// Package sim is the discrete-time simulation engine: it advances a Machine
// (one socket of a platform chip plus pinned workload instances) in fixed
// ticks, resolving each core's effective frequency from its P-state request,
// the RAPL cap, the AVX licence and the turbo grant, charging power and
// instructions, and exposing the whole state through the msr.Device
// interface so that the policy daemon interacts with the simulated machine
// exactly the way the paper's daemon interacted with silicon.
package sim

import (
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/cpu"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/msr"
	"repro/internal/platform"
	"repro/internal/rapl"
	"repro/internal/units"
	"repro/internal/workload"
)

// Option configures a Machine.
type Option func(*Machine)

// WithTick sets the simulation tick (default 1 ms).
func WithTick(dt time.Duration) Option {
	return func(m *Machine) { m.dt = dt }
}

// WithEnergyUnit sets the RAPL energy-status unit exponent (default 14,
// i.e. 61 µJ counts as on Skylake server parts).
func WithEnergyUnit(esu uint) Option {
	return func(m *Machine) { m.unit = msr.EnergyUnit{ESU: esu} }
}

// WithMetrics instruments the machine (and its RAPL limiter) on reg: tick
// counts, C-state sleep/wake transitions, and transitions of the
// constraint binding each core's effective frequency (turbo grant, AVX
// licence, RAPL cap). A nil registry disables instrumentation.
func WithMetrics(reg *metrics.Registry) Option {
	return func(m *Machine) { m.reg = reg }
}

// WithFlightRecorder attaches the flight recorder: the machine drives the
// recorder's clock from virtual time, taps every MSR access on its device,
// logs C-state sleep/wake and binding-constraint (turbo, AVX licence,
// RAPL cap) transitions, wires the RAPL limiter's throttle/release events,
// and contributes the machine description to the dump metadata. A nil
// recorder disables recording.
func WithFlightRecorder(rec *flight.Recorder) Option {
	return func(m *Machine) { m.flight = rec }
}

// Machine is one simulated socket.
type Machine struct {
	chip platform.Chip
	// cores is every core's state, one record a core, held by value.
	cores   []core
	idles   []coreIdle
	limiter *rapl.Limiter

	// thermalCap models a thermal excursion: a package-wide frequency
	// clamp the firmware imposes regardless of P-state requests, RAPL
	// state, or turbo grants. Zero means no excursion.
	thermalCap units.Hertz

	clock time.Duration
	dt    time.Duration
	cps   int // cores per socket
	unit  msr.EnergyUnit
	cal   clock.Calendar // fired at the end of the tick that reaches an entry
	// sec and nomCycles are the tick in seconds and the nominal cycles a
	// tick holds, fixed once the options set dt.
	sec, nomCycles float64
	// sumSince is when every core's Σ effective frequency was restarted.
	sumSince time.Duration
	// energySocket holds cumulative energy per RAPL domain: one entry per
	// socket (a single entry on single-socket chips). PkgEnergyStatus reads
	// on cpu i report i's socket domain, as on real multi-socket machines.
	energySocket []units.Joules
	// activeSock is per-Step scratch for per-socket C0 occupancy: turbo
	// bins are a socket-local resource, so core i's grant depends only on
	// its own socket's active count.
	activeSock []int
	dev        *msr.SimDevice
	// misses counts memo recomputations and steady the core-ticks that took
	// the steady path; both are for the count gates in the tests.
	misses struct{ freq, power int }
	steady int

	// Optional instrumentation; nil handles no-op.
	reg          *metrics.Registry
	flight       *flight.Recorder
	mTicks       *metrics.Counter
	mCStateTrans *metrics.CounterVec
	mFreqConstr  *metrics.CounterVec
}

// constraint is a binding constraint's flight code (flight.ConstraintIdle …
// flight.ConstraintThermal), in a byte.
type constraint uint8

// freqKey is every input to a core's frequency resolution.
type freqKey struct {
	request, cap, thermal units.Hertz
	active                int32 // C0 cores on the core's socket
	avx                   bool
}

// core is one core's whole state, laid out for a steady tick, which reads
// and adds in this one record: its control inputs, the C-state fields the
// steady check reads, the memo of what it last derived, and what a tick
// adds to. It is the state itself, not a cache of it: no other place holds
// a copy to keep in step.
//
// The memo remembers what the core's last tick derived from inputs that
// move on an actuation, a limiter step or a phase change, not on a tick.
// It is compared by key on every use and never invalidated by a setter, so
// no path that changes an input can forget to: a new input to resolve or
// to power.Model.CorePower joins the key and Step's steady check, and
// TestStepMatchesReference fails if it does not.
type core struct {
	app     *workload.Instance // nil when unoccupied
	request units.Hertz        // the OS-requested P-state (IA32_PERF_CTL)
	// wakePending is the exit latency still owed from the last wake.
	wakePending time.Duration
	// idle parks the core in a deep C-state: it executes nothing and draws
	// only residual power. offline marks a core that has died mid-run
	// (hot-unplug, MCE): it executes nothing and stays parked until brought
	// back online. wasActive is whether it was in C0 last tick.
	idle, offline, wasActive bool
	// constr is resolve's constraint for key; lastConstr the one last
	// recorded (metrics, flight) for the core.
	constr, lastConstr constraint

	key freqKey
	eff units.Hertz // resolve(key)
	// power == chip.Power.CorePower(powerF, activity)
	powerF   units.Hertz
	activity float64
	power    units.Watts

	lastEff units.Hertz // effective frequency of the previous tick
	freqSum float64     // Σ effective frequency since sumSince
	cpu.Counters
}

// coreIdle holds the rest of a core's C-state machinery, what only a sleep,
// a wake or an idle tick reads: the menu-style state chosen at idle entry
// (from an EWMA prediction of idle length), promotion to deeper states as
// the actual residency grows, and the residency per state.
type coreIdle struct {
	idleSince time.Duration
	state     int // index into chip.CStates; -1 while active or without a table
	predict   time.Duration
	residency []time.Duration
}

// New builds a machine for the chip with all cores idle at the nominal
// frequency.
func New(chip platform.Chip, opts ...Option) (*Machine, error) {
	if err := chip.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	m := &Machine{
		chip:         chip,
		dt:           time.Millisecond,
		cps:          chip.CoresPerSocket(),
		unit:         msr.EnergyUnit{ESU: 14},
		energySocket: make([]units.Joules, chip.Sockets()),
		activeSock:   make([]int, chip.Sockets()),
	}
	for _, o := range opts {
		o(m)
	}
	if m.dt <= 0 {
		return nil, fmt.Errorf("sim: tick must be positive, got %v", m.dt)
	}
	m.sec, m.nomCycles = m.dt.Seconds(), chip.Freq.Nom.Cycles(m.dt)
	m.cores = make([]core, chip.NumCores)
	m.idles = make([]coreIdle, chip.NumCores)
	for i := range m.cores {
		// No occupancy: the first lookup misses.
		m.cores[i] = core{request: chip.Freq.Nom, idle: true, key: freqKey{active: -1}}
		// Cores start idle-since-boot: deepest state, like real firmware
		// parks unused cores.
		m.idles[i].state = len(chip.CStates) - 1
		m.idles[i].residency = make([]time.Duration, len(chip.CStates))
	}
	var err error
	m.limiter, err = rapl.New(chip.Freq)
	if err != nil {
		return nil, err
	}
	if m.reg != nil {
		m.mTicks = m.reg.Counter("sim_ticks_total", "Simulation steps executed.")
		m.mCStateTrans = m.reg.CounterVec("sim_cstate_transitions_total",
			"Core C-state sleep/wake transitions.", "kind")
		m.mFreqConstr = m.reg.CounterVec("sim_freq_constraint_transitions_total",
			"Transitions of the constraint binding a core's effective frequency.", "constraint")
		m.limiter.Instrument(m.reg)
	}
	m.wireMSRs()
	if m.flight != nil {
		m.dev.SetRecorder(m.flight)
		m.flight.SetClock(m.Now)
		m.limiter.Flight(m.flight)
		m.flight.MergeMeta(flight.Meta{
			Chip:         chip.Name,
			NumCores:     chip.NumCores,
			TickNS:       m.dt.Nanoseconds(),
			NomHz:        float64(chip.Freq.Nom),
			ESU:          m.unit.ESU,
			PerCorePower: chip.PerCorePower,
		})
	}
	return m, nil
}

// Chip returns the machine's platform configuration.
func (m *Machine) Chip() platform.Chip { return m.chip }

// FreqStep returns the chip's P-state quantisation step, what a PERF_CTL
// value is encoded against.
func (m *Machine) FreqStep() units.Hertz { return m.chip.Freq.Step }

// Now returns the virtual time elapsed.
func (m *Machine) Now() time.Duration { return m.clock }

// Device returns the machine's MSR interface.
func (m *Machine) Device() msr.Device { return m.dev }

// Limiter returns the machine's RAPL controller.
func (m *Machine) Limiter() *rapl.Limiter { return m.limiter }

// Pin places an application instance on a core and wakes the core at the
// chip's nominal frequency. It fails if the core is occupied or out of
// range.
func (m *Machine) Pin(in *workload.Instance, core int) error {
	if core < 0 || core >= len(m.cores) {
		return fmt.Errorf("sim: core %d out of range [0,%d)", core, len(m.cores))
	}
	c := &m.cores[core]
	if c.app != nil {
		return fmt.Errorf("sim: core %d already runs %s", core, c.app.Profile.Name)
	}
	if err := in.Profile.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	in.Pin = core
	c.app, c.idle, c.request = in, false, m.chip.Freq.Nom
	return nil
}

// Unpin removes the application from a core and idles the core.
func (m *Machine) Unpin(core int) {
	if core < 0 || core >= len(m.cores) {
		return
	}
	m.cores[core].app, m.cores[core].idle = nil, true
}

// App returns the instance pinned to core, or nil.
func (m *Machine) App(core int) *workload.Instance {
	if core < 0 || core >= len(m.cores) {
		return nil
	}
	return m.cores[core].app
}

// SetRequest programs a core's P-state request, quantised to the chip's
// step. This is what the daemon's actuator ultimately calls (through the
// PERF_CTL MSR).
func (m *Machine) SetRequest(core int, f units.Hertz) error {
	if core < 0 || core >= len(m.cores) {
		return fmt.Errorf("sim: core %d out of range", core)
	}
	m.cores[core].request = m.chip.Freq.Quantize(f)
	return nil
}

// Request reports a core's current P-state request.
func (m *Machine) Request(core int) units.Hertz { return m.cores[core].request }

// SetIdle forces a core in or out of a deep C-state. Idling a core that
// hosts an application suspends the application (the paper's priority
// policy starves low-priority applications this way). Offline cores cannot
// be woken.
func (m *Machine) SetIdle(core int, idle bool) error {
	if core < 0 || core >= len(m.cores) {
		return fmt.Errorf("sim: core %d out of range", core)
	}
	c := &m.cores[core]
	if !idle && c.offline {
		return fmt.Errorf("sim: core %d is offline", core)
	}
	if !idle && c.app == nil {
		return fmt.Errorf("sim: core %d has no application to wake", core)
	}
	c.idle = idle
	return nil
}

// Idle reports whether a core is parked.
func (m *Machine) Idle(core int) bool { return m.cores[core].idle }

// SetThermalCap imposes (or, with zero, lifts) a package-wide thermal
// frequency clamp: every core's effective frequency is limited to f no
// matter what is requested or granted, the way a thermal excursion forces
// an abrupt frequency collapse on real silicon.
func (m *Machine) SetThermalCap(f units.Hertz) {
	if f < 0 {
		f = 0
	}
	m.thermalCap = f
}

// ThermalCap reports the active thermal clamp (0 when none).
func (m *Machine) ThermalCap() units.Hertz { return m.thermalCap }

// SetOffline takes a core out of (or returns it to) service mid-run. An
// offline core executes nothing — it behaves like a dead core — and
// SetIdle cannot wake it. Bringing a core back online resumes its pinned
// application, if any.
func (m *Machine) SetOffline(core int, off bool) error {
	if core < 0 || core >= len(m.cores) {
		return fmt.Errorf("sim: core %d out of range", core)
	}
	c := &m.cores[core]
	c.offline = off
	if off {
		c.idle = true
	} else if c.app != nil {
		c.idle = false
	}
	return nil
}

// Offline reports whether a core is out of service.
func (m *Machine) Offline(core int) bool {
	if core < 0 || core >= len(m.cores) {
		return false
	}
	return m.cores[core].offline
}

// SetPowerLimit programs the RAPL package limit (zero disables). On chips
// without a documented hardware limiter this still drives the simulated
// limiter; callers modelling the paper's Ryzen setup simply leave it at
// zero and enforce limits in the daemon instead.
func (m *Machine) SetPowerLimit(w units.Watts) { m.limiter.SetLimit(w) }

// ActiveCores counts cores currently in C0: awake and online.
func (m *Machine) ActiveCores() int {
	n := 0
	for _, s := range m.fillActiveSock() {
		n += s
	}
	return n
}

// fillActiveSock recounts C0 occupancy per socket into the preallocated
// scratch and returns it. Turbo occupancy is socket-local: the grant for
// core i is computed against its own socket's count only.
func (m *Machine) fillActiveSock() []int {
	for s := range m.activeSock {
		n := 0
		cores := m.cores[s*m.cps : (s+1)*m.cps]
		for i := range cores {
			if !cores[i].idle && !cores[i].offline {
				n++
			}
		}
		m.activeSock[s] = n
	}
	return m.activeSock
}

// EffectiveFreq reports the frequency a core ran at during the last tick.
func (m *Machine) EffectiveFreq(core int) units.Hertz { return m.cores[core].lastEff }

// ResetMeanFreq restarts every core's MeanFreq at the current time.
func (m *Machine) ResetMeanFreq() {
	for i := range m.cores {
		m.cores[i].freqSum = 0
	}
	m.sumSince = m.clock
}

// MeanFreq reports a core's mean effective frequency over the ticks since
// ResetMeanFreq (or New): 0, the empty sum, before the first of them.
func (m *Machine) MeanFreq(core int) units.Hertz {
	ticks := float64((m.clock - m.sumSince) / m.dt)
	return units.Hertz(m.cores[core].freqSum / max(ticks, 1))
}

// Counters returns a core's architectural counter snapshot.
func (m *Machine) Counters(core int) cpu.Counters { return m.cores[core].Counters }

// PackageEnergy returns cumulative package energy, summed over sockets.
func (m *Machine) PackageEnergy() units.Joules {
	var sum units.Joules
	for _, e := range m.energySocket {
		sum += e
	}
	return sum
}

// CoreEnergy returns cumulative energy of one core.
func (m *Machine) CoreEnergy(core int) units.Joules { return m.cores[core].Energy }

// PackagePower computes the instantaneous package power for the machine's
// current state (same calculation the next Step will charge).
func (m *Machine) PackagePower() units.Watts {
	act := m.fillActiveSock()
	cap := m.limiter.Cap()
	var total units.Watts
	for i := range m.cores {
		eff, _ := m.frequency(&m.cores[i], act[i/m.cps], cap)
		total += m.corePowerAt(i, eff)
	}
	return total + m.chip.Power.UncorePower*units.Watts(len(act))
}

// At schedules fn for the end of the first tick that reaches virtual time
// t: the next tick when t has passed.
func (m *Machine) At(t time.Duration, fn func()) { m.cal.At(t, fn) }

// Every schedules fn for the end of each tick at which at least period has
// passed since it last fired (or was scheduled), and passes it that time.
func (m *Machine) Every(period time.Duration, fn func(elapsed time.Duration)) {
	m.cal.Every(m.clock, period, fn)
}

// OnTick schedules fn for the end of every tick and passes it the tick: it
// is Every with the tick as period.
func (m *Machine) OnTick(fn func(dt time.Duration)) { m.Every(m.dt, fn) }

// frequency resolves the frequency core c would run at now, and the
// constraint binding it (idle for a parked or offline core),
// given its socket's C0 core count and the limiter's cap.
func (m *Machine) frequency(c *core, active int, cap units.Hertz) (units.Hertz, constraint) {
	if c.idle || c.offline {
		return 0, constraint(flight.ConstraintIdle)
	}
	k := freqKey{c.request, cap, m.thermalCap, int32(active), c.app != nil && c.app.Profile.AVX}
	if c.key != k {
		m.misses.freq++
		c.key = k
		c.eff, c.constr = m.resolve(k)
	}
	return c.eff, c.constr
}

// resolve is the pure function behind the frequency memo: what a core with
// these inputs runs at, and which of them bound it. One ceiling lookup and
// one quantisation of the request serve both answers.
func (m *Machine) resolve(k freqKey) (units.Hertz, constraint) {
	spec := m.chip.Freq
	active := int(k.active)
	ceil := spec.Ceiling(active, k.avx)
	quant := spec.Quantize(k.request)

	// The constraint: the OS request, the RAPL cap, the AVX licence, the
	// turbo grant or a thermal excursion, judged level by level against
	// the quantised request.
	bound, constr := quant, flight.ConstraintRequest
	if k.cap > 0 && k.cap < bound {
		bound, constr = k.cap, flight.ConstraintRAPLCap
	}
	if ceil < bound {
		bound, constr = ceil, flight.ConstraintTurbo
		if k.avx && ceil < spec.Ceiling(active, false) {
			constr = flight.ConstraintAVXLicence
		}
	}
	if k.thermal > 0 && k.thermal < bound {
		constr = flight.ConstraintThermal
	}

	// The frequency: the minimum of the raw request, the cap and the
	// ceiling, quantised, which is the quantised request when neither came
	// in under it.
	f := k.request
	if k.cap > 0 && k.cap < f {
		f = k.cap
	}
	if ceil < f {
		f = ceil
	}
	eff := quant
	if f != k.request {
		eff = spec.Quantize(f)
	}
	if k.thermal > 0 && eff > k.thermal {
		// A thermal clamp is not bound to P-state steps: the hardware
		// drops to whatever frequency the excursion dictates.
		eff = k.thermal
	}
	return eff, constraint(constr)
}

// corePowerAt returns the instantaneous draw of core i at frequency f.
func (m *Machine) corePowerAt(i int, f units.Hertz) units.Watts {
	c := &m.cores[i]
	if c.idle || f <= 0 {
		return m.idlePower(i)
	}
	activity := 1.0
	if c.app != nil {
		activity = c.app.CurrentActivity()
	}
	if c.powerF != f || c.activity != activity {
		m.misses.power++
		c.powerF, c.activity = f, activity
		c.power = m.chip.Power.CorePower(f, activity)
	}
	return c.power
}

// idlePower returns the residual draw of an idle core: the resident
// C-state's power, or the flat model value on chips without a table.
func (m *Machine) idlePower(i int) units.Watts {
	if s := m.idles[i].state; s >= 0 && s < len(m.chip.CStates) {
		return m.chip.CStates[s].Power
	}
	return m.chip.Power.IdleCorePower
}

// CurrentCState reports the index (into Chip().CStates) of the core's
// resident idle state, or -1 while active or without a table.
func (m *Machine) CurrentCState(core int) int { return m.idles[core].state }

// CStateResidency reports per-state idle residency of a core, aligned with
// Chip().CStates.
func (m *Machine) CStateResidency(core int) []time.Duration {
	return append([]time.Duration(nil), m.idles[core].residency...)
}

// stepIdle advances core i's C-state machinery for a tick in which the
// core's activity is activeNow, returning the wake-latency debt to charge
// against this tick's execution.
func (m *Machine) stepIdle(i int, activeNow bool, dt time.Duration) time.Duration {
	c, id := &m.cores[i], &m.idles[i]
	table := m.chip.CStates
	switch {
	case activeNow && !c.wasActive:
		// Wake: pay the resident state's exit latency and update the
		// idle-length prediction (EWMA, menu-governor style).
		if id.state >= 0 && id.state < len(table) {
			c.wakePending = table[id.state].ExitLatency
		}
		idleLen := m.clock - id.idleSince
		id.predict = (id.predict*7 + idleLen*3) / 10
		m.flight.Record(flight.Event{
			Kind: flight.KindCStateWake, Source: flight.SourceSim, Core: int16(i),
			Arg: uint32(id.state + 1), Value: uint64(c.wakePending),
		})
		id.state = -1
		m.mCStateTrans.With("wake").Inc()
	case !activeNow && c.wasActive:
		// Sleep: menu selection on the predicted idle length.
		id.state = cpu.SelectCState(table, id.predict)
		id.idleSince = m.clock
		m.flight.Record(flight.Event{
			Kind: flight.KindCStateSleep, Source: flight.SourceSim, Core: int16(i),
			Value: uint64(id.state),
		})
		m.mCStateTrans.With("sleep").Inc()
	}
	if !activeNow && id.state >= 0 && id.state < len(table) {
		// Residency promotion: once the core has provably idled past a
		// deeper state's target residency, move down.
		for id.state+1 < len(table) &&
			m.clock-id.idleSince >= table[id.state+1].TargetResidency {
			id.state++
		}
		id.residency[id.state] += dt
	}
	c.wasActive = activeNow
	debt := min(c.wakePending, dt)
	c.wakePending -= debt
	return debt
}

// Step advances the machine one tick. What is the same for every core —
// the tick in seconds, nominal cycles a tick, the limiter's cap — is read
// once; what a core derives from slow-moving inputs comes from its memo.
func (m *Machine) Step() {
	dt, sec, nomCycles := m.dt, m.sec, m.nomCycles
	cap, thermal := m.limiter.Cap(), m.thermalCap
	uncore := m.chip.Power.UncorePower
	act := m.fillActiveSock()
	cps := m.cps
	full := 0
	m.mTicks.Inc()
	var pkg units.Watts
	for sock, active := range act {
		var sockPower units.Watts
		cores := m.cores[sock*cps : (sock+1)*cps]
		for j := range cores {
			c := &cores[j]
			// A steady core would derive exactly what its memo holds, with
			// nothing for stepIdle to do: pinned, awake and online, active
			// last tick with no wake debt, the frequency key and the
			// recorded constraint unchanged, and the power memo taken at
			// the memo's frequency and the phase's activity. This is the
			// memo's own compare, made before the calls instead of inside
			// them; what it skips, only the adds remain.
			if a := c.app; a != nil && !c.idle && !c.offline && c.wasActive && c.wakePending == 0 &&
				c.key.request == c.request && c.key.cap == cap && c.key.thermal == thermal &&
				c.key.active == int32(active) && c.key.avx == a.Profile.AVX &&
				c.lastConstr == c.constr &&
				c.powerF == c.eff && c.activity == a.CurrentActivity() {
				c.lastEff = c.eff
				c.freqSum += float64(c.eff)
				sockPower += c.power
				e := units.Joules(float64(c.power) * sec)
				c.Account(c.eff, nomCycles, dt, sec, a.AdvanceSec(c.eff, sec), e)
				continue
			}
			full++
			sockPower += m.tickFull(c, sock*cps+j, active, cap, sec, nomCycles)
		}
		// Close out the socket's energy domain.
		sockPower += uncore
		m.energySocket[sock] += units.Joules(float64(sockPower) * sec)
		pkg += sockPower
	}
	m.steady += len(m.cores) - full
	m.limiter.Observe(pkg, dt)
	m.clock += dt
	if m.clock >= m.cal.Next() {
		m.cal.Fire(m.clock)
	}
}

// tickFull is core i's tick off the steady path, where every rate is
// derived: it resolves the frequency through the memo, records a change of
// binding constraint, steps the C-state machinery, charges the counters
// and returns the core's power for the tick.
func (m *Machine) tickFull(c *core, i, active int, cap units.Hertz, sec, nomCycles float64) units.Watts {
	dt := m.dt
	eff, constr := m.frequency(c, active, cap)
	if constr != c.lastConstr {
		c.lastConstr = constr
		if constr != constraint(flight.ConstraintIdle) {
			m.mFreqConstr.With(flight.ConstraintFromCode(uint32(constr))).Inc()
			m.flight.Record(flight.Event{
				Kind: flight.KindConstraint, Source: flight.SourceSim,
				Core: int16(i), Arg: uint32(constr),
			})
		}
	}
	debt := m.stepIdle(i, eff > 0, dt)
	if debt > 0 && eff > 0 {
		// The wake exit latency eats into this tick's execution: model it
		// as a proportionally slower tick (zero if the whole tick is
		// consumed by the exit).
		eff = units.Hertz(float64(eff) * (1 - float64(debt)/float64(dt)))
	}
	c.lastEff = eff
	c.freqSum += float64(eff)
	p := m.corePowerAt(i, eff)
	e := units.Joules(float64(p) * sec)
	var instr float64
	if c.app != nil && !c.idle {
		instr = c.app.AdvanceSec(eff, sec)
	}
	c.Account(eff, nomCycles, dt, sec, instr, e)
	return p
}

// Run advances the machine for a duration of virtual time, in whole ticks:
// it steps until the clock reaches its start plus d, so a d that is not a
// multiple of the tick overshoots by less than one tick (Run(1500µs) on a
// 1 ms tick advances the clock 2 ms), and no remainder carries over.
func (m *Machine) Run(d time.Duration) {
	end := m.clock + d
	for m.clock < end {
		m.Step()
	}
}

// checkCPU refuses a CPU the machine does not have, for every register.
func (m *Machine) checkCPU(cpu int) error {
	if cpu < 0 || cpu >= len(m.cores) {
		return fmt.Errorf("sim: cpu %d out of range", cpu)
	}
	return nil
}

// readCounters serves per-core counter register reg as an msr.SweepFunc: it
// fills vals for cpus first, first+1, … from the core counters, checking
// the range once. A single-CPU read of reg is its one-value case.
func (m *Machine) readCounters(reg uint32, first int, vals []uint64) (int, error) {
	if err := m.checkCPU(first); err != nil {
		return 0, err
	}
	n := min(len(vals), len(m.cores)-first)
	cores, out := m.cores[first:first+n], vals[:n]
	switch reg {
	case msr.IA32Aperf:
		for i := range cores {
			out[i] = uint64(cores[i].APERF)
		}
	case msr.IA32Mperf:
		for i := range cores {
			out[i] = uint64(cores[i].MPERF)
		}
	case msr.IA32FixedCtr0:
		for i := range cores {
			out[i] = uint64(cores[i].Instr)
		}
	case msr.PP0EnergyStatus:
		if m.chip.PerCorePower {
			for i := range cores {
				out[i] = m.unit.ToCounts(cores[i].Energy)
			}
			break
		}
		// Without per-core measurement the PP0 domain reports the sum of
		// the addressed CPU's socket cores, as on Skylake.
		for i := range out {
			base := (first + i) / m.cps * m.cps
			var sum units.Joules
			for j := base; j < base+m.cps; j++ {
				sum += m.cores[j].Energy
			}
			out[i] = m.unit.ToCounts(sum)
		}
	}
	if n < len(vals) {
		return n, m.checkCPU(first + n)
	}
	return n, nil
}

// wireMSRs connects the architectural registers to machine state.
func (m *Machine) wireMSRs() {
	d := msr.NewSimDevice()
	// The per-core counters a sampler sweeps every interval are served a
	// whole sweep at a time.
	for _, reg := range []uint32{msr.IA32Aperf, msr.IA32Mperf, msr.IA32FixedCtr0, msr.PP0EnergyStatus} {
		d.OnReadSweep(reg,
			func(cpu int) (uint64, error) {
				var v [1]uint64
				_, err := m.readCounters(reg, cpu, v[:])
				return v[0], err
			},
			func(first int, vals []uint64) (int, error) { return m.readCounters(reg, first, vals) })
	}
	d.OnRead(msr.IA32PerfCtl, func(cpu int) (uint64, error) {
		if err := m.checkCPU(cpu); err != nil {
			return 0, err
		}
		return msr.EncodePerfCtl(m.cores[cpu].request, m.chip.Freq.Step), nil
	})
	d.OnWrite(msr.IA32PerfCtl, func(cpu int, val uint64) error {
		if err := m.checkCPU(cpu); err != nil {
			return err
		}
		return m.SetRequest(cpu, msr.DecodePerfCtl(val, m.chip.Freq.Step))
	})
	d.OnRead(msr.IA32PerfStatus, func(cpu int) (uint64, error) {
		if err := m.checkCPU(cpu); err != nil {
			return 0, err
		}
		return msr.EncodePerfCtl(m.cores[cpu].lastEff, m.chip.Freq.Step), nil
	})
	d.OnRead(msr.RAPLPowerUnit, func(cpu int) (uint64, error) {
		if err := m.checkCPU(cpu); err != nil {
			return 0, err
		}
		return msr.EncodePowerUnit(m.unit), nil
	})
	d.OnRead(msr.PkgEnergyStatus, func(cpu int) (uint64, error) {
		if err := m.checkCPU(cpu); err != nil {
			return 0, err
		}
		// The package energy domain is per-socket: a read through cpu i
		// reports i's socket counter, as on real multi-socket machines
		// (single-socket chips have exactly one domain, so any cpu works).
		return m.unit.ToCounts(m.energySocket[cpu/m.cps]), nil
	})
	d.OnRead(msr.PkgPowerLimit, func(cpu int) (uint64, error) {
		if err := m.checkCPU(cpu); err != nil {
			return 0, err
		}
		return msr.EncodePowerLimit(m.limiter.Limit(), m.limiter.Limit() > 0), nil
	})
	d.OnWrite(msr.PkgPowerLimit, func(cpu int, val uint64) error {
		if err := m.checkCPU(cpu); err != nil {
			return err
		}
		if !m.chip.HardwareRAPLLimit {
			return fmt.Errorf("sim: %s has no documented RAPL limit interface", m.chip.Name)
		}
		w, enable := msr.DecodePowerLimit(val)
		if !enable {
			w = 0
		}
		m.SetPowerLimit(w.Clamp(0, m.chip.RAPLMax))
		return nil
	})
	m.dev = d
}
