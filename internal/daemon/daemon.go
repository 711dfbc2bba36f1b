// Package daemon implements the paper's userspace control daemon
// (Section 5): every control interval (1 second in the paper) it samples
// processor statistics — package (and, on Ryzen, per-core) power, retired
// instructions, and actual frequency — through the MSR device, hands the
// snapshot to the configured policy, and actuates the returned per-core
// P-state requests and park decisions.
//
// The daemon runs in two modes. Virtual mode is an entry on a sim.Machine's
// calendar and fires on virtual time — deterministic, used by all
// experiments. Real-time mode runs on a wall-clock ticker against any
// msr.Device (including the file-backed one) and records per-iteration
// scheduling jitter, making control-loop disturbances (GC pauses, scheduler
// noise — the known risk for a Go control loop) observable.
//
// Faults degrade the loop; they do not stop it. A core whose counters lie
// or cannot be read is isolated — the policy keeps seeing its last good
// state, actuation drops to the chip's safe floor — and is readmitted after
// readmitAfter clean intervals; a failed write is counted and the request
// re-issued. Only a start-up at which not one action can be applied or not
// one core read fails (see Start).
package daemon

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/metrics/decisions"
	"repro/internal/msr"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Actuator applies policy actions to the machine.
type Actuator interface {
	// SetFreq programs a core's P-state request.
	SetFreq(core int, f units.Hertz) error
	// Park forces a core into (or out of) a deep C-state.
	Park(core int, parked bool) error
}

// freqBatcher is the optional batch method apply looks for on its Actuator:
// SetFreqs programs cores[i]'s P-state request to freqs[i] for every i in
// one call, leaving each write's result in errs[i] and returning the first
// failure; vals is scratch for the encoded requests, and the four slices
// have one length. MachineActuator and MSRActuator have it; an Actuator
// without it — a wrapper, a test double — is driven one SetFreq per core.
type freqBatcher interface {
	SetFreqs(cores []int, freqs []units.Hertz, vals []uint64, errs []error) error
}

// MachineActuator actuates a simulated machine: P-state requests go through
// the PERF_CTL MSR (the same path the real daemon uses) and park decisions
// through the machine's C-state control.
type MachineActuator struct {
	M *sim.Machine

	// Dev, when set, is the device P-state writes go through instead of
	// the machine's own — chaos runs pass the fault injector's wrapper
	// here so writes to an offline core fail like they would on hardware.
	Dev msr.Device
}

// device is where P-state writes go.
func (a MachineActuator) device() msr.Device {
	if a.Dev == nil {
		return a.M.Device()
	}
	return a.Dev
}

// SetFreq implements Actuator via an MSR write.
func (a MachineActuator) SetFreq(core int, f units.Hertz) error {
	return a.device().Write(core, msr.IA32PerfCtl, msr.EncodePerfCtl(f, a.M.FreqStep()))
}

// SetFreqs programs a batch of P-state requests as one PERF_CTL write batch
// (see freqBatcher): one dispatch on a device that is an msr.BatchWriter.
func (a MachineActuator) SetFreqs(cores []int, freqs []units.Hertz, vals []uint64, errs []error) error {
	return writePerfCtl(a.device(), a.M.FreqStep(), cores, freqs, vals, errs)
}

// Park implements Actuator via C-state control.
func (a MachineActuator) Park(core int, parked bool) error {
	if !parked && a.M.Idle(core) && a.M.App(core) == nil {
		return nil // nothing to wake
	}
	if parked == a.M.Idle(core) {
		return nil
	}
	return a.M.SetIdle(core, parked)
}

// MSRActuator actuates through a bare MSR device (e.g. the file-backed
// tree). Parking has no MSR, so Park fails; policies that starve require a
// richer actuator.
type MSRActuator struct {
	Dev  msr.Device
	Step units.Hertz
}

// SetFreq implements Actuator.
func (a MSRActuator) SetFreq(core int, f units.Hertz) error {
	return a.Dev.Write(core, msr.IA32PerfCtl, msr.EncodePerfCtl(f, a.Step))
}

// SetFreqs programs a batch of P-state requests as one PERF_CTL write batch
// (see freqBatcher).
func (a MSRActuator) SetFreqs(cores []int, freqs []units.Hertz, vals []uint64, errs []error) error {
	return writePerfCtl(a.Dev, a.Step, cores, freqs, vals, errs)
}

// writePerfCtl encodes freqs into vals and writes them to cores' PERF_CTL.
func writePerfCtl(dev msr.Device, step units.Hertz, cores []int, freqs []units.Hertz, vals []uint64, errs []error) error {
	for i, f := range freqs {
		vals[i] = msr.EncodePerfCtl(f, step)
	}
	return msr.WriteBatch(dev, msr.IA32PerfCtl, cores, vals, errs)
}

// Park implements Actuator by failing: C-states are not reachable through
// the P-state MSRs.
func (a MSRActuator) Park(core int, parked bool) error {
	if !parked {
		return nil
	}
	return fmt.Errorf("daemon: MSR actuator cannot park core %d", core)
}

// Config assembles a daemon.
type Config struct {
	Chip     platform.Chip
	Policy   core.Policy
	Apps     []core.AppSpec
	Limit    units.Watts   // package power limit the policy enforces
	Interval time.Duration // control interval; default 1 s (the paper's)

	// OnSnapshot, when set, observes every control interval's snapshot
	// after the policy has been applied — the hook time-series recorders
	// (e.g. the stability study) attach to. The snapshot's Apps slice is
	// owned by the daemon's double-buffered reuse pool: it is valid during
	// the call and until the next-but-one control interval, after which the
	// loop overwrites it in place. Hooks that retain it must copy.
	OnSnapshot func(core.Snapshot)

	// Metrics, when set, instruments the control loop (iteration counts
	// and latency, actuations, limit changes, jitter) and the underlying
	// telemetry sampler on the given registry.
	Metrics *metrics.Registry

	// Journal, when set, receives one decision entry per control interval:
	// the observed snapshot, the actions emitted, and — when the policy
	// implements core.Explainer — the machine-readable reasons behind them.
	Journal *decisions.Journal

	// Flight, when set, records every policy decision (one event per typed
	// reason) and every actuation into the flight recorder, tags all
	// events — including the MSR traffic recorded underneath — with the
	// control-interval id, and contributes the control-plane description
	// to dump metadata. Nil disables recording.
	Flight *flight.Recorder

	// Triggers configures automatic flight dumps; the zero value disables
	// them. Triggers require Flight to be set.
	Triggers FlightTriggers

	// Ledger, when set, receives every control interval's telemetry for
	// per-app energy attribution, time-series history, anomaly detection,
	// and cost accounting. The daemon feeds it outside the loop lock (the
	// ledger has its own); Reconfigure rebinds it when the app set
	// changes. Nil disables energy accounting.
	Ledger *ledger.Ledger

	// SLO, when set, feeds per-service latency telemetry (p50/p90/p99,
	// arrival rate, queue depth, loss counters) into every snapshot the
	// policy sees. svc.Model implements this; any latency service can.
	// Like Apps, the slice handed to the policy lives in a double-buffered
	// reuse pool — OnSnapshot hooks that retain it must copy.
	SLO SLOSource

	// SLOTargets are the p99 objectives the daemon stamps onto the
	// service telemetry by name each interval, overriding whatever target
	// the source itself reported.
	SLOTargets []core.SLOTarget
}

// SLOSource supplies per-service latency/SLO telemetry for snapshots.
// FillServiceSLO appends one entry per service to dst and returns the
// extended slice; implementations must not retain dst.
type SLOSource interface {
	FillServiceSLO(dst []core.ServiceSLO) []core.ServiceSLO
}

// FlightTriggers are the daemon-side conditions that snapshot the flight
// recorder to a dump file, turning an anomaly into an offline test case.
type FlightTriggers struct {
	// Dir is where trigger dumps are written (default ".").
	Dir string

	// OverLimitFor fires a dump when observed package power has exceeded
	// the enforced limit for at least this long of run time, continuously.
	// The trigger re-arms when power falls back under the limit. Zero
	// disables.
	OverLimitFor time.Duration

	// IterationSLO fires a dump when one control iteration's wall-clock
	// latency (sample + policy + actuate) exceeds this budget. After
	// firing, the trigger holds off for SLOCooldownIters iterations so a
	// sustained breach produces one dump, not a dump per iteration. Zero
	// disables.
	IterationSLO time.Duration

	// OnDump, when set, observes every trigger firing: the dump path (or
	// an empty string when writing failed), the trigger reason, and the
	// write error if any.
	OnDump func(path, reason string, err error)
}

// SLOCooldownIters is how many iterations the latency trigger holds off
// after firing.
const SLOCooldownIters = 100

// daemonMetrics holds the daemon's metric handles. All handles are
// nil-receiver safe, so a daemon built without a registry pays one nil
// check per event.
type daemonMetrics struct {
	iterations   *metrics.Counter
	iterSeconds  *metrics.Histogram
	jitterSec    *metrics.Histogram
	actuations   *metrics.CounterVec
	sampleErrors *metrics.Counter
	limitWatts   *metrics.Gauge
	limitChanges *metrics.Counter
	pkgWatts     *metrics.Gauge
	parkedCores  *metrics.Gauge
	phaseSeconds *metrics.HistogramVec

	// Cached vec children: With allocates its variadic key per call, so the
	// hot path holds the resolved handles instead.
	actPark      *metrics.Counter
	actWake      *metrics.Counter
	actSetFreq   *metrics.Counter
	actUnchanged *metrics.Counter
	phaseSample  *metrics.Histogram
	phaseDecide  *metrics.Histogram
	phaseActuate *metrics.Histogram

	degradedCores     *metrics.Gauge
	degradedIntervals *metrics.Counter
	readmissions      *metrics.Counter
	actuationErrors   *metrics.Counter
	safeFloorActions  *metrics.Counter

	reconfigures *metrics.Counter
}

func newDaemonMetrics(reg *metrics.Registry) daemonMetrics {
	if reg == nil {
		return daemonMetrics{}
	}
	m := daemonMetrics{
		iterations:   reg.Counter("powerd_iterations_total", "Completed control-loop iterations."),
		iterSeconds:  reg.Histogram("powerd_iteration_seconds", "Wall-clock time spent in one control iteration (sample + policy + actuate).", metrics.DefBuckets),
		jitterSec:    reg.Histogram("powerd_jitter_seconds", "Real-time loop lateness per iteration (actual minus nominal interval).", metrics.DefBuckets),
		actuations:   reg.CounterVec("powerd_actuations_total", "Actuations by kind: park, wake, setfreq (P-state registers written), unchanged (requests elided because the register already held the value).", "kind"),
		sampleErrors: reg.Counter("powerd_sample_errors_total", "Control iterations aborted by a telemetry sampling error."),
		limitWatts:   reg.Gauge("powerd_limit_watts", "Package power limit currently enforced."),
		limitChanges: reg.Counter("powerd_limit_changes_total", "Times the enforced power limit was changed via SetLimit."),
		pkgWatts:     reg.Gauge("powerd_package_power_watts", "Package power observed at the last control interval."),
		parkedCores:  reg.Gauge("powerd_parked_cores", "Cores currently parked by policy decision."),
		phaseSeconds: reg.HistogramVec("powerd_phase_seconds", "Wall-clock time of one control-iteration phase.", metrics.DefBuckets, "phase"),

		degradedCores:     reg.Gauge("powerd_degraded_cores", "Cores currently isolated from policy control by untrustworthy telemetry."),
		degradedIntervals: reg.Counter("powerd_degraded_intervals_total", "Control intervals that ran with at least one degraded core or a blind package counter."),
		readmissions:      reg.Counter("powerd_readmissions_total", "Cores re-admitted to policy control after sustained healthy telemetry."),
		actuationErrors:   reg.Counter("powerd_actuation_errors_total", "Actuations that failed and were tolerated."),
		safeFloorActions:  reg.Counter("powerd_safe_floor_actions_total", "Actions overridden to the safe P-state floor."),

		reconfigures: reg.Counter("powerd_reconfigures_total", "Live reconfigurations applied to the running daemon."),
	}
	m.actPark = m.actuations.With("park")
	m.actWake = m.actuations.With("wake")
	m.actSetFreq = m.actuations.With("setfreq")
	m.actUnchanged = m.actuations.With("unchanged")
	m.phaseSample = m.phaseSeconds.With("sample")
	m.phaseDecide = m.phaseSeconds.With("decide")
	m.phaseActuate = m.phaseSeconds.With("actuate")
	return m
}

// Daemon is the control loop.
type Daemon struct {
	cfg     Config
	dev     msr.Device
	act     Actuator
	sampler *telemetry.Sampler
	m       daemonMetrics

	// mu guards all mutable state below so HTTP status readers (the obs
	// server's /debug/status) can observe a live loop without racing it.
	mu         sync.RWMutex
	parked     []bool        // indexed by core id
	written    []units.Hertz // per core, the request last programmed; 0 = unknown (see apply)
	iterations int
	last       core.Snapshot
	started    bool
	iterErr    error

	// Hot-path reuse buffers. appsBuf double-buffers the snapshot's Apps
	// slice the same way the telemetry sampler double-buffers its Sample:
	// RunIteration flips between the two, so the snapshot it returns (and
	// hands to OnSnapshot) stays intact for one further interval while
	// readers that go through the lock (StatusView, LastSnapshot) always
	// copy. Each entry's Spec is laid down once per app set, by
	// sizeAppBuffers; an interval writes only the numbers. scrHandled is
	// per-core flag scratch; scrOverride is the action buffer
	// overrideDegraded rewrites into.
	appsBuf     [2][]core.AppState
	appSet      uint64 // the snapshots' AppSet: drawn from appSets per app set
	appsFlip    int
	svcBuf      [2][]core.ServiceSLO
	svcFlip     int
	scrHandled  []bool
	scrOverride []core.Action

	// lastPhases is the sample/decide/actuate wall-clock breakdown of the
	// most recent completed iteration (guarded by mu) — what round tracing
	// stitches into node-side span trees.
	lastPhases PhaseLatencies

	// Flight-dump trigger state (guarded by mu).
	overSince  time.Duration // run time power first exceeded the limit; -1 while under
	overFired  bool          // over-limit dump already taken this excursion
	sloHoldoff int           // iterations until the latency trigger re-arms

	// Degraded-mode state (guarded by mu), per core id.
	health   []coreHealth // health state machine of the app on the core
	lastGood []goodState  // last trustworthy policy input from the core

	// Jitter is summarised by a streaming accumulator (mean/max) plus a
	// fixed-size reservoir (percentiles), so real-time loops of any length
	// run in constant memory.
	jitterAcc stats.Accumulator
	jitterRes *stats.Reservoir

	// apply's scratch (guarded by mu), and act's batch method, nil when it
	// has none.
	batch   actBatch
	batcher freqBatcher
}

// New builds a daemon over an MSR device and actuator.
func New(cfg Config, dev msr.Device, act Actuator) (*Daemon, error) {
	if err := cfg.Chip.Validate(); err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("daemon: no policy")
	}
	if len(cfg.Apps) == 0 {
		return nil, fmt.Errorf("daemon: no applications")
	}
	if cfg.Limit <= 0 {
		return nil, fmt.Errorf("daemon: power limit must be positive")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	sampler, err := telemetry.NewSampler(dev, cfg.Chip.NumCores, cfg.Chip.Freq.Nom, cfg.Chip.PerCorePower)
	if err != nil {
		return nil, err
	}
	if err := sampler.SetSockets(cfg.Chip.Sockets()); err != nil {
		return nil, err
	}
	sampler.Instrument(cfg.Metrics)
	d := &Daemon{
		cfg:        cfg,
		dev:        dev,
		act:        act,
		sampler:    sampler,
		m:          newDaemonMetrics(cfg.Metrics),
		parked:     make([]bool, cfg.Chip.NumCores),
		written:    make([]units.Hertz, cfg.Chip.NumCores),
		scrHandled: make([]bool, cfg.Chip.NumCores),
		health:     make([]coreHealth, cfg.Chip.NumCores),
		lastGood:   make([]goodState, cfg.Chip.NumCores),
		jitterRes:  stats.NewReservoir(),
		overSince:  -1,
	}
	d.batcher, _ = act.(freqBatcher)
	d.batch.size(cfg.Chip.NumCores)
	d.sizeAppBuffers()
	d.m.limitWatts.Set(float64(cfg.Limit))
	d.mergeFlightMeta()
	return d, nil
}

// sizeAppBuffers (re)allocates the per-app reuse buffers for the current
// spec set and lays each app's Spec into both snapshot buffers; called at
// construction and when Reconfigure changes the apps. Caller holds d.mu
// after construction.
func (d *Daemon) sizeAppBuffers() {
	n := len(d.cfg.Apps)
	for k := range d.appsBuf {
		d.appsBuf[k] = make([]core.AppState, n)
		for i, spec := range d.cfg.Apps {
			d.appsBuf[k][i].Spec = spec
		}
	}
	d.appSet = appSets.Add(1)
	// overrideDegraded may emit one action per policy action plus one
	// safe-floor action per untouched app.
	d.scrOverride = make([]core.Action, 0, 2*n)
}

// appSets numbers app sets across every daemon in the process, so no two
// sets laid down anywhere share a core.Snapshot.AppSet.
var appSets atomic.Uint64

// mergeFlightMeta contributes the current control-plane description to the
// flight recorder's dump metadata; called at construction and again after a
// live reconfiguration so later dumps describe the plane that produced them.
func (d *Daemon) mergeFlightMeta() {
	if d.cfg.Flight == nil {
		return
	}
	apps := make([]flight.MetaApp, len(d.cfg.Apps))
	for i, a := range d.cfg.Apps {
		apps[i] = flight.MetaApp{
			Name: a.Name, Core: a.Core,
			Shares: int(a.Shares), HighPriority: a.HighPriority,
		}
	}
	d.cfg.Flight.MergeMeta(flight.Meta{
		Policy:     d.cfg.Policy.Name(),
		LimitWatts: float64(d.cfg.Limit),
		IntervalNS: d.cfg.Interval.Nanoseconds(),
		Apps:       apps,
	})
}

// microwatts encodes a power reading for an event payload.
func microwatts(w units.Watts) uint64 { return uint64(float64(w) * 1e6) }

// Start applies the policy's initial distribution and primes the sampler.
// A start-up at which not one initial action can be applied, or not one core
// primed, is a wrong device rather than a degraded one and fails with the
// first error; anything less degrades like any later interval.
func (d *Daemon) Start() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.started {
		return fmt.Errorf("daemon: already started")
	}
	initial := d.cfg.Policy.Initial()
	if failed, err := d.apply(initial); err != nil && failed == len(initial) {
		return fmt.Errorf("daemon: initial distribution: %w", err)
	}
	if err := d.sampler.Prime(); err != nil {
		return err
	}
	d.started = true
	return nil
}

// apply actuates a batch of policy actions, eliding every SetFreq that
// would rewrite the request d.written still vouches for (tallied as
// kind="unchanged"). An entry is forgotten by a failed write, a park or
// wake, an interval the core's sample is untrustworthy, and Reconfigure.
// Parks and wakes take effect at once; the P-state writes are queued and
// issued together by flushWrites, and the actions' flight events are
// committed as one batch in action order. A failed actuation (a core gone
// dark mid-write) costs a metric tick and its action, not the control loop:
// apply reports how many actions failed and the first error in action
// order, for Start to judge. Caller holds d.mu.
func (d *Daemon) apply(actions []core.Action) (failed int, first error) {
	b := &d.batch
	for k, a := range actions {
		if b.queued[a.Core] {
			// A core named twice (nothing stops a Policy from it): its
			// queued write lands before its next action.
			d.flushWrites()
		}
		if a.Park {
			d.written[a.Core] = 0
			if err := d.act.Park(a.Core, true); err != nil {
				b.fail(err, k)
				continue
			}
			d.parked[a.Core] = true
			b.parks++
			b.event(a.Core, flight.ActPark, 0)
			continue
		}
		if d.parked[a.Core] {
			d.written[a.Core] = 0
			if err := d.act.Park(a.Core, false); err != nil {
				b.fail(err, k)
				continue
			}
			d.parked[a.Core] = false
			b.wakes++
			b.event(a.Core, flight.ActWake, 0)
		}
		if d.written[a.Core] == a.Freq {
			b.unchanged++
			continue
		}
		d.written[a.Core] = 0 // a failed write leaves the register unknown
		b.queue(a.Core, a.Freq, k)
	}
	d.flushWrites()
	b.events = slices.DeleteFunc(b.events, unwritten)
	d.cfg.Flight.RecordBatch(flight.SourceDaemon, b.events)
	addCount(d.m.actPark, b.parks)
	addCount(d.m.actWake, b.wakes)
	addCount(d.m.actSetFreq, b.setFreqs)
	addCount(d.m.actUnchanged, b.unchanged)
	addCount(d.m.actuationErrors, b.failed)
	failed, first = b.failed, b.first
	b.reset()
	return failed, first
}

// flushWrites issues the queued P-state writes in one call — the actuator's
// batch method when it has one, one SetFreq per core otherwise — and settles
// each: d.written takes the request a write programmed, a failure is
// tallied and its set-freq event dropped. Caller holds d.mu.
func (d *Daemon) flushWrites() {
	b := &d.batch
	n := len(b.cores)
	if n == 0 {
		return
	}
	vals, errs := b.vals[:n], b.errs[:n]
	if d.batcher != nil {
		_ = d.batcher.SetFreqs(b.cores, b.freqs, vals, errs)
	} else {
		for i, c := range b.cores {
			errs[i] = d.act.SetFreq(c, b.freqs[i])
		}
	}
	for i, c := range b.cores {
		b.queued[c] = false
		if errs[i] != nil {
			b.fail(errs[i], b.at[i])
			b.events[b.ev[i]].Kind = 0 // apply drops it
			continue
		}
		d.written[c] = b.freqs[i]
		b.setFreqs++
	}
	clear(errs) // hold no error past its batch
	b.cores, b.freqs, b.ev, b.at = b.cores[:0], b.freqs[:0], b.ev[:0], b.at[:0]
}

// actBatch is apply's scratch and tally for one call. The queued P-state
// writes are in action order: cores[i] is to be programmed to freqs[i],
// ev[i] indexes its set-freq event in events and at[i] its action; vals and
// errs are the actuator's scratch and results, queued marks the cores
// waiting for a write. events holds the call's flight events; RunIteration
// borrows it for the decision marks before apply runs. Every slice keeps
// its capacity across calls, so an interval allocates nothing.
type actBatch struct {
	cores  []int
	freqs  []units.Hertz
	ev, at []int
	vals   []uint64
	errs   []error
	queued []bool
	events []flight.Event

	parks, wakes, setFreqs, unchanged, failed int
	first                                     error
	firstAt                                   int // action index of first
}

// size lays down the scratch for a chip of n cores: every core queued once,
// and up to two events (a wake and a set-freq) per core.
func (b *actBatch) size(n int) {
	b.cores, b.freqs = make([]int, 0, n), make([]units.Hertz, 0, n)
	b.ev, b.at = make([]int, 0, n), make([]int, 0, n)
	b.vals, b.errs = make([]uint64, n), make([]error, n)
	b.queued = make([]bool, n)
	b.events = make([]flight.Event, 0, 2*n)
}

// queue adds action k's write of f to core c, with its set-freq event.
func (b *actBatch) queue(c int, f units.Hertz, k int) {
	b.cores, b.freqs = append(b.cores, c), append(b.freqs, f)
	b.ev, b.at = append(b.ev, len(b.events)), append(b.at, k)
	b.queued[c] = true
	b.event(c, flight.ActSetFreq, uint64(f))
}

// event appends one actuation event on core c.
func (b *actBatch) event(c int, act uint32, value uint64) {
	b.events = append(b.events, flight.Event{
		Kind: flight.KindActuate, Source: flight.SourceDaemon,
		Core: int16(c), Arg: act, Value: value,
	})
}

// fail tallies action k's failure; the first error is the earliest action's.
func (b *actBatch) fail(err error, k int) {
	if b.failed++; b.first == nil || k < b.firstAt {
		b.first, b.firstAt = err, k
	}
}

// reset empties the events and zeroes the tally for the next call.
func (b *actBatch) reset() {
	b.events = b.events[:0]
	b.parks, b.wakes, b.setFreqs, b.unchanged, b.failed = 0, 0, 0, 0, 0
	b.first, b.firstAt = nil, 0
}

// unwritten reports a set-freq event whose write failed.
func unwritten(e flight.Event) bool { return e.Kind == 0 }

// addCount adds n to c, skipping the atomic when there is nothing to add.
func addCount(c *metrics.Counter, n int) {
	if n > 0 {
		c.Add(float64(n))
	}
}

// RunIteration performs one control interval of length dt: sample,
// policy update, actuate. It reads the host clock once; every phase mark
// after that is a monotonic offset from it.
func (d *Daemon) RunIteration(dt time.Duration) (core.Snapshot, error) {
	began := time.Now()
	d.mu.Lock()
	if !d.started {
		d.mu.Unlock()
		return core.Snapshot{}, fmt.Errorf("daemon: RunIteration before Start")
	}
	// Tag this interval's events — the sampling reads below included —
	// with its id, so the dump's span trees group sample→decide→actuate.
	d.cfg.Flight.BeginInterval(uint32(d.iterations + 1))
	sample, err := d.sampler.Sample(dt)
	if err != nil {
		d.mu.Unlock()
		d.m.sampleErrors.Inc()
		return core.Snapshot{}, err
	}
	d.appsFlip ^= 1
	snap := core.Snapshot{
		Time:         sample.At,
		Limit:        d.cfg.Limit,
		PackagePower: sample.PackagePower,
		Apps:         d.appsBuf[d.appsFlip],
		AppSet:       d.appSet,
	}
	nDegraded := 0
	for i := range d.cfg.Apps {
		// st.Spec was laid down with the app set: an interval writes the
		// numbers only. The core index comes from the daemon's own specs,
		// never from the snapshot a consumer may have written to.
		st := &snap.Apps[i]
		c := d.cfg.Apps[i].Core
		cs := &sample.Cores[c]
		trusty := cs.Status.Trustworthy()
		if !trusty {
			d.written[c] = 0 // cannot vouch for a core we cannot read
		}
		st.Freq, st.IPS, st.Power, st.Parked = cs.ActiveFreq, cs.IPS, cs.Power, d.parked[c]
		// A trustworthy sample from a core in good standing, the common case,
		// touches no health state.
		if (!trusty || d.health[c].degraded) && d.updateHealthLocked(c, cs.Status) {
			// Untrusted core: the policy keeps seeing the last state we
			// could vouch for instead of zeros or garbage.
			nDegraded++
			g := d.lastGood[c]
			st.Freq, st.IPS, st.Power = g.freq, g.ips, g.power
		} else {
			d.lastGood[c] = goodState{st.Freq, st.IPS, st.Power}
		}
	}
	if d.cfg.SLO != nil {
		d.svcFlip ^= 1
		svcs := d.cfg.SLO.FillServiceSLO(d.svcBuf[d.svcFlip][:0])
		d.svcBuf[d.svcFlip] = svcs
		d.stampTargetsLocked(svcs)
		snap.Services = svcs
	}
	sampleDone := time.Since(began)
	actions := d.cfg.Policy.Update(snap)
	polName := d.cfg.Policy.Name()
	if nDegraded > 0 || !sample.PkgStatus.Trustworthy() {
		d.m.degradedIntervals.Inc()
		actions = d.overrideDegraded(actions, sample)
	}
	d.m.degradedCores.Set(float64(nDegraded))
	var reasons []core.Reason
	if ex, ok := d.cfg.Policy.(core.Explainer); ok {
		reasons = ex.LastReasons()
	}
	if d.cfg.Flight != nil {
		// One mark per reason, committed together; unexplained policies
		// still leave one mark per interval.
		mark := flight.Event{
			Kind: flight.KindDecision, Source: flight.SourceDaemon, Core: -1,
			Value: microwatts(snap.PackagePower), Aux: microwatts(snap.Limit),
		}
		marks := d.batch.events[:0]
		if len(reasons) == 0 {
			marks = append(marks, mark)
		}
		for _, r := range reasons {
			mark.Arg = flight.ReasonCode(r)
			marks = append(marks, mark)
		}
		d.cfg.Flight.RecordBatch(flight.SourceDaemon, marks)
		d.batch.events = marks[:0]
	}
	decideDone := time.Since(began)
	_, _ = d.apply(actions) // failures are counted and retried by the next interval's actions
	actuateDone := time.Since(began)
	d.iterations++
	d.last = snap
	d.lastPhases = PhaseLatencies{
		Interval: uint32(d.iterations),
		Sample:   sampleDone,
		Decide:   decideDone - sampleDone,
		Actuate:  actuateDone - decideDone,
	}
	phases := d.lastPhases
	nParked := 0
	for _, p := range d.parked {
		if p {
			nParked++
		}
	}
	// The iteration SLO judges sample → decide → actuate: the actuate mark.
	dumpReason := d.checkTriggersLocked(snap, actuateDone)
	d.mu.Unlock()

	// The ledger appends outside d.mu (it has its own lock); the sample's
	// slices stay valid under the sampler's double-buffer grace, and
	// Append consumes them synchronously.
	if d.cfg.Ledger != nil {
		d.cfg.Ledger.Append(ledger.Input{
			At:           sample.At,
			Dt:           sample.Interval,
			Limit:        snap.Limit,
			PackagePower: sample.PackagePower,
			PkgStatus:    sample.PkgStatus,
			SocketPower:  sample.SocketPower,
			SocketStatus: sample.SocketStatus,
			Cores:        sample.Cores,
		})
	}
	if d.cfg.Journal != nil {
		d.cfg.Journal.Record(polName, reasons, snap, actions)
	}
	d.m.iterations.Inc()
	d.m.pkgWatts.Set(float64(snap.PackagePower))
	d.m.parkedCores.Set(float64(nParked))
	d.m.iterSeconds.Observe(time.Since(began).Seconds())
	d.m.phaseSample.Observe(phases.Sample.Seconds())
	d.m.phaseDecide.Observe(phases.Decide.Seconds())
	d.m.phaseActuate.Observe(phases.Actuate.Seconds())

	if dumpReason != "" {
		path, derr := d.DumpFlight(dumpReason)
		if d.cfg.Triggers.OnDump != nil {
			d.cfg.Triggers.OnDump(path, dumpReason, derr)
		}
	}

	// The snapshot hook runs outside the lock so it may call back into the
	// daemon's accessors.
	if d.cfg.OnSnapshot != nil {
		d.cfg.OnSnapshot(snap)
	}
	return snap, nil
}

// checkTriggersLocked evaluates the flight-dump triggers against one
// completed iteration and returns the trigger reason to dump for, or "".
// Caller holds d.mu.
func (d *Daemon) checkTriggersLocked(snap core.Snapshot, elapsed time.Duration) string {
	if d.cfg.Flight == nil {
		return ""
	}
	t := d.cfg.Triggers
	if snap.PackagePower > snap.Limit {
		if d.overSince < 0 {
			d.overSince = snap.Time
		}
	} else {
		d.overSince = -1
		d.overFired = false
	}
	if t.OverLimitFor > 0 && !d.overFired && d.overSince >= 0 &&
		snap.Time-d.overSince >= t.OverLimitFor {
		d.overFired = true
		return "power-over-limit"
	}
	if d.sloHoldoff > 0 {
		d.sloHoldoff--
	}
	if t.IterationSLO > 0 && elapsed > t.IterationSLO && d.sloHoldoff == 0 {
		d.sloHoldoff = SLOCooldownIters
		return "iteration-slo"
	}
	return ""
}

// DumpFlight snapshots the flight recorder to a versioned binary file in
// the configured trigger directory and returns its path. Manual callers
// (cmd/powerd's SIGQUIT handler) and automatic triggers share this path.
func (d *Daemon) DumpFlight(reason string) (string, error) {
	if d.cfg.Flight == nil {
		return "", fmt.Errorf("daemon: no flight recorder configured")
	}
	return flight.WriteDumpFile(d.cfg.Triggers.Dir, d.cfg.Flight.Dump(reason))
}

// SetLimit changes the power limit the daemon enforces from the next
// control interval on. Cluster-level coordinators (which redistribute a
// machine-room budget across node daemons) call this at their own cadence.
func (d *Daemon) SetLimit(w units.Watts) error {
	if w <= 0 {
		return fmt.Errorf("daemon: power limit must be positive, got %v", w)
	}
	d.mu.Lock()
	changed := d.cfg.Limit != w
	d.cfg.Limit = w
	d.mu.Unlock()
	if changed {
		d.m.limitChanges.Inc()
	}
	d.m.limitWatts.Set(float64(w))
	return nil
}

// PolicyName reports the configured policy's name.
func (d *Daemon) PolicyName() string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.cfg.Policy.Name()
}

// Chip reports the platform the daemon controls.
func (d *Daemon) Chip() platform.Chip { return d.cfg.Chip }

// Apps returns a copy of the currently managed application specs.
func (d *Daemon) Apps() []core.AppSpec {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]core.AppSpec(nil), d.cfg.Apps...)
}

// Limit reports the currently enforced power limit.
func (d *Daemon) Limit() units.Watts {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.cfg.Limit
}

// SLOTargets returns a copy of the per-service p99 objectives set at
// construction.
func (d *Daemon) SLOTargets() []core.SLOTarget {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(d.cfg.SLOTargets) == 0 {
		return nil
	}
	return append([]core.SLOTarget(nil), d.cfg.SLOTargets...)
}

// Iterations reports completed control intervals.
func (d *Daemon) Iterations() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.iterations
}

// LastSnapshot returns the most recent snapshot. The Apps slice is copied
// out of the loop's reuse buffers, so the result is immutable to the caller.
func (d *Daemon) LastSnapshot() core.Snapshot {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return cloneSnapshot(d.last)
}

// cloneSnapshot deep-copies the Apps and Services slices so readers escape
// the loop's double-buffered reuse pools. Caller holds d.mu (read or write).
func cloneSnapshot(s core.Snapshot) core.Snapshot {
	s.Apps = append([]core.AppState(nil), s.Apps...)
	if s.Services != nil {
		s.Services = append([]core.ServiceSLO(nil), s.Services...)
	}
	return s
}

// stampTargetsLocked overwrites each service entry's Target with the
// daemon's configured objective for that name, if one exists. The loop is
// allocation-free; target lists are short (a handful of services per
// node), so linear scan beats a map here. Caller holds d.mu.
func (d *Daemon) stampTargetsLocked(svcs []core.ServiceSLO) {
	for i := range svcs {
		for _, t := range d.cfg.SLOTargets {
			if t.Service == svcs[i].Name {
				svcs[i].Target = t.P99.Seconds()
				break
			}
		}
	}
}

// Parked reports whether the daemon last left the core parked.
func (d *Daemon) Parked(core int) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return core >= 0 && core < len(d.parked) && d.parked[core]
}

// Err returns the error that stopped the control iterations AttachVirtual
// scheduled, if any.
func (d *Daemon) Err() error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.iterErr
}

// AttachVirtual starts the daemon and schedules one control iteration per
// configured interval of virtual time on the machine's calendar, each
// passed the virtual time since the last. An error from an iteration stops
// the rest and surfaces via Err.
func (d *Daemon) AttachVirtual(m *sim.Machine) error {
	if err := d.Start(); err != nil {
		return err
	}
	m.Every(d.cfg.Interval, func(interval time.Duration) {
		if d.Err() == nil {
			_, err := d.RunIteration(interval)
			d.mu.Lock()
			d.iterErr = err
			d.mu.Unlock()
		}
	})
	return nil
}

// RunRealtime runs the control loop on a wall-clock ticker for the given
// number of iterations or until the context is cancelled, recording
// per-iteration lateness. The daemon must not already be attached to a
// virtual machine.
func (d *Daemon) RunRealtime(ctx context.Context, iterations int) error {
	if err := d.Start(); err != nil {
		return err
	}
	// An interval runs from receipt to receipt: under CPU contention a
	// tick's own value can be earlier than the tick's before it.
	prev := time.Now()
	ticker := time.NewTicker(d.cfg.Interval)
	defer ticker.Stop()
	for i := 0; i < iterations; i++ {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
			now := time.Now()
			actual := now.Sub(prev)
			prev = now
			late := (actual - d.cfg.Interval).Seconds()
			if late < 0 {
				late = 0
			}
			d.mu.Lock()
			d.jitterAcc.Add(late)
			d.jitterRes.Add(late)
			d.mu.Unlock()
			d.m.jitterSec.Observe(late)
			if _, err := d.RunIteration(actual); err != nil {
				return err
			}
		}
	}
	return nil
}

// JitterStats summarises real-time loop lateness in seconds.
type JitterStats struct {
	Samples int
	Mean    float64
	Max     float64
	P50     float64
	P90     float64
	P99     float64
}

// Jitter reports the lateness distribution observed by RunRealtime. The
// mean and max are exact (streaming accumulator); the percentile is
// estimated from a fixed-size reservoir, so memory stays constant no
// matter how long the loop runs.
func (d *Daemon) Jitter() JitterStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.jitterLocked()
}

// jitterLocked builds JitterStats. Caller holds d.mu (read or write).
// Quantiles sorts the reservoir once for all three percentiles.
func (d *Daemon) jitterLocked() JitterStats {
	qs := d.jitterRes.Quantiles(50, 90, 99)
	js := JitterStats{
		Samples: d.jitterAcc.Count(),
		Mean:    d.jitterAcc.Mean(),
		Max:     d.jitterAcc.Max(),
		P50:     qs[0],
		P90:     qs[1],
		P99:     qs[2],
	}
	if js.Samples == 0 {
		js.Mean, js.Max = 0, 0
	}
	return js
}

// PhaseLatencies is the wall-clock breakdown of one control iteration
// into the paper's sample → decide → actuate pipeline: telemetry
// sampling and snapshot assembly, the policy update (including reason
// extraction and degraded-mode overrides), and actuation of the
// returned actions. Interval is the flight-recorder interval id the
// breakdown belongs to, so node-side round traces can link both.
type PhaseLatencies struct {
	Interval uint32
	Sample   time.Duration
	Decide   time.Duration
	Actuate  time.Duration
}

// LastPhases reports the phase breakdown of the most recent completed
// iteration (zero before the first).
func (d *Daemon) LastPhases() PhaseLatencies {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.lastPhases
}

// StatusView is a coherent point-in-time view of the control loop: every
// field was read under one lock acquisition, so a reader can never pair,
// say, a new policy name with the previous configuration's limit while a
// live reconfiguration is in flight.
type StatusView struct {
	Policy     string
	Iterations int
	Limit      units.Watts
	Snapshot   core.Snapshot
	Apps       []core.AppSpec
	Phases     PhaseLatencies
	Jitter     JitterStats
	Err        error
}

// StatusView snapshots the daemon under a single lock acquisition. HTTP
// status and metrics exposition should prefer this over stitching
// together individual accessors, each of which locks separately.
func (d *Daemon) StatusView() StatusView {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return StatusView{
		Policy:     d.cfg.Policy.Name(),
		Iterations: d.iterations,
		Limit:      d.cfg.Limit,
		Snapshot:   cloneSnapshot(d.last),
		Apps:       append([]core.AppSpec(nil), d.cfg.Apps...),
		Phases:     d.lastPhases,
		Jitter:     d.jitterLocked(),
		Err:        d.iterErr,
	}
}
