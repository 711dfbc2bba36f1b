package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/msr"
	"repro/internal/sim"
	"repro/internal/units"
)

// ErrInjected marks every error the injector fabricates, so consumers (and
// tests) can tell injected failures from real ones with errors.Is.
var ErrInjected = errors.New("injected fault")

// regKey addresses one register on one CPU.
type regKey struct {
	cpu int
	reg uint32
}

// Injector realises a Schedule against a run: wrap the MSR device with
// WrapDevice to get the device-level classes, and Drive a simulated machine
// to get the platform classes plus automatic clock advancement. All fault
// decisions flow from the seed, so two runs with the same schedule, seed,
// and workload inject identically.
//
// The injector sits above the recorded device: reads it fails or serves
// stale never reach the inner device, so the flight recorder's MSR log
// remains ground truth for what the control plane actually observed, and a
// faulted run replays exactly.
type Injector struct {
	mu    sync.Mutex
	sched Schedule
	rng   *rand.Rand

	win []windowState // by schedule entry

	m   *sim.Machine
	rec *flight.Recorder

	injections *metrics.CounterVec // windows opened, by class
	effects    *metrics.CounterVec // per-access perturbations, by class
	activeG    *metrics.Gauge

	counts       [numClasses]uint64 // per-access effects, for tests
	totalLatency time.Duration
}

// windowState is one schedule entry's run-time state; closing it zeroes it.
type windowState struct {
	open    bool
	frozen  map[regKey]uint64 // stuck/torn cached values
	torn    map[regKey]bool   // torn per-key freeze decision
	prevCap units.Hertz       // thermal restore value
	prevLim units.Watts       // rapl restore value
}

// New builds an injector for the schedule, deterministic in seed.
func New(sched Schedule, seed int64) *Injector {
	return &Injector{sched: sched, rng: rand.New(rand.NewSource(seed)), win: make([]windowState, len(sched))}
}

// Instrument registers the injector's metrics.
func (in *Injector) Instrument(reg *metrics.Registry) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.injections = reg.CounterVec("fault_windows_total",
		"Fault windows opened, by class.", "class")
	in.effects = reg.CounterVec("fault_effects_total",
		"Individual injected perturbations (failed reads, stale serves, delays), by class.", "class")
	in.activeG = reg.Gauge("fault_active_windows",
		"Fault windows currently open.")
}

// Flight attaches a flight recorder; every window transition is recorded as
// a fault-inject/fault-clear event.
func (in *Injector) Flight(rec *flight.Recorder) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rec = rec
}

// Drive binds the injector to a simulated machine: platform faults
// (thermal, rapl, offline) are applied to it, and each window's opening and
// closing time is an entry on the machine's calendar that advances the
// injector to the machine's time. Call before attaching the daemon so fault
// transitions at tick t precede the control iteration at tick t.
func (in *Injector) Drive(m *sim.Machine) {
	in.mu.Lock()
	in.m = m
	in.mu.Unlock()
	advance := func() { in.AdvanceTo(m.Now()) }
	for _, e := range in.sched {
		m.At(e.At, advance)
		m.At(e.At+e.For, advance)
	}
}

// AdvanceTo opens and closes the windows run time t has crossed. It is
// idempotent: a second call at the same time changes nothing.
func (in *Injector) AdvanceTo(t time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range in.sched {
		if act := in.sched[i].Active(t); act != in.win[i].open {
			in.win[i].open = act
			if act {
				in.openLocked(i)
			} else {
				in.closeLocked(i)
			}
		}
	}
}

// openLocked applies entry i's window-open side effects.
func (in *Injector) openLocked(i int) {
	e := in.sched[i]
	var value uint64
	switch e.Class {
	case ClassThermal:
		if in.m != nil {
			in.win[i].prevCap = in.m.ThermalCap()
			in.m.SetThermalCap(e.Cap)
		}
		value = uint64(e.Cap)
	case ClassRAPL:
		if in.m != nil {
			in.win[i].prevLim = in.m.Limiter().Limit()
			in.m.SetPowerLimit(e.Limit)
		}
		value = uint64(float64(e.Limit) * 1e6) // microwatts
	case ClassOffline:
		if in.m != nil {
			// CPU is validated >= 0 for offline entries.
			_ = in.m.SetOffline(e.CPU, true)
		}
	case ClassLatency:
		value = uint64(e.Delay)
	case ClassEIO:
		value = uint64(e.Prob * 1e6) // parts per million
	}
	in.injections.With(e.Class.String()).Inc()
	in.activeG.Add(1)
	in.rec.Record(flight.Event{
		Kind: flight.KindFaultInject, Source: flight.SourceFault,
		Core: int16(e.CPU), Arg: e.Class.FlightCode(), Value: value,
	})
}

// closeLocked applies entry i's window-close side effects. Clear events
// carry the value being restored so replay can apply them directly.
func (in *Injector) closeLocked(i int) {
	e := in.sched[i]
	var value uint64
	switch e.Class {
	case ClassThermal:
		if in.m != nil {
			in.m.SetThermalCap(in.win[i].prevCap)
			value = uint64(in.win[i].prevCap)
		}
	case ClassRAPL:
		if in.m != nil {
			in.m.SetPowerLimit(in.win[i].prevLim)
			value = uint64(float64(in.win[i].prevLim) * 1e6)
		}
	case ClassOffline:
		if in.m != nil {
			_ = in.m.SetOffline(e.CPU, false)
		}
	}
	in.win[i] = windowState{}
	in.activeG.Add(-1)
	in.rec.Record(flight.Event{
		Kind: flight.KindFaultClear, Source: flight.SourceFault,
		Core: int16(e.CPU), Arg: e.Class.FlightCode(), Value: value,
	})
}

// Effects reports how many per-access perturbations the class has caused.
func (in *Injector) Effects(c Class) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	if c >= numClasses {
		return 0
	}
	return in.counts[c]
}

// TotalLatency reports the accumulated injected read latency.
func (in *Injector) TotalLatency() time.Duration {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.totalLatency
}

// noteLocked counts one per-access perturbation.
func (in *Injector) noteLocked(c Class) {
	in.counts[c]++
	in.effects.With(c.String()).Inc()
}

// WrapDevice interposes the injector between the control plane and dev.
// The wrapper must sit *above* any recording tap: faulted accesses never
// reach dev, so the flight log keeps recording only what physically
// happened.
func (in *Injector) WrapDevice(dev msr.Device) msr.Device {
	return &faultDevice{in: in, dev: dev}
}

type faultDevice struct {
	in  *Injector
	dev msr.Device

	// A faulted WriteBatch's survivors, under in.mu.
	cpus []int
	vals []uint64
	errs []error
}

// Read applies every open matching window, in schedule order: offline and
// EIO fail the read, latency adds its delay to TotalLatency, stuck serves
// the value cached at first faulted access, torn does the same for a
// seed-chosen half of the registers. The injector lock is held across the
// inner read so stale caches populate atomically; the inner device never
// calls back into the injector, so this cannot deadlock.
func (d *faultDevice) Read(cpu int, reg uint32) (uint64, error) {
	in := d.in
	creg := msr.Canonical(reg)
	in.mu.Lock()
	defer in.mu.Unlock()
	var delay time.Duration
	freeze := -1
	for i := range in.sched {
		e := &in.sched[i]
		if !in.win[i].open || !e.Matches(cpu, creg) {
			continue
		}
		switch e.Class {
		case ClassOffline:
			in.noteLocked(e.Class)
			return 0, fmt.Errorf("fault: cpu%d offline, read %s: %w",
				cpu, msr.RegName(creg), ErrInjected)
		case ClassEIO:
			if e.Prob <= 0 || e.Prob >= 1 || in.rng.Float64() < e.Prob {
				in.noteLocked(e.Class)
				return 0, fmt.Errorf("fault: EIO cpu%d %s: %w",
					cpu, msr.RegName(creg), ErrInjected)
			}
		case ClassLatency:
			delay += e.Delay
			in.noteLocked(e.Class)
		case ClassStuck:
			if freeze < 0 {
				freeze = i
			}
		case ClassTorn:
			w := &in.win[i]
			if w.torn == nil {
				w.torn = make(map[regKey]bool)
			}
			k := regKey{cpu, creg}
			fr, ok := w.torn[k]
			if !ok {
				fr = in.rng.Intn(2) == 0
				w.torn[k] = fr
			}
			if fr && freeze < 0 {
				freeze = i
			}
		}
	}
	if delay > 0 {
		in.totalLatency += delay
	}
	if freeze >= 0 {
		k := regKey{cpu, creg}
		w := &in.win[freeze]
		if w.frozen == nil {
			w.frozen = make(map[regKey]uint64)
		}
		if v, ok := w.frozen[k]; ok {
			in.noteLocked(in.sched[freeze].Class)
			return v, nil
		}
		v, err := d.dev.Read(cpu, reg)
		if err != nil {
			return v, err
		}
		w.frozen[k] = v
		return v, nil
	}
	return d.dev.Read(cpu, reg)
}

// ReadBatch implements msr.BatchReader by delegating to the faulting Read
// per cpu, so batched sampling sweeps observe exactly the same injected
// faults — offline, EIO, latency, stuck, torn — as per-core reads do. A
// wrapped device's own batch fast path is deliberately not used: it would
// bypass the injector's per-access windows.
func (d *faultDevice) ReadBatch(reg uint32, vals []uint64, ok []bool) error {
	return msr.ReadBatchFunc(d.Read, reg, vals, ok)
}

// WriteBatch implements msr.BatchWriter with one lock and one scan of the
// open windows for the whole batch: a cpu an offline window covers fails
// alone, with the error and effect its Write would have, and the survivors
// reach the wrapped device as one msr.WriteBatch — one dispatch and one
// flight commit, as on an unfaulted node. Like Read, it holds the injector
// lock across the inner access.
func (d *faultDevice) WriteBatch(reg uint32, cpus []int, vals []uint64, errs []error) error {
	in := d.in
	creg := msr.Canonical(reg)
	in.mu.Lock()
	defer in.mu.Unlock()
	clear(errs)
	failed := false
	for i := range in.sched {
		e := &in.sched[i]
		if !in.win[i].open || e.Class != ClassOffline {
			continue
		}
		for k, cpu := range cpus {
			if errs[k] == nil && e.Matches(cpu, creg) {
				in.noteLocked(e.Class)
				errs[k] = fmt.Errorf("fault: cpu%d offline, write %s: %w",
					cpu, msr.RegName(creg), ErrInjected)
				failed = true
			}
		}
	}
	if !failed {
		return msr.WriteBatch(d.dev, reg, cpus, vals, errs)
	}
	d.cpus, d.vals, d.errs = d.cpus[:0], d.vals[:0], d.errs[:0]
	for k, cpu := range cpus {
		if errs[k] == nil {
			d.cpus = append(d.cpus, cpu)
			d.vals = append(d.vals, vals[k])
			d.errs = append(d.errs, nil)
		}
	}
	if len(d.cpus) > 0 {
		msr.WriteBatch(d.dev, reg, d.cpus, d.vals, d.errs)
	}
	var first error
	j := 0
	for k := range cpus {
		if errs[k] == nil {
			errs[k] = d.errs[j]
			j++
		}
		if first == nil {
			first = errs[k]
		}
	}
	return first
}

// Write blocks actuation of offline CPUs (a dead core's MSRs are gone in
// both directions) and passes everything else through untouched.
func (d *faultDevice) Write(cpu int, reg uint32, val uint64) error {
	in := d.in
	creg := msr.Canonical(reg)
	in.mu.Lock()
	for i := range in.sched {
		e := &in.sched[i]
		if in.win[i].open && e.Class == ClassOffline && e.Matches(cpu, creg) {
			in.noteLocked(e.Class)
			in.mu.Unlock()
			return fmt.Errorf("fault: cpu%d offline, write %s: %w",
				cpu, msr.RegName(creg), ErrInjected)
		}
	}
	in.mu.Unlock()
	return d.dev.Write(cpu, reg, val)
}
