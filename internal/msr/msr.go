// Package msr emulates the model-specific-register interface that power
// management software uses on real hardware. The paper's userspace daemon
// reads counters (APERF/MPERF, instructions retired, RAPL energy status)
// and writes P-state requests (IA32_PERF_CTL, or the AMD 17h P-state MSRs)
// through /dev/cpu/N/msr; this package provides the same register-level
// interface over the simulator.
//
// Two device implementations are provided: SimDevice dispatches reads and
// writes to registered handlers (the simulated machine wires its state in),
// and FileDevice persists registers as little-endian 8-byte files under a
// directory tree shaped like /dev/cpu/N — the "file-based MSR access" path,
// which also lets the daemon run as a plain process against a directory.
package msr

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/units"
)

// Architectural and model-specific register addresses. Intel addresses are
// used as the canonical set; the AMD 17h equivalents alias onto the same
// simulated state so one daemon binary drives both platforms, exactly as the
// paper's modified turbostat did.
const (
	IA32Mperf      uint32 = 0xE7  // cycles at nominal frequency while in C0
	IA32Aperf      uint32 = 0xE8  // cycles at effective frequency while in C0
	IA32PerfStatus uint32 = 0x198 // current P-state (ratio in bits 15:8)
	IA32PerfCtl    uint32 = 0x199 // requested P-state (ratio in bits 15:8)
	IA32FixedCtr0  uint32 = 0x309 // instructions retired

	RAPLPowerUnit   uint32 = 0x606 // unit definitions (energy status unit in bits 12:8)
	PkgPowerLimit   uint32 = 0x610 // package power limit (1/8 W units, enable bit 15)
	PkgEnergyStatus uint32 = 0x611 // package energy consumed (32-bit, wraps)
	PP0EnergyStatus uint32 = 0x639 // core-domain energy (per-core in the simulator)

	IA32PmEnable   uint32 = 0x770 // HWP enable (bit 0)
	IA32HwpRequest uint32 = 0x774 // HWP hints: min/max performance and EPP

	// AMD family 17h aliases.
	AMDPStateCtl   uint32 = 0xC0010062
	AMDPStateStat  uint32 = 0xC0010063
	AMDRAPLPwrUnit uint32 = 0xC0010299
	AMDCoreEnergy  uint32 = 0xC001029A
	AMDPkgEnergy   uint32 = 0xC001029B
)

// Canonical maps AMD alias registers onto the canonical Intel-addressed
// simulated state; other registers map to themselves.
func Canonical(reg uint32) uint32 {
	switch reg {
	case AMDPStateCtl:
		return IA32PerfCtl
	case AMDPStateStat:
		return IA32PerfStatus
	case AMDRAPLPwrUnit:
		return RAPLPowerUnit
	case AMDCoreEnergy:
		return PP0EnergyStatus
	case AMDPkgEnergy:
		return PkgEnergyStatus
	}
	return reg
}

// Device is register-level access to one socket's MSRs, addressed by
// logical CPU.
type Device interface {
	Read(cpu int, reg uint32) (uint64, error)
	Write(cpu int, reg uint32, val uint64) error
}

// BatchReader is the bulk-sampling extension of Device: one call reads a
// single register across cpus [0, len(vals)) into the caller-owned vals
// slice, amortising per-call overhead (interface dispatch, lock
// acquisition) over the whole sweep — the difference between a per-core
// and a per-register cost on a 512-core package.
//
// Two error disciplines, selected by ok:
//
//   - ok == nil (strict): the first failing cpu aborts the sweep and its
//     error is returned; vals entries past it are unspecified.
//   - ok != nil (resilient): the sweep always visits every cpu, ok[i]
//     records whether cpu i's read succeeded (vals[i] is zeroed on
//     failure), and the returned error is the first one encountered —
//     nil when every cpu read cleanly. len(ok) must equal len(vals).
//
// Implementations must not retain vals or ok.
type BatchReader interface {
	ReadBatch(reg uint32, vals []uint64, ok []bool) error
}

// ReadBatch reads reg across cpus [0, len(vals)) on any Device, using the
// device's own BatchReader when it has one and falling back to per-cpu
// Read calls otherwise. Semantics follow BatchReader.
func ReadBatch(dev Device, reg uint32, vals []uint64, ok []bool) error {
	if br, isBatch := dev.(BatchReader); isBatch {
		return br.ReadBatch(reg, vals, ok)
	}
	return ReadBatchFunc(dev.Read, reg, vals, ok)
}

// ReadBatchFunc implements BatchReader semantics over a per-cpu read
// function; device implementations and wrappers (e.g. the fault
// injector) share it for their own sweeps.
func ReadBatchFunc(read func(cpu int, reg uint32) (uint64, error), reg uint32, vals []uint64, ok []bool) error {
	_, err := sweep(perCPU(func(cpu int) (uint64, error) { return read(cpu, reg) }), vals, ok)
	return err
}

// BatchWriter is the bulk-actuation extension of Device: one call writes a
// single register on each of cpus, cpus[i] receiving vals[i], so
// programming n cores costs one dispatch, not n. Every write is attempted
// whatever the others do: errs[i] is cpus[i]'s result, nil on success, and
// the returned error is the first failure in cpus order — nil when every
// write took. vals and errs have the length of cpus. Implementations must
// not retain the slices.
type BatchWriter interface {
	WriteBatch(reg uint32, cpus []int, vals []uint64, errs []error) error
}

// WriteBatch writes reg on cpus on any Device, using the device's own
// BatchWriter when it has one and falling back to per-cpu Write calls
// otherwise. Semantics follow BatchWriter.
func WriteBatch(dev Device, reg uint32, cpus []int, vals []uint64, errs []error) error {
	if bw, isBatch := dev.(BatchWriter); isBatch {
		return bw.WriteBatch(reg, cpus, vals, errs)
	}
	return WriteBatchFunc(dev.Write, reg, cpus, vals, errs)
}

// WriteBatchFunc implements BatchWriter semantics over a per-cpu write
// function; device implementations and wrappers (e.g. the fault injector)
// share it for their own batches.
func WriteBatchFunc(write func(cpu int, reg uint32, val uint64) error, reg uint32, cpus []int, vals []uint64, errs []error) error {
	var first error
	for i, cpu := range cpus {
		errs[i] = write(cpu, reg, vals[i])
		if first == nil {
			first = errs[i]
		}
	}
	return first
}

// SweepFunc reads one register for cpus first, first+1, … into vals. It
// returns how many leading values it read; when that is short of
// len(vals), the cpu after them (first+n) failed and err is its error.
// vals past the ones read are unspecified.
type SweepFunc func(first int, vals []uint64) (n int, err error)

// perCPU serves a sweep one read call per cpu, stopping at the first that
// fails.
func perCPU(read func(cpu int) (uint64, error)) SweepFunc {
	return func(first int, vals []uint64) (int, error) {
		for i := range vals {
			v, err := read(first + i)
			if err != nil {
				return i, err
			}
			vals[i] = v
		}
		return len(vals), nil
	}
}

// sweep is the one place BatchReader's error disciplines live. It runs read
// over cpus [0, len(vals)), resuming past each failing cpu of a resilient
// sweep, and also reports how many leading cpus were visited: len(vals), or
// the failing cpu's index when a strict sweep aborts.
func sweep(read SweepFunc, vals []uint64, ok []bool) (int, error) {
	var first error
	for cpu := 0; cpu < len(vals); cpu++ {
		n, err := read(cpu, vals[cpu:])
		if ok != nil {
			for i := cpu; i < cpu+n; i++ {
				ok[i] = true
			}
		}
		if cpu += n; cpu == len(vals) {
			break
		}
		if ok == nil {
			return cpu, err
		}
		if first == nil {
			first = err
		}
		vals[cpu] = 0
		ok[cpu] = false
	}
	return len(vals), first
}

// Recorder observes every successful register access on a device — the
// flight recorder's MSR tap (internal/flight implements it). Registers are
// reported in canonical form so AMD-alias traffic lands on one register
// stream.
type Recorder interface {
	RecordMSR(write bool, cpu int, reg uint32, val uint64)
}

// SweepRecorder is the optional bulk extension of Recorder (the flight
// recorder implements it): the successful reads of one finished ReadBatch
// sweep of reg over cpus [0, len(vals)) — all when ok is nil, those with
// ok[cpu] otherwise — in one call. Implementations must not retain vals or ok.
type SweepRecorder interface {
	Recorder
	RecordMSRSweep(reg uint32, vals []uint64, ok []bool)
}

// WriteRecorder is the optional bulk extension of Recorder for writes (the
// flight recorder implements it): the successful writes of one finished
// WriteBatch of reg — cpus[i] written vals[i] for each i with errs[i] nil —
// in one call. Implementations must not retain the slices.
type WriteRecorder interface {
	Recorder
	RecordMSRWrites(reg uint32, cpus []int, vals []uint64, errs []error)
}

// recordWrites reports a finished batch's successful writes to rec: at once
// when it is a WriteRecorder, one RecordMSR per write otherwise.
func recordWrites(rec Recorder, reg uint32, cpus []int, vals []uint64, errs []error) {
	if wr, isBatch := rec.(WriteRecorder); isBatch {
		wr.RecordMSRWrites(reg, cpus, vals, errs)
	} else if rec != nil {
		for i, cpu := range cpus {
			if errs[i] == nil {
				rec.RecordMSR(true, cpu, reg, vals[i])
			}
		}
	}
}

// recordSweep reports a finished sweep's successful reads to rec: at once
// when it is a SweepRecorder, one RecordMSR per read otherwise. err is the
// sweep's: a sweep that met none has no holes, so the recorder is handed
// ok == nil and skips the per-cpu check.
func recordSweep(rec Recorder, reg uint32, vals []uint64, ok []bool, err error) {
	if err == nil {
		ok = nil
	}
	if sr, isSweep := rec.(SweepRecorder); isSweep {
		sr.RecordMSRSweep(reg, vals, ok)
	} else if rec != nil {
		for cpu, v := range vals {
			if ok == nil || ok[cpu] {
				rec.RecordMSR(false, cpu, reg, v)
			}
		}
	}
}

// RegName names the architectural registers this package defines, for
// analyzer output; unknown registers format as hex.
func RegName(reg uint32) string {
	switch Canonical(reg) {
	case IA32Mperf:
		return "MPERF"
	case IA32Aperf:
		return "APERF"
	case IA32PerfStatus:
		return "PERF_STATUS"
	case IA32PerfCtl:
		return "PERF_CTL"
	case IA32FixedCtr0:
		return "FIXED_CTR0"
	case RAPLPowerUnit:
		return "RAPL_POWER_UNIT"
	case PkgPowerLimit:
		return "PKG_POWER_LIMIT"
	case PkgEnergyStatus:
		return "PKG_ENERGY_STATUS"
	case PP0EnergyStatus:
		return "PP0_ENERGY_STATUS"
	case IA32PmEnable:
		return "PM_ENABLE"
	case IA32HwpRequest:
		return "HWP_REQUEST"
	}
	return fmt.Sprintf("0x%X", reg)
}

// EncodePerfCtl encodes a frequency request as a PERF_CTL value: the
// frequency expressed as a multiple of step, stored in bits 15:8 (the
// Intel ratio field; we reuse the layout for AMD with its 25 MHz step).
func EncodePerfCtl(f, step units.Hertz) uint64 {
	if step <= 0 {
		return 0
	}
	ratio := uint64(f.QuantizeNearest(step) / step)
	return (ratio & 0xFF) << 8
}

// DecodePerfCtl recovers the requested frequency from a PERF_CTL value.
func DecodePerfCtl(val uint64, step units.Hertz) units.Hertz {
	return units.Hertz((val>>8)&0xFF) * step
}

// EnergyUnit converts between joules and RAPL energy-status counts. The
// unit is 2^-ESU joules; Skylake server parts use ESU 14 (61 µJ), most
// client parts 16 (15.3 µJ, the value the paper cites).
type EnergyUnit struct{ ESU uint }

// UnitJoules returns the size of one count in joules.
func (u EnergyUnit) UnitJoules() units.Joules {
	return units.Joules(1.0 / float64(uint64(1)<<u.ESU))
}

// ToCounts converts energy to counts, truncating to the 32-bit counter
// width (the hardware counter wraps).
func (u EnergyUnit) ToCounts(j units.Joules) uint64 {
	if j < 0 {
		return 0
	}
	return uint64(float64(j)*float64(uint64(1)<<u.ESU)) & 0xFFFFFFFF
}

// FromCounts converts counts back to energy.
func (u EnergyUnit) FromCounts(c uint64) units.Joules {
	return units.Joules(float64(c&0xFFFFFFFF)) * u.UnitJoules()
}

// DeltaCounts computes the counter delta from prev to cur accounting for a
// single 32-bit wrap, as energy readers must.
func DeltaCounts(prev, cur uint64) uint64 {
	prev &= 0xFFFFFFFF
	cur &= 0xFFFFFFFF
	if cur >= prev {
		return cur - prev
	}
	return cur + (1 << 32) - prev
}

// EncodePowerUnit builds a RAPL_POWER_UNIT value carrying the energy status
// unit in bits 12:8.
func EncodePowerUnit(u EnergyUnit) uint64 { return uint64(u.ESU&0x1F) << 8 }

// DecodePowerUnit extracts the energy unit from a RAPL_POWER_UNIT value.
func DecodePowerUnit(val uint64) EnergyUnit { return EnergyUnit{ESU: uint((val >> 8) & 0x1F)} }

// EncodePowerLimit encodes a package power limit: watts in 1/8 W units in
// bits 14:0, enable in bit 15.
func EncodePowerLimit(w units.Watts, enable bool) uint64 {
	v := uint64(float64(w)*8) & 0x7FFF
	if enable {
		v |= 1 << 15
	}
	return v
}

// DecodePowerLimit recovers the limit and enable flag.
func DecodePowerLimit(val uint64) (units.Watts, bool) {
	return units.Watts(float64(val&0x7FFF) / 8), val&(1<<15) != 0
}

// SimDevice dispatches register access to handlers registered per canonical
// register address. Unhandled registers return ErrUnknownRegister. It is
// safe for concurrent use if the registered handlers are.
type SimDevice struct {
	mu     sync.RWMutex
	reads  map[uint32]readHandler
	writes map[uint32]func(cpu int, val uint64) error
	rec    Recorder
}

// readHandler serves one register: one cpu at a time for Read, a run of
// cpus for ReadBatch.
type readHandler struct {
	one   func(cpu int) (uint64, error)
	sweep SweepFunc
}

// ErrUnknownRegister is returned for access to an unwired register.
var ErrUnknownRegister = fmt.Errorf("msr: unknown register")

// NewSimDevice returns an empty device; wire registers with OnRead,
// OnReadSweep and OnWrite.
func NewSimDevice() *SimDevice {
	return &SimDevice{
		reads:  make(map[uint32]readHandler),
		writes: make(map[uint32]func(int, uint64) error),
	}
}

// OnRead registers a read handler for reg (and its aliases). A sweep calls
// it once per cpu.
func (d *SimDevice) OnRead(reg uint32, fn func(cpu int) (uint64, error)) {
	d.OnReadSweep(reg, fn, perCPU(fn))
}

// OnReadSweep registers a read handler for reg (and its aliases) that
// serves a sweep as one call: one reads a single cpu, sweep a run of them,
// and the two must agree on every cpu's value and failure.
func (d *SimDevice) OnReadSweep(reg uint32, one func(cpu int) (uint64, error), sweep SweepFunc) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reads[Canonical(reg)] = readHandler{one, sweep}
}

// OnWrite registers a write handler for reg (and its aliases).
func (d *SimDevice) OnWrite(reg uint32, fn func(cpu int, val uint64) error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writes[Canonical(reg)] = fn
}

// SetRecorder installs (or, with nil, removes) the access recorder. Install
// before traffic starts; accesses already in flight may go unrecorded.
func (d *SimDevice) SetRecorder(rec Recorder) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rec = rec
}

// Read implements Device.
func (d *SimDevice) Read(cpu int, reg uint32) (uint64, error) {
	d.mu.RLock()
	h := d.reads[Canonical(reg)]
	rec := d.rec
	d.mu.RUnlock()
	if h.one == nil {
		return 0, fmt.Errorf("%w: read 0x%X", ErrUnknownRegister, reg)
	}
	v, err := h.one(cpu)
	if err == nil && rec != nil {
		rec.RecordMSR(false, cpu, Canonical(reg), v)
	}
	return v, err
}

// ReadBatch implements BatchReader: the handler and recorder are resolved
// once under a single lock acquisition, the register's sweep handler fills
// the run of cpus, and the recorder sees the successful reads once the
// sweep is done — sampling n cores costs one dispatch and one record
// commit, not n.
func (d *SimDevice) ReadBatch(reg uint32, vals []uint64, ok []bool) error {
	creg := Canonical(reg)
	d.mu.RLock()
	h := d.reads[creg]
	rec := d.rec
	d.mu.RUnlock()
	if h.sweep == nil {
		unknown := fmt.Errorf("%w: read 0x%X", ErrUnknownRegister, reg)
		if len(vals) == 0 {
			return unknown // even an empty sweep names the register
		}
		_, err := sweep(func(int, []uint64) (int, error) { return 0, unknown }, vals, ok)
		return err
	}
	n, err := sweep(h.sweep, vals, ok)
	recordSweep(rec, creg, vals[:n], ok, err)
	return err
}

// Write implements Device.
func (d *SimDevice) Write(cpu int, reg uint32, val uint64) error {
	d.mu.RLock()
	fn := d.writes[Canonical(reg)]
	rec := d.rec
	d.mu.RUnlock()
	if fn == nil {
		return fmt.Errorf("%w: write 0x%X", ErrUnknownRegister, reg)
	}
	err := fn(cpu, val)
	if err == nil && rec != nil {
		rec.RecordMSR(true, cpu, Canonical(reg), val)
	}
	return err
}

// WriteBatch implements BatchWriter: the handler and recorder are resolved
// once under a single lock acquisition, the handler applies each write, and
// the recorder sees the successful writes once the batch is done —
// programming n cores costs one dispatch and one record commit, not n.
func (d *SimDevice) WriteBatch(reg uint32, cpus []int, vals []uint64, errs []error) error {
	creg := Canonical(reg)
	d.mu.RLock()
	fn := d.writes[creg]
	rec := d.rec
	d.mu.RUnlock()
	if fn == nil {
		unknown := fmt.Errorf("%w: write 0x%X", ErrUnknownRegister, reg)
		if len(cpus) == 0 {
			return unknown // even an empty batch names the register
		}
		return WriteBatchFunc(func(int, uint32, uint64) error { return unknown }, reg, cpus, vals, errs)
	}
	err := WriteBatchFunc(func(cpu int, _ uint32, val uint64) error { return fn(cpu, val) }, reg, cpus, vals, errs)
	recordWrites(rec, creg, cpus, vals, errs)
	return err
}

// FileDevice stores each register as an 8-byte little-endian file at
// dir/cpuN/0xXXXXXXXX, a file-system rendition of /dev/cpu/N/msr. Reads of
// absent registers return zero, like reading an unimplemented MSR that RAZ.
// It is safe for concurrent use within one process.
type FileDevice struct {
	dir string
	mu  sync.Mutex
}

// NewFileDevice creates (if needed) and opens a file-backed MSR tree.
func NewFileDevice(dir string) (*FileDevice, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("msr: creating device dir: %w", err)
	}
	return &FileDevice{dir: dir}, nil
}

func (d *FileDevice) path(cpu int, reg uint32) string {
	return filepath.Join(d.dir, fmt.Sprintf("cpu%d", cpu), fmt.Sprintf("0x%08X", Canonical(reg)))
}

// Read implements Device. Missing registers read as zero.
func (d *FileDevice) Read(cpu int, reg uint32) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.readFile(cpu, reg)
}

// ReadBatch implements BatchReader under a single lock acquisition.
func (d *FileDevice) ReadBatch(reg uint32, vals []uint64, ok []bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, err := sweep(perCPU(func(cpu int) (uint64, error) { return d.readFile(cpu, reg) }), vals, ok)
	return err
}

// readFile reads one register file. A missing register reads as zero and is
// still a successful observation.
func (d *FileDevice) readFile(cpu int, reg uint32) (uint64, error) {
	b, err := os.ReadFile(d.path(cpu, reg))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("msr: read cpu%d reg 0x%X: %w", cpu, reg, err)
	}
	if len(b) < 8 {
		return 0, fmt.Errorf("msr: short register file for cpu%d reg 0x%X: %d bytes", cpu, reg, len(b))
	}
	return binary.LittleEndian.Uint64(b), nil
}

// Write implements Device.
func (d *FileDevice) Write(cpu int, reg uint32, val uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.path(cpu, reg)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("msr: creating cpu dir: %w", err)
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], val)
	if err := os.WriteFile(p, b[:], 0o644); err != nil {
		return fmt.Errorf("msr: write cpu%d reg 0x%X: %w", cpu, reg, err)
	}
	return nil
}

// Mirror copies a register set for cpus [0, n) from src to dst. It is used
// to publish simulator state into a FileDevice for out-of-process readers.
func Mirror(src, dst Device, n int, regs []uint32) error {
	for cpu := 0; cpu < n; cpu++ {
		for _, reg := range regs {
			v, err := src.Read(cpu, reg)
			if err != nil {
				return err
			}
			if err := dst.Write(cpu, reg, v); err != nil {
				return err
			}
		}
	}
	return nil
}
