// Package telemetry is the simulator's turbostat: it samples the MSR device
// at an interval and derives, per core, the active frequency
// (nominal * ΔAPERF/ΔMPERF), instructions per second (ΔFIXED_CTR0), and
// power (Δenergy-status), plus package power — the exact variables the
// paper records once per second to drive its policies (Section 3.1).
//
// Real MSR access fails in ways a control loop must survive: transient EIO
// from the msr driver, counters that stop advancing (a stuck register file
// looks exactly like an idle core), torn multi-register samples where APERF
// advances while MPERF is frozen. The sampler therefore classifies every
// core sample with a typed Status instead of conflating "zero delta" with
// "garbage": an idle core legitimately reports 0 IPS with StatusIdle, while
// internally inconsistent counters report StatusStale and a core whose
// reads keep failing reports StatusDark. A failed read is retried at once,
// readAttempts tries in all, and a core that still fails is isolated rather
// than aborting the whole sample.
//
// The sampler is built for the steady-state control loop of large
// machines: counters are read with one batched sweep per register
// (msr.BatchReader) instead of one interface call per core, baselines
// advance by swapping the previous and current counter slices, and the
// returned Sample is written into one of two sampler-owned buffers. A
// steady-state Sample call performs no heap allocation. The buffer
// contract: the slices inside a returned Sample (Cores, SocketPower,
// SocketStatus) remain valid until the *second* following Sample call —
// the double buffer gives the previous interval's reading a full interval
// of grace — after which they are overwritten in place. Callers that
// retain telemetry longer must copy.
package telemetry

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/msr"
	"repro/internal/units"
)

// CoreStatus classifies the trustworthiness of one core's sample.
type CoreStatus uint8

const (
	// StatusOK: counters advanced consistently; derived values are good.
	StatusOK CoreStatus = iota
	// StatusIdle: APERF, MPERF, and the instruction counter all held still
	// — the core spent the interval parked or in a C-state. 0 IPS is the
	// truth, not garbage.
	StatusIdle
	// StatusStale: counters are internally inconsistent (some advanced
	// while others froze, or a monotonic counter went backwards). Derived
	// values are zeroed; do not trust this core's telemetry.
	StatusStale
	// StatusDark: the core's MSRs could not be read at all this interval,
	// even after retries.
	StatusDark
	// StatusRecovering: first successful read after a non-OK interval. The
	// baseline was re-established; derived values are zeroed because the
	// deltas would span the outage.
	StatusRecovering
)

var statusNames = [...]string{"ok", "idle", "stale", "dark", "recovering"}

// statusSeverity orders statuses for worst-of aggregation across sockets:
// a package reading is only as trustworthy as its least trustworthy domain.
var statusSeverity = [...]uint8{
	StatusOK:         0,
	StatusIdle:       1,
	StatusRecovering: 2,
	StatusStale:      3,
	StatusDark:       4,
}

// String names the status.
func (st CoreStatus) String() string {
	if int(st) < len(statusNames) {
		return statusNames[st]
	}
	return "unknown"
}

// Trustworthy reports whether derived values from a sample with this
// status should feed control decisions.
func (st CoreStatus) Trustworthy() bool { return st == StatusOK || st == StatusIdle }

// CoreSample is one core's derived telemetry over an interval.
type CoreSample struct {
	CPU        int
	ActiveFreq units.Hertz // 0 if the core never entered C0
	IPS        float64
	Power      units.Watts // per-core power; zero on platforms without it
	Status     CoreStatus  // why the values are (or are not) trustworthy
}

// Sample is one sampling interval's telemetry.
//
// The Cores, SocketPower, and SocketStatus slices are owned by the
// Sampler's double buffer: they stay valid until the second following
// Sample call, then are overwritten in place. Copy to retain longer.
type Sample struct {
	At           time.Duration // virtual or wall time of the sample
	Interval     time.Duration
	PackagePower units.Watts
	// PkgStatus qualifies PackagePower: StatusStale means an energy
	// counter froze while cores were demonstrably executing (the value is
	// the last trustworthy reading, carried forward), StatusDark means a
	// register was unreadable this interval. On multi-socket packages it
	// is the worst status across sockets.
	PkgStatus CoreStatus
	Cores     []CoreSample
	// SocketPower breaks PackagePower down per RAPL domain (one entry per
	// socket; a single entry on single-socket chips), with SocketStatus
	// qualifying each entry the way PkgStatus qualifies the total.
	SocketPower  []units.Watts
	SocketStatus []CoreStatus
}

// readAttempts is the total number of tries one MSR read gets before its
// core (or socket) is reported dark for the interval.
const readAttempts = 3

// Sampler derives telemetry from successive MSR reads.
type Sampler struct {
	dev     msr.Device
	nCores  int
	sockets int
	cps     int // cores per socket
	nom     units.Hertz
	perCore bool
	unit    msr.EnergyUnit

	primed bool
	at     time.Duration

	// Counter baselines and the current sweep's scratch. A sample reads
	// into cur*, classifies cur against prev, then swaps the slice
	// headers — no copying, no allocation. Cores whose reads failed get
	// prev copied into cur before the swap so their baseline holds.
	prevAperf, curAperf []uint64
	prevMperf, curMperf []uint64
	prevInstr, curInstr []uint64
	prevCore, curCore   []uint64
	okScratch           []bool // per-register read success of the sweep in progress
	curOK               []bool // all of a core's registers read this sweep

	prevPkg []uint64 // per-socket package energy baseline

	baseOK     []bool       // per-core baseline is valid
	lastStatus []CoreStatus // previous interval's classification
	pkgBaseOK  []bool       // per socket
	pkgLast    []CoreStatus // per socket
	lastGoodW  []units.Watts

	anyExecSock []bool // per-Sample scratch: socket saw MPERF advance

	// out is the double buffer the returned Samples point into: flip
	// selects the buffer being written, leaving the previous Sample's
	// slices intact for one more interval (so a reader holding last
	// interval's telemetry never races the loop).
	out  [2]Sample
	flip int

	// Optional instrumentation; nil handles no-op.
	mSamples    *metrics.Counter
	mMSRReads   *metrics.Counter
	mReadErrors *metrics.Counter
	mRetries    *metrics.Counter
	mStatusBy   [len(statusNames)]*metrics.Counter
	tally       [len(statusNames)]int // statuses classified by the Sample in progress
}

// Instrument registers the sampler's metrics on reg: samples taken, raw
// MSR reads issued, read errors, retries, and per-status core sample
// counts. Safe to call with a nil registry.
func (s *Sampler) Instrument(reg *metrics.Registry) {
	s.mSamples = reg.Counter("telemetry_samples_total", "Telemetry samples derived from MSR reads.")
	s.mMSRReads = reg.Counter("telemetry_msr_reads_total", "Raw MSR read operations issued by the sampler.")
	s.mReadErrors = reg.Counter("telemetry_read_errors_total", "MSR read operations that returned an error.")
	s.mRetries = reg.Counter("telemetry_read_retries_total", "MSR reads retried after a transient failure.")
	if reg != nil {
		// The status label set is closed, so the per-status counters are
		// resolved once here instead of a map lookup per core per interval.
		vec := reg.CounterVec("telemetry_core_status_total", "Core samples by trustworthiness classification.", "status")
		for i, name := range statusNames {
			s.mStatusBy[i] = vec.With(name)
		}
	}
}

// NewSampler builds a sampler over dev for nCores cores with nominal
// frequency nom. perCorePower selects whether per-core energy counters are
// meaningful (Ryzen) or only the package domain is (Skylake). The RAPL
// energy unit is read from the device.
func NewSampler(dev msr.Device, nCores int, nom units.Hertz, perCorePower bool) (*Sampler, error) {
	if nCores <= 0 {
		return nil, fmt.Errorf("telemetry: nCores must be positive")
	}
	if nom <= 0 {
		return nil, fmt.Errorf("telemetry: nominal frequency must be positive")
	}
	uv, err := dev.Read(0, msr.RAPLPowerUnit)
	if err != nil {
		return nil, fmt.Errorf("telemetry: reading power unit: %w", err)
	}
	s := &Sampler{
		dev:        dev,
		nCores:     nCores,
		nom:        nom,
		perCore:    perCorePower,
		unit:       msr.DecodePowerUnit(uv),
		prevAperf:  make([]uint64, nCores),
		curAperf:   make([]uint64, nCores),
		prevMperf:  make([]uint64, nCores),
		curMperf:   make([]uint64, nCores),
		prevInstr:  make([]uint64, nCores),
		curInstr:   make([]uint64, nCores),
		prevCore:   make([]uint64, nCores),
		curCore:    make([]uint64, nCores),
		okScratch:  make([]bool, nCores),
		curOK:      make([]bool, nCores),
		baseOK:     make([]bool, nCores),
		lastStatus: make([]CoreStatus, nCores),
	}
	// A core's CPU is laid down once; a sample writes its numbers only.
	for b := range s.out {
		s.out[b].Cores = make([]CoreSample, nCores)
		for i := range s.out[b].Cores {
			s.out[b].Cores[i].CPU = i
		}
	}
	s.sizeSockets(1)
	return s, nil
}

// SetSockets splits the package into n RAPL domains: the package energy
// MSR is read once per socket (through the socket's first CPU) and the
// Sample carries a per-socket power breakdown. Must be called before
// Prime; n must divide the core count. Single-socket is the default.
func (s *Sampler) SetSockets(n int) error {
	if n < 1 {
		return fmt.Errorf("telemetry: socket count %d must be positive", n)
	}
	if s.nCores%n != 0 {
		return fmt.Errorf("telemetry: %d cores do not divide into %d sockets", s.nCores, n)
	}
	if s.primed {
		return fmt.Errorf("telemetry: SetSockets after Prime")
	}
	s.sizeSockets(n)
	return nil
}

func (s *Sampler) sizeSockets(n int) {
	s.sockets = n
	s.cps = s.nCores / n
	s.prevPkg = make([]uint64, n)
	s.pkgBaseOK = make([]bool, n)
	s.pkgLast = make([]CoreStatus, n)
	s.lastGoodW = make([]units.Watts, n)
	s.anyExecSock = make([]bool, n)
	for b := range s.out {
		s.out[b].SocketPower = make([]units.Watts, n)
		s.out[b].SocketStatus = make([]CoreStatus, n)
	}
}

// Prime records a baseline without producing a sample. It must be called
// once before the first Sample. Unreadable cores and sockets are tolerated:
// they start dark and baseline on their first good read. Only a device on
// which not one core reads — the wrong device, not a degraded one — fails,
// with the first read error.
func (s *Sampler) Prime() error {
	err := s.readCores()
	primed := false
	for i, ok := range s.curOK {
		s.baseOK[i] = ok
		primed = primed || ok
	}
	if !primed {
		return fmt.Errorf("telemetry: no core could be primed: %w", err)
	}
	s.swapBaselines()
	for sck := 0; sck < s.sockets; sck++ {
		s.prevPkg[sck], s.pkgBaseOK[sck] = s.readMSR(sck*s.cps, msr.PkgEnergyStatus, 0)
	}
	s.primed = true
	return nil
}

// swapBaselines commits the current sweep as the new baseline by swapping
// the slice headers — the old baseline becomes next sweep's scratch.
func (s *Sampler) swapBaselines() {
	s.prevAperf, s.curAperf = s.curAperf, s.prevAperf
	s.prevMperf, s.curMperf = s.curMperf, s.prevMperf
	s.prevInstr, s.curInstr = s.curInstr, s.prevInstr
	s.prevCore, s.curCore = s.curCore, s.prevCore
}

// readMSR is the sampler's one retry loop: a single instrumented device
// read, tried until it succeeds or readAttempts are spent. failed is how
// many attempts the caller already made — 0 for the per-socket package
// counter, 1 for a core whose entry in a batched sweep failed.
func (s *Sampler) readMSR(cpu int, reg uint32, failed int) (uint64, bool) {
	for try := failed; try < readAttempts; try++ {
		if try > 0 {
			s.mRetries.Inc()
		}
		s.mMSRReads.Inc()
		if v, err := s.dev.Read(cpu, reg); err == nil {
			return v, true
		}
		s.mReadErrors.Inc()
	}
	return 0, false
}

// readCores reads every core with one batched sweep per register. A core
// whose reads still fail after the retries comes back curOK=false with prev
// copied into cur, so the swap holds its baseline. The returned error is the
// first one a sweep met, retried away or not; nil means every read was clean.
func (s *Sampler) readCores() error {
	for i := range s.curOK {
		s.curOK[i] = true
	}
	errs := [4]error{
		s.sweep(msr.IA32Aperf, s.curAperf),
		s.sweep(msr.IA32Mperf, s.curMperf),
		s.sweep(msr.IA32FixedCtr0, s.curInstr),
	}
	if s.perCore {
		errs[3] = s.sweep(msr.PP0EnergyStatus, s.curCore)
	}
	var first error
	for _, err := range errs {
		if err != nil {
			first = err
			break
		}
	}
	if first == nil {
		return nil
	}
	for i, ok := range s.curOK {
		if !ok {
			// Hold the failed core's baseline across the swap.
			s.curAperf[i] = s.prevAperf[i]
			s.curMperf[i] = s.prevMperf[i]
			s.curInstr[i] = s.prevInstr[i]
			s.curCore[i] = s.prevCore[i]
		}
	}
	return first
}

// sweep reads one register across all cores and, only when the batch
// reports a failure (which it returns), walks the retries for the cores
// whose entry failed, folding the outcome into curOK.
func (s *Sampler) sweep(reg uint32, dst []uint64) error {
	s.mMSRReads.Add(float64(len(dst)))
	err := msr.ReadBatch(s.dev, reg, dst, s.okScratch)
	if err == nil {
		return nil
	}
	for i, ok := range s.okScratch {
		if ok {
			continue
		}
		s.mReadErrors.Inc()
		if dst[i], ok = s.readMSR(i, reg, 1); !ok {
			s.curOK[i] = false
		}
	}
	return err
}

// flushStatus publishes the sample's status tally, one Add per status seen.
func (s *Sampler) flushStatus() {
	for st, n := range s.tally {
		if n > 0 {
			s.mStatusBy[st].Add(float64(n))
			s.tally[st] = 0
		}
	}
}

// Sample reads the device, derives telemetry relative to the previous read
// over the elapsed interval dt, and advances the baseline. The returned
// Sample's slices point into the sampler's double buffer — see the Sample
// type for the ownership rule. Steady state performs no heap allocation.
//
// The error return is reserved for misuse (Sample before Prime, bad dt):
// read failures degrade the affected core or socket to StatusDark instead.
func (s *Sampler) Sample(dt time.Duration) (Sample, error) {
	if !s.primed {
		return Sample{}, fmt.Errorf("telemetry: Sample before Prime")
	}
	if dt <= 0 {
		return Sample{}, fmt.Errorf("telemetry: non-positive interval %v", dt)
	}
	_ = s.readCores() // failures are already in curOK

	s.at += dt
	s.flip ^= 1
	out := &s.out[s.flip]
	out.At = s.at
	out.Interval = dt

	secs := dt.Seconds() // converted once for every core
	for sck := range s.anyExecSock {
		s.anyExecSock[sck] = false
		for i, end := sck*s.cps, (sck+1)*s.cps; i < end; i++ {
			if s.curOK[i] && s.baseOK[i] && s.curMperf[i] != s.prevMperf[i] {
				s.anyExecSock[sck] = true
			}
			cs := &out.Cores[i]
			s.classify(i, cs, secs)
			s.lastStatus[i] = cs.Status
			s.tally[cs.Status]++
		}
	}
	s.swapBaselines()

	out.PackagePower = 0
	worst := StatusOK
	for sck := 0; sck < s.sockets; sck++ {
		pkg, pkgOK := s.readMSR(sck*s.cps, msr.PkgEnergyStatus, 0)
		w, st := s.pkgPower(sck, pkg, pkgOK, s.anyExecSock[sck], dt)
		s.tally[st]++
		out.SocketPower[sck] = w
		out.SocketStatus[sck] = st
		out.PackagePower += w
		if statusSeverity[st] > statusSeverity[worst] {
			worst = st
		}
	}
	out.PkgStatus = worst
	s.flushStatus()
	s.mSamples.Inc()
	return *out, nil
}

// classify derives core i's values and status into cs, in place, from the
// current sweep against the baseline. i is the sampler's own index, not
// cs.CPU, which a caller holding the sample may have written to. The
// baseline slices are committed by the caller's swap, and the caller
// records the status in lastStatus and the tally. secs is the interval in
// seconds, positive.
func (s *Sampler) classify(i int, cs *CoreSample, secs float64) {
	cs.ActiveFreq, cs.IPS, cs.Power = 0, 0, 0
	if !s.curOK[i] {
		// Reads failed after retries: the core is dark. The baseline is
		// held (prev copied into cur before the swap) so a later recovery
		// can re-baseline cleanly.
		cs.Status = StatusDark
		return
	}
	hadBase := s.baseOK[i]
	s.baseOK[i] = true

	if !hadBase || s.lastStatus[i] == StatusDark || s.lastStatus[i] == StatusStale {
		// First good read after an outage (or ever): the old baseline is
		// missing or spans the outage, so deltas are meaningless. Zero the
		// derived values for one interval and resume from here — the
		// baseline committed by this sweep makes the next interval clean.
		cs.Status = StatusRecovering
		return
	}
	curA, curM, curI := s.curAperf[i], s.curMperf[i], s.curInstr[i]
	prevA, prevM, prevI := s.prevAperf[i], s.prevMperf[i], s.prevInstr[i]
	if curA < prevA || curM < prevM || curI < prevI {
		// A monotonic 64-bit counter went backwards: the register file is
		// lying (or the device was swapped underneath us).
		cs.Status = StatusStale
		return
	}
	da, dm, di := curA-prevA, curM-prevM, curI-prevI
	if da == 0 && dm == 0 && di == 0 {
		// Nothing advanced: the core spent the whole interval out of C0.
		// That is an idle core, not garbage — 0 IPS with a reason.
		cs.Status = StatusIdle
		return
	}
	if dm == 0 || da == 0 {
		// Torn sample: C0 residency and work done must advance together.
		// APERF moving while MPERF is frozen (or either frozen while
		// instructions retire) is internally inconsistent.
		cs.Status = StatusStale
		return
	}
	cs.Status = StatusOK
	cs.ActiveFreq = s.nom * units.Hertz(float64(da)/float64(dm))
	cs.IPS = float64(di) / secs
	if s.perCore {
		// Joules.Power(dt), with the conversion hoisted out of the loop.
		cs.Power = units.Watts(float64(s.unit.FromCounts(msr.DeltaCounts(s.prevCore[i], s.curCore[i]))) / secs)
	}
}

// pkgPower derives one socket's power and status. anyExec reports whether
// any of the socket's cores demonstrably executed this interval (MPERF
// advanced), which makes a frozen energy counter implausible rather than
// idle.
func (s *Sampler) pkgPower(sck int, cur uint64, ok, anyExec bool, dt time.Duration) (units.Watts, CoreStatus) {
	if !ok {
		// Unreadable: carry the last trustworthy power forward so the
		// control plane keeps a conservative estimate instead of seeing
		// zero draw.
		s.pkgLast[sck] = StatusDark
		return s.lastGoodW[sck], StatusDark
	}
	prev := s.prevPkg[sck]
	hadBase := s.pkgBaseOK[sck]
	s.prevPkg[sck], s.pkgBaseOK[sck] = cur, true
	if !hadBase || s.pkgLast[sck] == StatusDark || s.pkgLast[sck] == StatusStale {
		s.pkgLast[sck] = StatusRecovering
		return s.lastGoodW[sck], StatusRecovering
	}
	if cur == prev && anyExec {
		// Cores executed but the socket's energy counter did not move: the
		// counter is stuck. Zero watts while work is being done would let
		// every policy raise frequencies without bound, so report the last
		// good reading instead.
		s.pkgLast[sck] = StatusStale
		return s.lastGoodW[sck], StatusStale
	}
	w := s.unit.FromCounts(msr.DeltaCounts(prev, cur)).Power(dt)
	st := StatusOK
	if cur == prev {
		st = StatusIdle
	}
	s.pkgLast[sck] = st
	s.lastGoodW[sck] = w
	return w, st
}
