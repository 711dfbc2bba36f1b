package telemetry

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/msr"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

func machineWith(t *testing.T, chip platform.Chip, apps map[int]string) *sim.Machine {
	t.Helper()
	m, err := sim.New(chip)
	if err != nil {
		t.Fatal(err)
	}
	for core, name := range apps {
		if err := m.Pin(workload.NewInstance(workload.MustByName(name)), core); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestNewSamplerValidation(t *testing.T) {
	m := machineWith(t, platform.Skylake(), nil)
	if _, err := NewSampler(m.Device(), 0, 2*units.GHz, false); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := NewSampler(m.Device(), 10, 0, false); err == nil {
		t.Error("zero nominal accepted")
	}
}

func TestSampleBeforePrimeFails(t *testing.T) {
	m := machineWith(t, platform.Skylake(), nil)
	s, err := NewSampler(m.Device(), 10, m.Chip().Freq.Nom, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sample(time.Second); err == nil {
		t.Error("unprimed sample accepted")
	}
	if err := s.Prime(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sample(0); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestSamplerDerivesMachineState(t *testing.T) {
	m := machineWith(t, platform.Skylake(), map[int]string{0: "gcc", 1: "leela"})
	if err := m.SetRequest(0, 1800*units.MHz); err != nil {
		t.Fatal(err)
	}
	if err := m.SetRequest(1, 1200*units.MHz); err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(m.Device(), m.Chip().NumCores, m.Chip().Freq.Nom, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Prime(); err != nil {
		t.Fatal(err)
	}
	m.Run(time.Second)
	sample, err := s.Sample(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(sample.Cores[0].ActiveFreq-1800*units.MHz)) > 1e6 {
		t.Errorf("core0 freq = %v, want 1.8 GHz", sample.Cores[0].ActiveFreq)
	}
	if math.Abs(float64(sample.Cores[1].ActiveFreq-1200*units.MHz)) > 1e6 {
		t.Errorf("core1 freq = %v, want 1.2 GHz", sample.Cores[1].ActiveFreq)
	}
	// Idle core: no C0 residency, zero frequency and IPS.
	if sample.Cores[5].ActiveFreq != 0 || sample.Cores[5].IPS != 0 {
		t.Errorf("idle core sample = %+v", sample.Cores[5])
	}
	// IPS should match the workload model within counter truncation error.
	wantIPS := workload.MustByName("gcc").IPS(1800 * units.MHz)
	if math.Abs(sample.Cores[0].IPS-wantIPS)/wantIPS > 0.01 {
		t.Errorf("core0 IPS = %g, want %g", sample.Cores[0].IPS, wantIPS)
	}
	// Package power should match the machine's instantaneous power.
	if math.Abs(float64(sample.PackagePower-m.PackagePower())) > 0.5 {
		t.Errorf("package power = %v, machine = %v", sample.PackagePower, m.PackagePower())
	}
	if sample.At != time.Second || sample.Interval != time.Second {
		t.Errorf("timestamps: %+v", sample)
	}
	var total float64
	for _, c := range sample.Cores {
		total += c.IPS
	}
	if total < wantIPS {
		t.Errorf("total IPS = %g", total)
	}
}

func TestPerCorePowerOnRyzen(t *testing.T) {
	m := machineWith(t, platform.Ryzen(), map[int]string{0: "cactusBSSN"})
	s, err := NewSampler(m.Device(), m.Chip().NumCores, m.Chip().Freq.Nom, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Prime(); err != nil {
		t.Fatal(err)
	}
	m.Run(time.Second)
	sample, err := s.Sample(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if sample.Cores[0].Power <= 1 {
		t.Errorf("busy core power = %v, want watts", sample.Cores[0].Power)
	}
	if sample.Cores[3].Power >= sample.Cores[0].Power {
		t.Errorf("idle core power %v >= busy %v", sample.Cores[3].Power, sample.Cores[0].Power)
	}
}

func TestSkylakeReportsNoPerCorePower(t *testing.T) {
	m := machineWith(t, platform.Skylake(), map[int]string{0: "gcc"})
	s, err := NewSampler(m.Device(), m.Chip().NumCores, m.Chip().Freq.Nom, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Prime(); err != nil {
		t.Fatal(err)
	}
	m.Run(time.Second)
	sample, err := s.Sample(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range sample.Cores {
		if c.Power != 0 {
			t.Fatalf("Skylake per-core power should be zero, got %v on cpu%d", c.Power, c.CPU)
		}
	}
}

func TestSuccessiveSamplesAreIndependent(t *testing.T) {
	m := machineWith(t, platform.Skylake(), map[int]string{0: "gcc"})
	if err := m.SetRequest(0, 2000*units.MHz); err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(m.Device(), m.Chip().NumCores, m.Chip().Freq.Nom, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Prime(); err != nil {
		t.Fatal(err)
	}
	m.Run(time.Second)
	s1, err := s.Sample(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Change frequency; the next interval must reflect only the new rate.
	if err := m.SetRequest(0, 1000*units.MHz); err != nil {
		t.Fatal(err)
	}
	m.Run(time.Second)
	s2, err := s.Sample(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(s2.Cores[0].ActiveFreq-1000*units.MHz)) > 1e6 {
		t.Errorf("second interval freq = %v, want 1 GHz", s2.Cores[0].ActiveFreq)
	}
	if s2.Cores[0].IPS >= s1.Cores[0].IPS {
		t.Errorf("IPS should drop with frequency: %g -> %g", s1.Cores[0].IPS, s2.Cores[0].IPS)
	}
	if s2.At != 2*time.Second {
		t.Errorf("At = %v", s2.At)
	}

	// The third sample refills the first one's buffer in place: a core's
	// CPU is laid down once, and a core that went idle reads zeros, not the
	// numbers the slot held two intervals ago.
	if err := m.SetIdle(0, true); err != nil {
		t.Fatal(err)
	}
	m.Run(time.Second)
	s3, err := s.Sample(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if c := s3.Cores[0]; c.Status != StatusIdle || c.ActiveFreq != 0 || c.IPS != 0 || c.Power != 0 {
		t.Errorf("idled core reads %+v, want an idle sample of zeros", c)
	}
	for _, smp := range []Sample{s2, s3} {
		for i, c := range smp.Cores {
			if c.CPU != i {
				t.Fatalf("Cores[%d].CPU = %d", i, c.CPU)
			}
		}
	}
}

// failAfterDevice passes through to the machine's device until n reads have
// happened, then fails every read.
type failAfterDevice struct {
	dev   msr.Device
	n     int
	reads int
}

func (f *failAfterDevice) Read(cpu int, reg uint32) (uint64, error) {
	f.reads++
	if f.reads > f.n {
		return 0, fmt.Errorf("injected read failure")
	}
	return f.dev.Read(cpu, reg)
}

func (f *failAfterDevice) Write(cpu int, reg uint32, v uint64) error {
	return f.dev.Write(cpu, reg, v)
}

func TestInstrumentCountsReadsAndErrors(t *testing.T) {
	chip := platform.Skylake()
	m := machineWith(t, chip, map[int]string{0: "gcc"})
	reg := metrics.NewRegistry()
	s, err := NewSampler(m.Device(), chip.NumCores, chip.Freq.Nom, chip.PerCorePower)
	if err != nil {
		t.Fatal(err)
	}
	s.Instrument(reg)
	if err := s.Prime(); err != nil {
		t.Fatal(err)
	}
	m.Run(time.Second)
	if _, err := s.Sample(time.Second); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("telemetry_samples_total", "").Value(); v != 1 {
		t.Errorf("samples = %v, want 1", v)
	}
	// One read per core for APERF/MPERF/FIXED_CTR0 plus the package energy
	// counter, per read() pass (prime + sample).
	wantReads := float64(2 * (3*chip.NumCores + 1))
	if v := reg.Counter("telemetry_msr_reads_total", "").Value(); v != wantReads {
		t.Errorf("msr reads = %v, want %v", v, wantReads)
	}
	if v := reg.Counter("telemetry_read_errors_total", "").Value(); v != 0 {
		t.Errorf("read errors = %v, want 0", v)
	}
}

func TestInstrumentCountsFailedReads(t *testing.T) {
	chip := platform.Skylake()
	m := machineWith(t, chip, nil)
	fd := &failAfterDevice{dev: m.Device(), n: 1 << 30}
	reg := metrics.NewRegistry()
	s, err := NewSampler(fd, chip.NumCores, chip.Freq.Nom, false)
	if err != nil {
		t.Fatal(err)
	}
	s.Instrument(reg)
	fd.n = fd.reads // every further read fails
	if err := s.Prime(); err == nil {
		t.Fatal("device on which no core reads primed successfully")
	}
	// One error per attempt: every core's three registers, readAttempts each.
	want := float64(3 * chip.NumCores * readAttempts)
	if v := reg.Counter("telemetry_read_errors_total", "").Value(); v != want {
		t.Errorf("read errors = %v, want %v", v, want)
	}
	if v := reg.Counter("telemetry_msr_reads_total", "").Value(); v != want {
		t.Errorf("msr reads = %v, want %v", v, want)
	}
}

// telemetry_core_status_total counts one per classified core and one per
// socket, per status, however the sampler batches the additions: over a
// mixed sample — an executing core, an idle one, a torn one, a dark one —
// and the recovery after it, each status's counter equals the number of
// times that status appears in the returned Samples.
func TestInstrumentCountsStatusesOfMixedSample(t *testing.T) {
	const cores = 4
	aperf, mperf, instr := make([]uint64, cores), make([]uint64, cores), make([]uint64, cores)
	var energy uint64
	dark := -1
	at := func(vals []uint64) func(int) (uint64, error) {
		return func(cpu int) (uint64, error) {
			if cpu == dark {
				return 0, fmt.Errorf("cpu%d unreadable", cpu)
			}
			return vals[cpu], nil
		}
	}
	dev := msr.NewSimDevice()
	dev.OnRead(msr.IA32Aperf, at(aperf))
	dev.OnRead(msr.IA32Mperf, at(mperf))
	dev.OnRead(msr.IA32FixedCtr0, at(instr))
	dev.OnRead(msr.RAPLPowerUnit, func(int) (uint64, error) { return msr.EncodePowerUnit(msr.EnergyUnit{ESU: 14}), nil })
	dev.OnRead(msr.PkgEnergyStatus, func(int) (uint64, error) { return energy, nil })

	reg := metrics.NewRegistry()
	s, err := NewSampler(dev, cores, 2_000_000_000, false)
	if err != nil {
		t.Fatal(err)
	}
	s.Instrument(reg)
	if err := s.Prime(); err != nil {
		t.Fatal(err)
	}

	want := map[CoreStatus]float64{}
	sample := func(expect [cores]CoreStatus) {
		t.Helper()
		out, err := s.Sample(10 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range out.Cores {
			if c.Status != expect[i] {
				t.Errorf("core %d classified %v, want %v", i, c.Status, expect[i])
			}
			want[c.Status]++
		}
		for _, st := range out.SocketStatus {
			want[st]++
		}
	}
	// Core 0 executes, core 1 sleeps, core 2's MPERF is frozen under a
	// moving APERF, core 3 cannot be read.
	aperf[0], mperf[0], instr[0] = 1000, 1000, 5000
	aperf[2], instr[2] = 700, 100
	energy, dark = 4096, 3
	sample([cores]CoreStatus{StatusOK, StatusIdle, StatusStale, StatusDark})
	// Everything reads and advances again: the two outage cores re-baseline.
	dark = -1
	for i := range aperf {
		aperf[i] += 500
		mperf[i] += 500
		instr[i] += 900
	}
	energy += 4096
	sample([cores]CoreStatus{StatusOK, StatusOK, StatusRecovering, StatusRecovering})

	vec := reg.CounterVec("telemetry_core_status_total", "", "status")
	for st, name := range statusNames {
		if got := vec.With(name).Value(); got != want[CoreStatus(st)] {
			t.Errorf("telemetry_core_status_total{status=%q} = %v, want %v", name, got, want[CoreStatus(st)])
		}
	}
	if want[StatusOK] != 5 || want[StatusDark] != 1 || want[StatusStale] != 1 || want[StatusIdle] != 1 || want[StatusRecovering] != 2 {
		t.Errorf("samples held %v", want)
	}
}

// Prime over a device with one dead cpu succeeds with no mode selected: the
// dead core samples StatusDark while the others derive normally, and the
// core re-baselines through StatusRecovering once it reads again.
func TestPrimeDegradesDeadCoreAndRebaselines(t *testing.T) {
	const cores, dead = 4, 2
	var ticks uint64 // every counter of every cpu reads ticks*1000
	alive := false
	dev := msr.NewSimDevice()
	counter := func(cpu int) (uint64, error) {
		if cpu == dead && !alive {
			return 0, fmt.Errorf("cpu%d unreadable", cpu)
		}
		return ticks * 1000, nil
	}
	for _, reg := range []uint32{msr.IA32Aperf, msr.IA32Mperf, msr.IA32FixedCtr0, msr.PkgEnergyStatus} {
		dev.OnRead(reg, counter)
	}
	dev.OnRead(msr.RAPLPowerUnit, func(int) (uint64, error) { return msr.EncodePowerUnit(msr.EnergyUnit{ESU: 14}), nil })

	s, err := NewSampler(dev, cores, 2_000_000_000, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Prime(); err != nil {
		t.Fatalf("Prime over one dead cpu of %d: %v", cores, err)
	}
	sample := func(want CoreStatus) {
		t.Helper()
		ticks++
		out, err := s.Sample(10 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range out.Cores {
			wantSt, wantIPS := StatusOK, 1000/0.01 // one interval's delta, not the outage's
			if i == dead && want != StatusOK {
				wantSt, wantIPS = want, 0
			}
			if c.Status != wantSt || c.IPS != wantIPS {
				t.Errorf("tick %d: core %d = %v at %v IPS, want %v at %v", ticks, i, c.Status, c.IPS, wantSt, wantIPS)
			}
		}
		if out.PkgStatus != StatusOK {
			t.Errorf("tick %d: package status %v", ticks, out.PkgStatus)
		}
	}
	sample(StatusDark)
	sample(StatusDark)
	alive = true
	sample(StatusRecovering) // first good read: baseline only
	sample(StatusOK)
}

// A caller owns the sample it holds and may write to it; the sampler's own
// indices never come from it. Overwriting every CPU in both buffers with an
// out-of-range value must not steer (or crash) later samples.
func TestCallerWritesDoNotSteerSampler(t *testing.T) {
	m := machineWith(t, platform.Skylake(), map[int]string{0: "gcc"})
	if err := m.SetRequest(0, 2000*units.MHz); err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(m.Device(), m.Chip().NumCores, m.Chip().Freq.Nom, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Prime(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		m.Run(time.Second)
		smp, err := s.Sample(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if c := smp.Cores[0]; c.Status != StatusOK || math.Abs(float64(c.ActiveFreq-2000*units.MHz)) > 1e6 {
			t.Fatalf("sample %d: core 0 reads %+v, want 2 GHz OK", i, c)
		}
		for k := range smp.Cores {
			smp.Cores[k].CPU = -1
		}
	}
}
