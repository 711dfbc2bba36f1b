package sim

import (
	"reflect"
	"testing"

	"repro/internal/flight"
	"repro/internal/msr"
	"repro/internal/platform"
	"repro/internal/workload"
)

// wiredReads is every register the machine answers reads for, AMD aliases
// included; wiredWrites every register it accepts writes to, with a value
// to write.
var (
	wiredReads = []uint32{
		msr.IA32Aperf, msr.IA32Mperf, msr.IA32FixedCtr0,
		msr.IA32PerfCtl, msr.IA32PerfStatus,
		msr.RAPLPowerUnit, msr.PkgPowerLimit, msr.PkgEnergyStatus, msr.PP0EnergyStatus,
		msr.AMDPStateCtl, msr.AMDPStateStat, msr.AMDRAPLPwrUnit, msr.AMDCoreEnergy, msr.AMDPkgEnergy,
	}
	wiredWrites = []struct {
		reg uint32
		val uint64
	}{
		{msr.IA32PerfCtl, msr.EncodePerfCtl(2e9, 1e8)},
		{msr.AMDPStateCtl, msr.EncodePerfCtl(2e9, 1e8)},
		{msr.PkgPowerLimit, msr.EncodePowerLimit(50, true)},
	}
)

// A CPU the machine does not have is refused by every register, read or
// write, with the error a per-core counter gives it — as the file device
// and Linux's /dev/cpu/N/msr refuse it.
func TestMSROutOfRangeCPU(t *testing.T) {
	for _, chip := range []platform.Chip{platform.Skylake(), platform.Ryzen()} {
		m, err := New(chip)
		if err != nil {
			t.Fatal(err)
		}
		dev := m.Device()
		for _, cpu := range []int{-1, chip.NumCores} {
			_, want := dev.Read(cpu, msr.IA32Aperf)
			if want == nil {
				t.Fatalf("%s: APERF read on cpu %d succeeded", chip.Name, cpu)
			}
			for _, reg := range wiredReads {
				if _, err := dev.Read(cpu, reg); err == nil || err.Error() != want.Error() {
					t.Errorf("%s: read %s (0x%X) on cpu %d: err %v, want %v", chip.Name, msr.RegName(reg), reg, cpu, err, want)
				}
			}
			for _, w := range wiredWrites {
				if err := dev.Write(cpu, w.reg, w.val); err == nil || err.Error() != want.Error() {
					t.Errorf("%s: write %s (0x%X) on cpu %d: err %v, want %v", chip.Name, msr.RegName(w.reg), w.reg, cpu, err, want)
				}
			}
		}
		if got := m.Limiter().Limit(); got != 0 {
			t.Errorf("%s: a refused PKG_POWER_LIMIT write set the limit to %v", chip.Name, got)
		}
	}
}

// sweepOutcome is what one sweep of one register returned.
type sweepOutcome struct {
	Reg  uint32
	Vals []uint64
	OK   []bool
	Err  bool
}

// perCPUSweep is the reference a batch sweep is held to: one Read per cpu,
// a failure zeroing its value and clearing its ok in a resilient sweep and
// ending a strict one there.
func perCPUSweep(dev msr.Device, reg uint32, vals []uint64, ok []bool) error {
	var first error
	for cpu := range vals {
		v, err := dev.Read(cpu, reg)
		if err != nil {
			if ok == nil {
				return err
			}
			if first == nil {
				first = err
			}
			vals[cpu], ok[cpu] = 0, false
			continue
		}
		vals[cpu] = v
		if ok != nil {
			ok[cpu] = true
		}
	}
	return first
}

// A batch sweep of every register the machine wires, over two CPUs more
// than it has, strict and resilient, returns what a per-CPU Read loop
// returns — values, ok, whether an error came back — and leaves the same
// flight log but for Wall.
func TestSweepMatchesPerCPURead(t *testing.T) {
	for _, chip := range []platform.Chip{
		platform.Skylake(),
		platform.Ryzen(),
		platform.MultiSocket(platform.ScaleSocket(platform.Skylake(), 64), 2),
	} {
		t.Run(chip.Name, func(t *testing.T) {
			build := func() (*Machine, *flight.Recorder) {
				rec := flight.New(0)
				m, err := New(chip, WithFlightRecorder(rec))
				if err != nil {
					t.Fatal(err)
				}
				profiles := workload.SPEC2017()
				levels := chip.Freq.Levels()
				for c := 0; c < chip.NumCores; c++ {
					if c == chip.NumCores/2 {
						continue // idle
					}
					if err := m.Pin(workload.NewInstance(profiles[c%len(profiles)]), c); err != nil {
						t.Fatal(err)
					}
					if err := m.SetRequest(c, levels[c%len(levels)]); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 300; i++ {
					m.Step()
				}
				return m, rec
			}
			drive := func(m *Machine, read func(dev msr.Device, reg uint32, vals []uint64, ok []bool) error) []sweepOutcome {
				var out []sweepOutcome
				n := chip.NumCores + 2
				for _, reg := range wiredReads {
					for _, resilient := range []bool{true, false} {
						// Stale contents, so a sweep that skips a cpu shows.
						vals := make([]uint64, n)
						for i := range vals {
							vals[i] = ^uint64(0)
						}
						var ok []bool
						if resilient {
							ok = make([]bool, n)
							for i := range ok {
								ok[i] = true
							}
						}
						err := read(m.Device(), reg, vals, ok)
						if err == nil {
							t.Fatalf("%s: a sweep past cpu %d met no error", msr.RegName(reg), chip.NumCores-1)
						}
						if !resilient {
							vals = vals[:chip.NumCores] // unspecified from the failing cpu on
						}
						out = append(out, sweepOutcome{reg, vals, ok, err != nil})
					}
					m.Step()
				}
				return out
			}
			mBatch, recBatch := build()
			mOne, recOne := build()
			got := drive(mBatch, msr.ReadBatch)
			want := drive(mOne, perCPUSweep)
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("sweep %d (%s): batch and per-CPU reads differ:\n batch   %+v\n per-CPU %+v",
						i, msr.RegName(want[i].Reg), got[i], want[i])
				}
			}
			strip := func(evs []flight.Event) []flight.Event {
				for i := range evs {
					evs[i].Wall = 0
				}
				return evs
			}
			if a, b := strip(recBatch.Snapshot()), strip(recOne.Snapshot()); !reflect.DeepEqual(a, b) {
				for i := range min(len(a), len(b)) {
					if a[i] != b[i] {
						t.Fatalf("flight logs differ at event %d of %d/%d:\n batch   %+v\n per-CPU %+v", i, len(a), len(b), a[i], b[i])
					}
				}
				t.Fatalf("flight logs differ in length: batch %d, per-CPU %d", len(a), len(b))
			}
			reads := 0
			for _, e := range recBatch.Snapshot() {
				if e.Kind == flight.KindMSRRead {
					reads++
				}
			}
			if want := 2 * chip.NumCores * len(wiredReads); reads != want {
				t.Fatalf("flight log holds %d reads, want every in-range cpu of every sweep: %d", reads, want)
			}
		})
	}
}

// A counter read allocates nothing, one CPU at a time or a sweep at a time:
// the single-CPU read's one-value buffer stays on the stack.
func TestCounterReadsDoNotAllocate(t *testing.T) {
	chip := platform.Skylake()
	m, err := New(chip, WithFlightRecorder(flight.New(0)))
	if err != nil {
		t.Fatal(err)
	}
	dev := m.Device()
	vals, ok := make([]uint64, chip.NumCores), make([]bool, chip.NumCores)
	for _, reg := range []uint32{msr.IA32Aperf, msr.IA32Mperf, msr.IA32FixedCtr0, msr.PP0EnergyStatus} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := dev.Read(1, reg); err != nil {
				t.Fatal(err)
			}
			if err := msr.ReadBatch(dev, reg, vals, ok); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocations a read and a sweep", msr.RegName(reg), n)
		}
	}
}
