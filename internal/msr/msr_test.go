package msr

import (
	"errors"
	"fmt"
	"math"
	"os"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestPerfCtlRoundTrip(t *testing.T) {
	for _, step := range []units.Hertz{100 * units.MHz, 25 * units.MHz} {
		for f := step; f <= 4*units.GHz; f += step {
			v := EncodePerfCtl(f, step)
			back := DecodePerfCtl(v, step)
			if back != f {
				// The 8-bit ratio field caps at 255 steps.
				if f/step > 255 {
					continue
				}
				t.Fatalf("step %v: round trip %v -> %v", step, f, back)
			}
		}
	}
}

func TestPerfCtlZeroStep(t *testing.T) {
	if got := EncodePerfCtl(2*units.GHz, 0); got != 0 {
		t.Errorf("EncodePerfCtl with zero step = %d", got)
	}
}

func TestEnergyUnitSizes(t *testing.T) {
	u16 := EnergyUnit{ESU: 16}
	if got := float64(u16.UnitJoules()); math.Abs(got-15.2587890625e-6) > 1e-12 {
		t.Errorf("ESU 16 unit = %g, want 15.26 µJ", got)
	}
	u14 := EnergyUnit{ESU: 14}
	if got := float64(u14.UnitJoules()); math.Abs(got-61.03515625e-6) > 1e-12 {
		t.Errorf("ESU 14 unit = %g, want 61.04 µJ", got)
	}
}

func TestEnergyRoundTrip(t *testing.T) {
	u := EnergyUnit{ESU: 14}
	for _, j := range []units.Joules{0, 0.001, 1, 100, 1234.5} {
		c := u.ToCounts(j)
		back := u.FromCounts(c)
		if math.Abs(float64(back-j)) > float64(u.UnitJoules()) {
			t.Errorf("round trip %v -> %v", j, back)
		}
	}
	if u.ToCounts(-5) != 0 {
		t.Error("negative energy should clamp to zero counts")
	}
}

func TestEnergyCounterWraps(t *testing.T) {
	u := EnergyUnit{ESU: 14}
	// Energy beyond 2^32 counts must wrap like the hardware counter.
	bigJ := u.FromCounts(0xFFFFFFFF) + 10*u.UnitJoules()
	c := u.ToCounts(bigJ)
	if c >= 1<<32 {
		t.Fatalf("counter did not wrap: %d", c)
	}
	if c > 100 {
		t.Errorf("wrapped counter = %d, want small residue", c)
	}
}

func TestDeltaCountsWrap(t *testing.T) {
	if got := DeltaCounts(100, 250); got != 150 {
		t.Errorf("no-wrap delta = %d", got)
	}
	if got := DeltaCounts(0xFFFFFF00, 0x40); got != 0x140 {
		t.Errorf("wrap delta = %#x, want 0x140", got)
	}
}

// Property: accumulating energy through the wrapped counter and reading back
// deltas conserves total energy.
func TestEnergyDeltaConservation(t *testing.T) {
	u := EnergyUnit{ESU: 16}
	prop := func(chunks []uint16) bool {
		var trueTotal units.Joules
		var counter uint64
		var readTotal units.Joules
		prev := counter
		for _, c := range chunks {
			j := units.Joules(float64(c) / 100) // up to ~655 J per chunk
			trueTotal += j
			counter = (counter + uint64(float64(j)*float64(uint64(1)<<u.ESU))) & 0xFFFFFFFF
			readTotal += u.FromCounts(DeltaCounts(prev, counter))
			prev = counter
		}
		return math.Abs(float64(readTotal-trueTotal)) < float64(len(chunks)+1)*float64(u.UnitJoules())
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPowerUnitRoundTrip(t *testing.T) {
	for _, esu := range []uint{14, 16, 10} {
		v := EncodePowerUnit(EnergyUnit{ESU: esu})
		if got := DecodePowerUnit(v); got.ESU != esu {
			t.Errorf("ESU round trip %d -> %d", esu, got.ESU)
		}
	}
}

func TestPowerLimitRoundTrip(t *testing.T) {
	for _, w := range []units.Watts{20, 40, 50, 85, 95.5} {
		for _, en := range []bool{true, false} {
			v := EncodePowerLimit(w, en)
			gw, gen := DecodePowerLimit(v)
			if math.Abs(float64(gw-w)) > 0.125 || gen != en {
				t.Errorf("limit round trip (%v,%v) -> (%v,%v)", w, en, gw, gen)
			}
		}
	}
}

func TestCanonicalAliases(t *testing.T) {
	alias := map[uint32]uint32{
		AMDPStateCtl:   IA32PerfCtl,
		AMDPStateStat:  IA32PerfStatus,
		AMDRAPLPwrUnit: RAPLPowerUnit,
		AMDCoreEnergy:  PP0EnergyStatus,
		AMDPkgEnergy:   PkgEnergyStatus,
	}
	for from, to := range alias {
		if got := Canonical(from); got != to {
			t.Errorf("Canonical(0x%X) = 0x%X, want 0x%X", from, got, to)
		}
	}
	if got := Canonical(IA32Aperf); got != IA32Aperf {
		t.Errorf("Canonical should be identity for canonical regs")
	}
}

func TestSimDeviceDispatch(t *testing.T) {
	d := NewSimDevice()
	var wrote uint64
	d.OnRead(IA32Aperf, func(cpu int) (uint64, error) { return uint64(cpu) * 10, nil })
	d.OnWrite(IA32PerfCtl, func(cpu int, val uint64) error { wrote = val; return nil })

	if v, err := d.Read(3, IA32Aperf); err != nil || v != 30 {
		t.Errorf("Read = %d, %v", v, err)
	}
	if err := d.Write(0, IA32PerfCtl, 0x1600); err != nil || wrote != 0x1600 {
		t.Errorf("Write: %v, wrote=%#x", err, wrote)
	}
	// AMD alias reaches the same handler.
	if err := d.Write(0, AMDPStateCtl, 0x800); err != nil || wrote != 0x800 {
		t.Errorf("alias write: %v, wrote=%#x", err, wrote)
	}
	if _, err := d.Read(0, 0xDEAD); !errors.Is(err, ErrUnknownRegister) {
		t.Errorf("unknown read error = %v", err)
	}
	if err := d.Write(0, 0xDEAD, 1); !errors.Is(err, ErrUnknownRegister) {
		t.Errorf("unknown write error = %v", err)
	}
}

// A register served by a sweep handler reads, under both error disciplines,
// what the same register served one cpu at a time reads — holes in the
// middle of the run and an unwired register included.
func TestSweepHandlerMatchesPerCPU(t *testing.T) {
	errBad := errors.New("bad cpu")
	bad := func(cpu int) bool { return cpu == 1 || cpu == 4 || cpu >= 7 }
	one := func(cpu int) (uint64, error) {
		if bad(cpu) {
			return 0, fmt.Errorf("cpu %d: %w", cpu, errBad)
		}
		return uint64(100 + cpu), nil
	}
	perCPUDev, sweepDev := NewSimDevice(), NewSimDevice()
	perCPUDev.OnRead(IA32Aperf, one)
	sweepDev.OnReadSweep(IA32Aperf, one, func(first int, vals []uint64) (int, error) {
		for i := range vals {
			if bad(first + i) {
				return i, fmt.Errorf("cpu %d: %w", first+i, errBad)
			}
			vals[i] = uint64(100 + first + i)
		}
		return len(vals), nil
	})
	type outcome struct {
		vals []uint64
		ok   []bool
		err  string
	}
	// reads is BatchReader's contract written out over single reads.
	reads := func(d *SimDevice, reg uint32, vals []uint64, ok []bool) error {
		var first error
		for cpu := range vals {
			v, err := d.Read(cpu, reg)
			if err != nil && ok == nil {
				return err
			}
			if err != nil && first == nil {
				first = err
			}
			vals[cpu] = v
			if ok != nil {
				ok[cpu] = err == nil
			}
		}
		return first
	}
	sweeps := func(d *SimDevice, reg uint32, vals []uint64, ok []bool) error { return d.ReadBatch(reg, vals, ok) }
	run := func(read func(*SimDevice, uint32, []uint64, []bool) error, d *SimDevice, reg uint32, n int, resilient bool) outcome {
		o := outcome{vals: make([]uint64, n)}
		for i := range o.vals {
			o.vals[i] = math.MaxUint64 // stale, so a skipped cpu shows
		}
		if resilient {
			o.ok = make([]bool, n)
			for i := range o.ok {
				o.ok[i] = true
			}
		}
		if err := read(d, reg, o.vals, o.ok); err != nil {
			o.err = err.Error()
			if !resilient {
				o.vals = nil // unspecified past the failing cpu
			}
		}
		return o
	}
	for _, reg := range []uint32{IA32Aperf, 0xDEAD} {
		for _, n := range []int{0, 1, 3, 6, 9} {
			if reg == 0xDEAD && n == 0 {
				continue // no single read to compare with; checked below
			}
			for _, resilient := range []bool{true, false} {
				want := run(reads, perCPUDev, reg, n, resilient)
				for name, d := range map[string]*SimDevice{"sweep handler": sweepDev, "per-cpu handler": perCPUDev} {
					if got := run(sweeps, d, reg, n, resilient); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("reg 0x%X, %d cpus, resilient %v: %s sweep\n got  %v\n want %v", reg, n, resilient, name, got, want)
					}
				}
			}
		}
	}
	for _, ok := range [][]bool{nil, {}} {
		if err := sweepDev.ReadBatch(0xDEAD, nil, ok); !errors.Is(err, ErrUnknownRegister) {
			t.Errorf("empty sweep of an unwired register (ok %v): err = %v, want ErrUnknownRegister", ok, err)
		}
	}
}

func TestFileDeviceRoundTrip(t *testing.T) {
	d, err := NewFileDevice(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write(2, IA32PerfCtl, 0xABCD1234DEADBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := d.Read(2, IA32PerfCtl)
	if err != nil || v != 0xABCD1234DEADBEEF {
		t.Errorf("Read = %#x, %v", v, err)
	}
	// Unwritten registers read as zero.
	if v, err := d.Read(0, PkgEnergyStatus); err != nil || v != 0 {
		t.Errorf("absent register = %#x, %v", v, err)
	}
	// AMD alias hits the same file.
	if v, err := d.Read(2, AMDPStateCtl); err != nil || v != 0xABCD1234DEADBEEF {
		t.Errorf("alias read = %#x, %v", v, err)
	}
	// A resilient sweep leaves a hole at a truncated register file, reads
	// the absent one as zero and the written one whole, and reports the hole.
	if err := d.Write(1, IA32PerfCtl, 7); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(d.path(1, IA32PerfCtl), []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	vals, ok := make([]uint64, 3), make([]bool, 3)
	if err := d.ReadBatch(IA32PerfCtl, vals, ok); err == nil || !ok[0] || ok[1] || !ok[2] || vals[0] != 0 || vals[2] != 0xABCD1234DEADBEEF {
		t.Errorf("sweep over a truncated file: vals %#x ok %v err %v", vals, ok, err)
	}
}

func TestFileDevicePersistsAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	d1, err := NewFileDevice(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Write(0, PkgEnergyStatus, 42); err != nil {
		t.Fatal(err)
	}
	d2, err := NewFileDevice(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := d2.Read(0, PkgEnergyStatus); v != 42 {
		t.Errorf("persisted value = %d, want 42", v)
	}
}

func TestMirror(t *testing.T) {
	src := NewSimDevice()
	src.OnRead(IA32Aperf, func(cpu int) (uint64, error) { return 100 + uint64(cpu), nil })
	src.OnRead(IA32Mperf, func(cpu int) (uint64, error) { return 200 + uint64(cpu), nil })
	dst, err := NewFileDevice(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := Mirror(src, dst, 4, []uint32{IA32Aperf, IA32Mperf}); err != nil {
		t.Fatal(err)
	}
	for cpu := 0; cpu < 4; cpu++ {
		if v, _ := dst.Read(cpu, IA32Aperf); v != 100+uint64(cpu) {
			t.Errorf("cpu%d aperf = %d", cpu, v)
		}
		if v, _ := dst.Read(cpu, IA32Mperf); v != 200+uint64(cpu) {
			t.Errorf("cpu%d mperf = %d", cpu, v)
		}
	}
}

func TestMirrorPropagatesErrors(t *testing.T) {
	src := NewSimDevice() // no handlers: read fails
	dst, err := NewFileDevice(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := Mirror(src, dst, 1, []uint32{IA32Aperf}); err == nil {
		t.Error("Mirror should propagate read errors")
	}
}

// accessLog is a test Recorder capturing every recorded access.
type accessLog struct {
	ops []string
}

func (l *accessLog) RecordMSR(write bool, cpu int, reg uint32, val uint64) {
	op := "r"
	if write {
		op = "w"
	}
	l.ops = append(l.ops, fmt.Sprintf("%s cpu%d %s %d", op, cpu, RegName(reg), val))
}

func TestSimDeviceRecorder(t *testing.T) {
	d := NewSimDevice()
	d.OnRead(IA32Aperf, func(cpu int) (uint64, error) { return 42, nil })
	d.OnWrite(IA32PerfCtl, func(cpu int, val uint64) error { return nil })
	log := &accessLog{}
	d.SetRecorder(log)
	if _, err := d.Read(1, IA32Aperf); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(2, AMDPStateCtl, 0x1800); err != nil { // alias: canonicalised
		t.Fatal(err)
	}
	if _, err := d.Read(0, IA32FixedCtr0); err == nil {
		t.Fatal("unwired register should fail")
	}
	want := []string{"r cpu1 APERF 42", "w cpu2 PERF_CTL 6144"}
	if len(log.ops) != len(want) {
		t.Fatalf("recorded %v, want %v", log.ops, want)
	}
	for i := range want {
		if log.ops[i] != want[i] {
			t.Errorf("op %d = %q, want %q", i, log.ops[i], want[i])
		}
	}
	// Failed accesses are not recorded.
	d.SetRecorder(nil)
	if _, err := d.Read(1, IA32Aperf); err != nil {
		t.Fatal(err)
	}
	if len(log.ops) != 2 {
		t.Error("recorder not removed")
	}
}

func TestRegName(t *testing.T) {
	if RegName(IA32Aperf) != "APERF" || RegName(AMDPkgEnergy) != "PKG_ENERGY_STATUS" {
		t.Error("known registers should name")
	}
	if RegName(0xDEAD) != "0xDEAD" {
		t.Errorf("unknown register = %q", RegName(0xDEAD))
	}
}
