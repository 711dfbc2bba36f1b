package msr_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/msr"
)

// perAccess hides a recorder's sweep method, leaving the device its
// one-RecordMSR-per-read fallback.
type perAccess struct{ rec *flight.Recorder }

func (p perAccess) RecordMSR(write bool, cpu int, reg uint32, val uint64) {
	p.rec.RecordMSR(write, cpu, reg, val)
}

const sweepCPUs = 6

var errDark = errors.New("dark cpu")

// simDevice serves APERF on every cpu, MPERF on all but cpus 1 and 4, and
// FIXED_CTR0 on cpus 0..2 only.
func simDevice() *msr.SimDevice {
	d := msr.NewSimDevice()
	d.OnRead(msr.IA32Aperf, func(cpu int) (uint64, error) { return uint64(100 + cpu), nil })
	d.OnRead(msr.IA32Mperf, func(cpu int) (uint64, error) {
		if cpu == 1 || cpu == 4 {
			return 0, errDark
		}
		return uint64(200 + cpu), nil
	})
	d.OnRead(msr.IA32FixedCtr0, func(cpu int) (uint64, error) {
		if cpu >= 3 {
			return 0, errDark
		}
		return uint64(300 + cpu), nil
	})
	d.OnWrite(msr.IA32PerfCtl, func(int, uint64) error { return nil })
	return d
}

type read struct {
	core  int16
	reg   uint32
	value uint64
}

// A device feeding a sweep recorder and one feeding a plain per-access
// recorder leave the same log — every field but Wall — and that log holds
// exactly the successful reads: none for the holes of a resilient sweep,
// none from the failing cpu on of a strict one, none for an unwired register.
func TestSweepRecordsExactlySuccessfulReads(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		swept, single := flight.New(0), flight.New(0)
		clock := func() time.Duration { return 7 * time.Millisecond }
		swept.SetClock(clock)
		single.SetClock(clock)
		devSwept, devSingle := simDevice(), simDevice()
		devSwept.SetRecorder(swept)
		devSingle.SetRecorder(perAccess{single})

		type outcome struct {
			Vals []uint64
			OK   []bool
			Err  bool
		}
		drive := func(dev *msr.SimDevice) []outcome {
			var out []outcome
			sweepOnce := func(reg uint32, resilient bool) {
				vals := make([]uint64, sweepCPUs)
				var ok []bool
				if resilient {
					ok = make([]bool, sweepCPUs)
				}
				err := msr.ReadBatch(dev, reg, vals, ok)
				if !resilient && err != nil {
					vals = nil // unspecified past the failing cpu
				}
				out = append(out, outcome{vals, ok, err != nil})
			}
			sweepOnce(msr.IA32Aperf, false)     // strict, clean
			sweepOnce(msr.IA32Mperf, true)      // resilient, holes at 1 and 4
			sweepOnce(msr.IA32FixedCtr0, false) // strict, aborts at cpu 3
			sweepOnce(msr.IA32Mperf, false)     // strict, aborts at cpu 1
			sweepOnce(msr.AMDCoreEnergy, true)  // nothing to read anywhere
			if err := dev.Write(2, msr.IA32PerfCtl, 0x1800); err != nil {
				t.Fatal(err)
			}
			if _, err := dev.Read(5, msr.IA32Aperf); err != nil {
				t.Fatal(err)
			}
			return out
		}
		if a, b := drive(devSwept), drive(devSingle); !reflect.DeepEqual(a, b) {
			t.Fatalf("the recorder changed what the sweeps returned:\n swept  %+v\n single %+v", a, b)
		}

		strip := func(evs []flight.Event) []flight.Event {
			for i := range evs {
				if i > 0 && evs[i].Wall < evs[i-1].Wall {
					t.Errorf("seq %d: wall runs backwards", evs[i].Seq)
				}
				evs[i].Wall = 0
			}
			return evs
		}
		got, want := strip(swept.Snapshot()), strip(single.Snapshot())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sweep-fed and per-access logs differ:\n swept  %+v\n single %+v", got, want)
		}

		var reads []read
		for _, e := range got {
			if e.Kind == flight.KindMSRRead {
				reads = append(reads, read{e.Core, e.Arg, e.Value})
			}
		}
		var exp []read
		for cpu := 0; cpu < sweepCPUs; cpu++ {
			exp = append(exp, read{int16(cpu), msr.IA32Aperf, uint64(100 + cpu)})
		}
		for _, cpu := range []int{0, 2, 3, 5} {
			exp = append(exp, read{int16(cpu), msr.IA32Mperf, uint64(200 + cpu)})
		}
		for cpu := 0; cpu < 3; cpu++ {
			exp = append(exp, read{int16(cpu), msr.IA32FixedCtr0, uint64(300 + cpu)})
		}
		exp = append(exp, read{0, msr.IA32Mperf, 200})
		exp = append(exp, read{5, msr.IA32Aperf, 105})
		if !reflect.DeepEqual(reads, exp) {
			t.Fatalf("recorded reads\n got  %v\n want %v", reads, exp)
		}
	})
}

// perCPUWrites hides a device's batch method, leaving msr.WriteBatch its
// one-Write-per-cpu fallback.
type perCPUWrites struct{ msr.Device }

// A batch of writes does to the registers, the errors and the log what one
// Write per cpu does — every field but Wall — whichever cpus fail, in
// whatever order the cpus come; a batch of an unwired register fails every
// cpu and leaves nothing. The log holds exactly the successful writes.
func TestWriteBatchMatchesPerCPU(t *testing.T) {
	type outcome struct {
		Regs map[int]uint64
		Errs []string
		Err  string
	}
	drive := func(batched bool) (outcome, []flight.Event) {
		rec := flight.New(5) // small enough that a batch laps it
		rec.SetClock(func() time.Duration { return 7 * time.Millisecond })
		regs := map[int]uint64{}
		d := msr.NewSimDevice()
		d.OnWrite(msr.IA32PerfCtl, func(cpu int, val uint64) error {
			if cpu == 1 || cpu == 4 {
				return errDark
			}
			regs[cpu] = val
			return nil
		})
		d.SetRecorder(rec)
		var dev msr.Device = d
		if !batched {
			dev = perCPUWrites{d}
		}
		var o outcome
		for _, b := range []struct {
			reg  uint32
			cpus []int
		}{
			{msr.IA32PerfCtl, []int{5, 3, 0}},       // clean, descending
			{msr.AMDPStateCtl, []int{2, 4, 6, 1}},   // alias, holes at 4 and 1
			{msr.IA32PerfCtl, []int{4, 7}},          // a lone success
			{msr.IA32PerfCtl, []int{1, 4}},          // nothing takes
			{0xDEAD, []int{0, 2}},                   // unwired
			{msr.IA32PerfCtl, []int{0, 2, 3, 5, 6}}, // laps the 5-event ring
			{msr.IA32PerfCtl, []int{7, 0, 6, 2, 3, 5}},
		} {
			vals, errs := make([]uint64, len(b.cpus)), make([]error, len(b.cpus))
			for i, cpu := range b.cpus {
				vals[i] = uint64(0x100*len(o.Errs) + cpu)
			}
			if err := msr.WriteBatch(dev, b.reg, b.cpus, vals, errs); err != nil {
				o.Err += err.Error() + ";"
			}
			for _, err := range errs {
				o.Errs = append(o.Errs, fmt.Sprint(err))
			}
		}
		o.Regs = regs
		evs := rec.Snapshot()
		for i := range evs {
			evs[i].Wall = 0
		}
		return o, evs
	}
	gotOut, gotLog := drive(true)
	wantOut, wantLog := drive(false)
	if !reflect.DeepEqual(gotOut, wantOut) {
		t.Fatalf("batched and per-cpu writes differ:\n batched %+v\n per-cpu %+v", gotOut, wantOut)
	}
	if !reflect.DeepEqual(gotLog, wantLog) {
		t.Fatalf("batched and per-cpu logs differ:\n batched %+v\n per-cpu %+v", gotLog, wantLog)
	}
	if len(gotLog) != 5 || gotLog[4].Seq != 17 || gotLog[4].Kind != flight.KindMSRWrite {
		t.Fatalf("the ring should keep the newest 5 of 17 writes: %+v", gotLog)
	}
	d := msr.NewSimDevice()
	if err := d.WriteBatch(0xDEAD, nil, nil, nil); !errors.Is(err, msr.ErrUnknownRegister) {
		t.Errorf("empty batch of an unwired register: err = %v, want ErrUnknownRegister", err)
	}
}
