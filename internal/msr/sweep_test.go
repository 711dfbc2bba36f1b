package msr_test

import (
	"errors"
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
