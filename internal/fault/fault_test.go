package fault

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/msr"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// countingDevice serves monotonically increasing values and counts access.
type countingDevice struct {
	reads, writes, batches int
	val                    uint64
	wrote                  []int // cpus written, in order
}

func (d *countingDevice) Read(cpu int, reg uint32) (uint64, error) {
	d.reads++
	d.val++
	return d.val, nil
}

func (d *countingDevice) Write(cpu int, reg uint32, val uint64) error {
	d.writes++
	d.wrote = append(d.wrote, cpu)
	return nil
}

// WriteBatch counts one dispatch and a write per cpu.
func (d *countingDevice) WriteBatch(reg uint32, cpus []int, vals []uint64, errs []error) error {
	d.batches++
	return msr.WriteBatchFunc(d.Write, reg, cpus, vals, errs)
}

func window(class Class, mut func(*Entry)) Schedule {
	e := Entry{At: 0, For: time.Second, Class: class, CPU: -1, Prob: 1}
	if mut != nil {
		mut(&e)
	}
	return Schedule{e}
}

func TestEIOFailsReadsOnlyInsideWindow(t *testing.T) {
	inner := &countingDevice{}
	in := New(window(ClassEIO, nil), 1)
	dev := in.WrapDevice(inner)

	in.AdvanceTo(0)
	if _, err := dev.Read(0, msr.IA32Aperf); !errors.Is(err, ErrInjected) {
		t.Fatalf("inside window: err = %v, want ErrInjected", err)
	}
	if inner.reads != 0 {
		t.Fatalf("failed read leaked to inner device (%d reads)", inner.reads)
	}
	in.AdvanceTo(2 * time.Second)
	if _, err := dev.Read(0, msr.IA32Aperf); err != nil {
		t.Fatalf("after window: %v", err)
	}
	if got := in.Effects(ClassEIO); got != 1 {
		t.Fatalf("effects = %d, want 1", got)
	}
}

func TestEIOProbabilityIsSeedDeterministic(t *testing.T) {
	run := func(seed int64) []bool {
		in := New(window(ClassEIO, func(e *Entry) { e.Prob = 0.5 }), seed)
		dev := in.WrapDevice(&countingDevice{})
		in.AdvanceTo(0)
		out := make([]bool, 64)
		for i := range out {
			_, err := dev.Read(0, msr.IA32Aperf)
			out[i] = err != nil
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at read %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault patterns")
	}
}

func TestStuckServesFrozenValue(t *testing.T) {
	inner := &countingDevice{}
	in := New(window(ClassStuck, nil), 1)
	dev := in.WrapDevice(inner)
	in.AdvanceTo(0)
	first, err := dev.Read(0, msr.IA32Mperf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		v, err := dev.Read(0, msr.IA32Mperf)
		if err != nil {
			t.Fatal(err)
		}
		if v != first {
			t.Fatalf("stuck register advanced: %d -> %d", first, v)
		}
	}
	if inner.reads != 1 {
		t.Fatalf("inner reads = %d, want 1 (cache fill only)", inner.reads)
	}
	// Another CPU freezes independently at its own value.
	v2, _ := dev.Read(1, msr.IA32Mperf)
	if v2 == first {
		t.Fatal("cpu1 served cpu0's frozen value")
	}
	in.AdvanceTo(2 * time.Second)
	v, _ := dev.Read(0, msr.IA32Mperf)
	if v == first {
		t.Fatal("register still frozen after window closed")
	}
}

func TestTornFreezesSubsetOfRegisters(t *testing.T) {
	// With one register per read key and many keys, a fair coin must both
	// freeze some and leave some live.
	inner := &countingDevice{}
	in := New(window(ClassTorn, nil), 7)
	dev := in.WrapDevice(inner)
	in.AdvanceTo(0)
	frozen, live := 0, 0
	for cpu := 0; cpu < 16; cpu++ {
		a, _ := dev.Read(cpu, msr.IA32Aperf)
		b, _ := dev.Read(cpu, msr.IA32Aperf)
		if a == b {
			frozen++
		} else {
			live++
		}
	}
	if frozen == 0 || live == 0 {
		t.Fatalf("torn split frozen=%d live=%d, want both nonzero", frozen, live)
	}
}

func TestLatencyAccountsAndSleeps(t *testing.T) {
	in := New(window(ClassLatency, func(e *Entry) { e.Delay = 3 * time.Millisecond }), 1)
	dev := in.WrapDevice(&countingDevice{})
	in.AdvanceTo(0)
	for i := 0; i < 4; i++ {
		if _, err := dev.Read(0, msr.IA32Aperf); err != nil {
			t.Fatal(err)
		}
	}
	if want := 12 * time.Millisecond; in.TotalLatency() != want {
		t.Fatalf("accounted %v, want %v", in.TotalLatency(), want)
	}
}

func TestOfflineBlocksReadsAndWrites(t *testing.T) {
	inner := &countingDevice{}
	in := New(window(ClassOffline, func(e *Entry) { e.CPU = 2 }), 1)
	dev := in.WrapDevice(inner)
	in.AdvanceTo(0)
	if _, err := dev.Read(2, msr.IA32Aperf); !errors.Is(err, ErrInjected) {
		t.Fatalf("read of offline cpu: %v", err)
	}
	if err := dev.Write(2, msr.IA32PerfCtl, 1); !errors.Is(err, ErrInjected) {
		t.Fatalf("write to offline cpu: %v", err)
	}
	if _, err := dev.Read(1, msr.IA32Aperf); err != nil {
		t.Fatalf("other cpu affected: %v", err)
	}
	if err := dev.Write(1, msr.IA32PerfCtl, 1); err != nil {
		t.Fatalf("other cpu write affected: %v", err)
	}
}

// batchTrap is a countingDevice whose own batch path must never be taken.
type batchTrap struct {
	countingDevice
	t *testing.T
}

func (d *batchTrap) ReadBatch(uint32, []uint64, []bool) error {
	d.t.Error("the injector handed a sweep to the wrapped device's batch path, past its per-access windows")
	return nil
}

// A sweep through the injector is one faulting Read per cpu: the offline
// cpu's hole appears in it and the wrapped device's batch path is not used.
func TestSweepDelegatesPerAccess(t *testing.T) {
	inner := &batchTrap{t: t}
	in := New(window(ClassOffline, func(e *Entry) { e.CPU = 2 }), 1)
	in.AdvanceTo(0)
	vals, ok := make([]uint64, 4), make([]bool, 4)
	err := msr.ReadBatch(in.WrapDevice(inner), msr.IA32Aperf, vals, ok)
	if want := []bool{true, true, false, true}; !errors.Is(err, ErrInjected) || !reflect.DeepEqual(ok, want) || inner.reads != 3 {
		t.Fatalf("err %v, ok %v (want %v), %d inner reads (want 3)", err, ok, want, inner.reads)
	}
}

// A batch of writes through the injector fails the offline cpu alone: its
// neighbours reach the wrapped device, in the batch's order, and the batch
// reports the offline cpu's error.
func TestWriteBatchFailsOfflineCPUAlone(t *testing.T) {
	inner := &countingDevice{}
	in := New(window(ClassOffline, func(e *Entry) { e.CPU = 2 }), 1)
	in.AdvanceTo(0)
	cpus, vals, errs := []int{3, 2, 0}, []uint64{30, 20, 0}, make([]error, 3)
	err := msr.WriteBatch(in.WrapDevice(inner), msr.IA32PerfCtl, cpus, vals, errs)
	if !errors.Is(err, ErrInjected) || errs[0] != nil || !errors.Is(errs[1], ErrInjected) || errs[2] != nil {
		t.Fatalf("err %v, errs %v: want cpu 2 alone to fail", err, errs)
	}
	if inner.batches != 1 || inner.writes != 2 || in.Effects(ClassOffline) != 1 {
		t.Fatalf("%d inner batches (want 1), %d inner writes (want 2), %d offline effects (want 1)",
			inner.batches, inner.writes, in.Effects(ClassOffline))
	}
	if !slices.Equal(inner.wrote, []int{3, 0}) {
		t.Fatalf("inner device wrote cpus %v, want [3 0]", inner.wrote)
	}
	// With no cpu offline the batch passes through whole; with every cpu
	// offline nothing reaches the device.
	inner.batches, inner.wrote = 0, nil
	if err := msr.WriteBatch(in.WrapDevice(inner), msr.IA32PerfCtl, []int{0, 1}, vals[:2], errs[:2]); err != nil || inner.batches != 1 {
		t.Fatalf("err %v, %d inner batches: want nil and 1", err, inner.batches)
	}
	if err := msr.WriteBatch(in.WrapDevice(inner), msr.IA32PerfCtl, []int{2, 2}, vals[:2], errs[:2]); !errors.Is(err, ErrInjected) ||
		!errors.Is(errs[0], ErrInjected) || !errors.Is(errs[1], ErrInjected) || inner.batches != 1 {
		t.Fatalf("err %v, errs %v, %d inner batches: want both to fail and no dispatch", err, errs, inner.batches)
	}
}

func TestPlatformFaultsDriveMachineAndFlight(t *testing.T) {
	chip := platform.Skylake()
	m, err := sim.New(chip)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Pin(workload.NewInstance(workload.MustByName("gcc")), 0); err != nil {
		t.Fatal(err)
	}
	rec := flight.New(flight.DefaultCapacity)
	rec.SetClock(m.Now)
	sched, err := ParseSchedule(`
at 10ms for 20ms thermal cap=1200MHz
at 15ms for 10ms rapl limit=30W
at 40ms for 20ms offline cpu=0
`)
	if err != nil {
		t.Fatal(err)
	}
	in := New(sched, 1)
	in.Flight(rec)
	reg := metrics.NewRegistry()
	in.Instrument(reg)
	in.Drive(m)

	m.Run(12 * time.Millisecond)
	if got := m.ThermalCap(); got != 1200*units.MHz {
		t.Fatalf("thermal cap = %v, want 1200 MHz", got)
	}
	if got := in.activeG.Value(); got != 1 {
		t.Fatalf("active windows = %v, want 1", got)
	}
	m.Run(8 * time.Millisecond) // t=20ms: rapl window open
	if got := m.Limiter().Limit(); got != 30 {
		t.Fatalf("rapl limit = %v, want 30 W", got)
	}
	m.Run(15 * time.Millisecond) // t=35ms: both cleared
	if m.ThermalCap() != 0 {
		t.Fatalf("thermal cap not restored: %v", m.ThermalCap())
	}
	if got := m.Limiter().Limit(); got == 30 {
		t.Fatalf("rapl limit not restored: %v", got)
	}
	m.Run(10 * time.Millisecond) // t=45ms: core 0 offline
	if !m.Offline(0) {
		t.Fatal("core 0 should be offline")
	}
	m.Run(20 * time.Millisecond) // t=65ms: back online
	if m.Offline(0) {
		t.Fatal("core 0 should be back online")
	}

	// Every transition must be in the flight ring: 3 injects, 3 clears.
	injects, clears := 0, 0
	for _, ev := range rec.Snapshot() {
		switch ev.Kind {
		case flight.KindFaultInject:
			injects++
		case flight.KindFaultClear:
			clears++
		}
	}
	if injects != 3 || clears != 3 {
		t.Fatalf("flight saw %d injects, %d clears; want 3 and 3", injects, clears)
	}
}

// A window that opens and closes between two ticks is never seen open: its
// two calendar edges fire at the same later tick, where AdvanceTo finds it
// closed. A window that spans a tick opens at it, as a check that the first
// one would have been seen.
func TestFaultEdgeBetweenTicksOpensNothing(t *testing.T) {
	m, err := sim.New(platform.Skylake())
	if err != nil {
		t.Fatal(err)
	}
	rec := flight.New(flight.DefaultCapacity)
	rec.SetClock(m.Now)
	sched, err := ParseSchedule(`
at 1200us for 500us thermal cap=1200MHz
at 2100us for 800us eio cpu=* prob=1
at 4500us for 1ms rapl limit=30W
`)
	if err != nil {
		t.Fatal(err)
	}
	in := New(sched, 1)
	in.Flight(rec)
	in.Drive(m)
	capSeen := false
	m.OnTick(func(time.Duration) { capSeen = capSeen || m.ThermalCap() != 0 })

	m.Run(4 * time.Millisecond)
	if capSeen || len(rec.Snapshot()) != 0 {
		t.Fatalf("sub-tick windows: thermal cap seen %v, flight events %+v", capSeen, rec.Snapshot())
	}
	if _, err := in.WrapDevice(&countingDevice{}).Read(0, msr.IA32Aperf); err != nil {
		t.Fatalf("eio window between ticks failed a read: %v", err)
	}
	m.Run(3 * time.Millisecond)
	var got []flight.Kind
	for _, ev := range rec.Snapshot() {
		if ev.Arg != ClassRAPL.FlightCode() {
			t.Fatalf("event for class %s, want only rapl", flight.FaultName(ev.Arg))
		}
		got = append(got, ev.Kind)
	}
	if want := []flight.Kind{flight.KindFaultInject, flight.KindFaultClear}; !reflect.DeepEqual(got, want) {
		t.Fatalf("flight kinds %v, want %v", got, want)
	}
}

func TestFlightCodesCoverAllClasses(t *testing.T) {
	seen := map[uint32]bool{}
	for c := Class(0); c < numClasses; c++ {
		code := c.FlightCode()
		if code == ^uint32(0) {
			t.Fatalf("class %s has no flight code", c)
		}
		if seen[code] {
			t.Fatalf("class %s shares a flight code", c)
		}
		seen[code] = true
		if flight.FaultName(code) != c.String() {
			t.Fatalf("flight name %q != class name %q", flight.FaultName(code), c)
		}
	}
}
