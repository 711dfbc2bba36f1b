package telemetry

import (
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/platform"
)

// faultedSampler builds a primed sampler over the machine's device wrapped
// by the fault injector, with the injector's clock driven by the machine so
// windows open and close as virtual time advances.
func faultedSampler(t *testing.T, chip platform.Chip, apps map[int]string, sched string, seed int64) (*fault.Injector, *Sampler, func(time.Duration) (Sample, error)) {
	t.Helper()
	m := machineWith(t, chip, apps)
	ss, err := fault.ParseSchedule(sched)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(ss, seed)
	inj.Drive(m)
	s, err := NewSampler(inj.WrapDevice(m.Device()), chip.NumCores, chip.Freq.Nom, chip.PerCorePower)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetSockets(chip.Sockets()); err != nil {
		t.Fatal(err)
	}
	if err := s.Prime(); err != nil {
		t.Fatal(err)
	}
	step := func(dt time.Duration) (Sample, error) {
		m.Run(dt)
		return s.Sample(dt)
	}
	return inj, s, step
}

// TestRecycledBuffersClassifyStuckCounter runs a stuck-MPERF fault
// against the batched sampler and checks, interval by
// interval, that the recycled sample buffers never leak one core's (or
// one interval's) state into another: the healthy core classifies OK
// throughout, and the faulted core walks the exact status sequence the
// state machine prescribes — two Stale intervals separated by a
// Recovering probe — with its derived values zeroed, not carried over
// from the previous occupant of the buffer slot.
func TestRecycledBuffersClassifyStuckCounter(t *testing.T) {
	// Window [30ms, 70ms): the read at 30ms caches the still-true value
	// (stuck serves the value seen at first faulted access), so interval
	// 3 is clean; intervals 4 and 6 see a frozen MPERF under an advancing
	// APERF (torn → Stale); interval 5 and 7 are the first good-looking
	// read after a Stale verdict (→ Recovering); interval 8 on is clean.
	_, _, step := faultedSampler(t, platform.Skylake(),
		map[int]string{0: "gcc", 1: "cam4"},
		"at 30ms for 40ms stuck cpu=1 regs=MPERF", 1)

	want := []CoreStatus{
		1: StatusOK, 2: StatusOK, 3: StatusOK,
		4: StatusStale, 5: StatusRecovering, 6: StatusStale, 7: StatusRecovering,
		8: StatusOK, 9: StatusOK, 10: StatusOK,
	}
	for i := 1; i <= 10; i++ {
		samp, err := step(10 * time.Millisecond)
		if err != nil {
			t.Fatalf("interval %d: %v", i, err)
		}
		if st := samp.Cores[0].Status; st != StatusOK {
			t.Errorf("interval %d: healthy core 0 = %v, want ok", i, st)
		}
		if samp.Cores[0].ActiveFreq <= 0 {
			t.Errorf("interval %d: healthy core 0 freq = %v", i, samp.Cores[0].ActiveFreq)
		}
		if st := samp.Cores[1].Status; st != want[i] {
			t.Errorf("interval %d: faulted core 1 = %v, want %v", i, st, want[i])
		}
		if want[i] != StatusOK && (samp.Cores[1].ActiveFreq != 0 || samp.Cores[1].IPS != 0) {
			// An untrustworthy interval must present zeroed derived values;
			// anything else is the previous interval bleeding through the
			// recycled buffer.
			t.Errorf("interval %d: stale core leaked freq=%v ips=%v",
				i, samp.Cores[1].ActiveFreq, samp.Cores[1].IPS)
		}
	}
}

// TestRecycledBuffersClassifyTornRegisters freezes a seed-chosen half of
// one core's registers (the torn fault class) and checks that the
// inconsistency is detected as Stale — not passed through as plausible
// values — while the healthy core's classification is untouched across
// the recycled buffers, and that the core recovers once the window ends.
func TestRecycledBuffersClassifyTornRegisters(t *testing.T) {
	inj, _, step := faultedSampler(t, platform.Skylake(),
		map[int]string{0: "gcc", 1: "cam4"},
		// The seed is chosen so the per-register coin freezes at least one
		// of the counters the classifier cross-checks; the Effects assert
		// below keeps the choice honest if the rng sequence ever changes.
		"at 30ms for 40ms torn cpu=1", 3)

	sawStale := false
	var last CoreStatus
	for i := 1; i <= 10; i++ {
		samp, err := step(10 * time.Millisecond)
		if err != nil {
			t.Fatalf("interval %d: %v", i, err)
		}
		if st := samp.Cores[0].Status; st != StatusOK {
			t.Errorf("interval %d: healthy core 0 = %v, want ok", i, st)
		}
		if samp.Cores[1].Status == StatusStale {
			sawStale = true
			if samp.Cores[1].ActiveFreq != 0 || samp.Cores[1].IPS != 0 {
				t.Errorf("interval %d: stale core leaked freq=%v ips=%v",
					i, samp.Cores[1].ActiveFreq, samp.Cores[1].IPS)
			}
		}
		last = samp.Cores[1].Status
	}
	if inj.Effects(fault.ClassTorn) == 0 {
		t.Fatal("torn fault never perturbed a read; the test exercised nothing")
	}
	if !sawStale {
		t.Error("torn registers never classified Stale")
	}
	if last != StatusOK {
		t.Errorf("core 1 did not recover after the window: %v", last)
	}
}

// TestRecycledBuffersIsolatePackageFault freezes one socket's energy
// counter on a two-socket package and checks per-socket isolation across
// buffer reuse: the faulted socket goes Stale with its last good power
// carried forward, the other socket keeps reporting OK, and the
// package-level status is the worst of the two.
func TestRecycledBuffersIsolatePackageFault(t *testing.T) {
	chip := platform.MultiSocket(platform.Skylake(), 2)
	// Socket 0's energy counter is read on cpu 0; socket 1's on cpu 10.
	_, _, step := faultedSampler(t, chip,
		map[int]string{0: "gcc", 10: "cam4"},
		"at 30ms for 40ms stuck cpu=0 regs=PKG_ENERGY_STATUS", 1)

	want := []CoreStatus{
		1: StatusOK, 2: StatusOK, 3: StatusOK,
		4: StatusStale, 5: StatusRecovering, 6: StatusStale, 7: StatusRecovering,
		8: StatusOK, 9: StatusOK, 10: StatusOK,
	}
	for i := 1; i <= 10; i++ {
		samp, err := step(10 * time.Millisecond)
		if err != nil {
			t.Fatalf("interval %d: %v", i, err)
		}
		if st := samp.SocketStatus[0]; st != want[i] {
			t.Errorf("interval %d: socket 0 = %v, want %v", i, st, want[i])
		}
		if st := samp.SocketStatus[1]; st != StatusOK {
			t.Errorf("interval %d: healthy socket 1 = %v, want ok", i, st)
		}
		if samp.PkgStatus != want[i] {
			t.Errorf("interval %d: package status = %v, want worst-of %v", i, samp.PkgStatus, want[i])
		}
		if samp.SocketPower[0] <= 0 || samp.SocketPower[1] <= 0 {
			// Stale and Recovering intervals carry the last trustworthy
			// reading forward; zero watts would mean the carried value was
			// lost when the socket slices were recycled.
			t.Errorf("interval %d: socket power = %v", i, samp.SocketPower)
		}
	}
}

// TestSampleDoubleBufferContract pins down the documented ownership rule
// for Sample's slices: a returned Sample stays intact through the next
// Sample call (the two calls fill alternating buffers) and is only
// overwritten by the one after that.
func TestSampleDoubleBufferContract(t *testing.T) {
	_, _, step := faultedSampler(t, platform.Skylake(),
		map[int]string{0: "gcc", 1: "cam4"},
		// A mid-run fault makes consecutive samples differ, so reuse of
		// the wrong buffer cannot hide behind identical contents.
		"at 20ms for 20ms stuck cpu=1 regs=MPERF", 1)

	s1, err := step(10 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	keep := append([]CoreSample(nil), s1.Cores...)

	s2, err := step(10 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if &s1.Cores[0] == &s2.Cores[0] {
		t.Fatal("consecutive samples share a backing array")
	}
	for i := range keep {
		if s1.Cores[i] != keep[i] {
			t.Fatalf("core %d mutated by the following Sample: %+v -> %+v", i, keep[i], s1.Cores[i])
		}
	}

	// The second following call reclaims s1's buffer: the contract ends.
	s3, err := step(10 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if &s1.Cores[0] != &s3.Cores[0] {
		t.Fatal("sampler is not double-buffered: expected s3 to reuse s1's buffer")
	}
}
