package daemon

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/msr"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/units"
)

// dispatchCounter counts the P-state write calls that reach the device: a
// Write or a WriteBatch is one dispatch however many cpus it carries.
type dispatchCounter struct {
	msr.Device
	dispatches int
}

func (d *dispatchCounter) Write(cpu int, reg uint32, val uint64) error {
	d.dispatches++
	return d.Device.Write(cpu, reg, val)
}

func (d *dispatchCounter) WriteBatch(reg uint32, cpus []int, vals []uint64, errs []error) error {
	d.dispatches++
	return msr.WriteBatch(d.Device, reg, cpus, vals, errs)
}

// writeCommits counts the device's write commits into the flight recorder:
// a RecordMSRWrites or a RecordMSR of a write is one commit.
type writeCommits struct {
	rec     *flight.Recorder
	commits int
}

func (w *writeCommits) RecordMSR(write bool, cpu int, reg uint32, val uint64) {
	if write {
		w.commits++
	}
	w.rec.RecordMSR(write, cpu, reg, val)
}

func (w *writeCommits) RecordMSRWrites(reg uint32, cpus []int, vals []uint64, errs []error) {
	w.commits++
	w.rec.RecordMSRWrites(reg, cpus, vals, errs)
}

// batchRig is a 32-core machine, one app a core, under a daemon whose
// actuator writes through a dispatch counter, with flight and metrics on.
// Every flight commit reads the recorder's clock once, so the clock counts
// commits.
type batchRig struct {
	m       *sim.Machine
	d       *Daemon
	rec     *flight.Recorder
	dev     *dispatchCounter
	writes  *writeCommits
	commits int
	// lists[k] sets every core to 2000 MHz but cores [0, k) to 1500, so
	// alternating lists[k] with lists[0] rewrites k P-states each call.
	lists [batchCores + 1][]core.Action
}

const batchCores = 32

func newBatchRig(tb testing.TB) *batchRig {
	tb.Helper()
	chip := platform.ScaleSocket(platform.Skylake(), batchCores)
	names, specs := loopApps(chip)
	r := &batchRig{rec: flight.New(0)}
	r.m = buildMachine(tb, chip, names, sim.WithFlightRecorder(r.rec))
	r.rec.SetClock(func() time.Duration { r.commits++; return r.m.Now() })
	r.writes = &writeCommits{rec: r.rec}
	r.m.Device().(*msr.SimDevice).SetRecorder(r.writes)
	r.dev = &dispatchCounter{Device: r.m.Device()}
	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	r.d, err = New(Config{
		Chip: chip, Policy: pol, Apps: specs, Limit: chip.RAPLMax * 6 / 10,
		Metrics: metrics.NewRegistry(), Flight: r.rec,
	}, r.m.Device(), MachineActuator{M: r.m, Dev: r.dev})
	if err != nil {
		tb.Fatal(err)
	}
	if err := r.d.Start(); err != nil {
		tb.Fatal(err)
	}
	for k := range r.lists {
		r.lists[k] = make([]core.Action, batchCores)
		for c := range batchCores {
			r.lists[k][c] = core.Action{Core: c, Freq: 2000 * units.MHz}
			if c < k {
				r.lists[k][c].Freq = 1500 * units.MHz
			}
		}
	}
	r.apply(tb, r.lists[0])
	return r
}

func (r *batchRig) apply(tb testing.TB, actions []core.Action) {
	d := r.d
	d.mu.Lock()
	failed, err := d.apply(actions)
	d.mu.Unlock()
	if failed != 0 {
		tb.Fatalf("%d actions failed: %v", failed, err)
	}
}

// An interval that rewrites n of 32 P-states makes one device dispatch and
// two flight commits — the device's write batch and the daemon's actuation
// batch — for any n from 1 to 32, and none when nothing changed; the n
// writes and n actuations are all in them.
func TestApplyBatchCounts(t *testing.T) {
	r := newBatchRig(t)
	for _, n := range []int{0, 1, 2, 8, 31, 32, 0} {
		t.Run(fmt.Sprintf("rewrite=%d", n), func(t *testing.T) {
			for _, list := range [][]core.Action{r.lists[n], r.lists[0]} {
				r.dev.dispatches, r.writes.commits, r.commits = 0, 0, 0
				events := r.rec.Total()
				r.apply(t, list)
				one := min(n, 1)
				if r.dev.dispatches != one || r.writes.commits != one || r.commits != 2*one {
					t.Fatalf("%d dispatches, %d write commits, %d commits: want %d, %d, %d",
						r.dev.dispatches, r.writes.commits, r.commits, one, one, 2*one)
				}
				if got := r.rec.Total() - events; got != uint64(2*n) {
					t.Fatalf("%d events committed, want %d writes and %d actuations", got, n, n)
				}
			}
		})
	}
}

// The acting interval allocates nothing: one simulator step plus one
// control iteration whose policy rewrites 8 of 32 P-states, every recorder
// the batch feeds on.
func TestApplyBatchAllocs(t *testing.T) {
	r := newBatchRig(t)
	pol := &scriptPolicy{at: func(i int) []core.Action {
		if i%2 == 0 {
			return r.lists[0]
		}
		return r.lists[8]
	}}
	r.d.cfg.Policy = pol
	iterate := func() {
		r.m.Step()
		if _, err := r.d.RunIteration(time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	for range 20 {
		iterate()
	}
	r.dev.dispatches = 0
	if a := testing.AllocsPerRun(100, iterate); a != 0 {
		t.Errorf("allocs per acting interval = %v, want 0", a)
	}
	if r.dev.dispatches == 0 {
		t.Fatal("no interval wrote: the gate measured a quiet loop")
	}
}

// BenchmarkApply times one apply on 32 cores whose policy restates every
// core, rewriting 0, 8 or all 32 P-states, flight and metrics on. ns/write
// is the call's time over the writes it makes.
func BenchmarkApply(b *testing.B) {
	r := newBatchRig(b)
	for _, n := range []int{0, 8, batchCores} {
		b.Run(fmt.Sprintf("rewrite=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := range b.N {
				if i%2 == 0 {
					r.apply(b, r.lists[n])
				} else {
					r.apply(b, r.lists[0])
				}
			}
			if n > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/write")
			}
		})
	}
}
