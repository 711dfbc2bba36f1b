package replay

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/flight"
	"repro/internal/flight/flighttest"
	"repro/internal/msr"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/svc"
	"repro/internal/units"
	"repro/internal/workload"
)

// record runs a policy-controlled workload mix with the flight recorder
// attached and returns the resulting dump.
func record(t *testing.T, policy string, capacity int, d time.Duration) flight.Dump {
	t.Helper()
	chip, err := platform.ByName("skylake")
	if err != nil {
		t.Fatal(err)
	}
	rec := flight.New(capacity)
	flighttest.DumpOnFailure(t, rec)
	m, err := sim.New(chip, sim.WithFlightRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	specs := []core.AppSpec{
		{Name: "gcc", Core: 0, Shares: 90},
		{Name: "cam4", Core: 1, Shares: 10, AVX: true},
	}
	limit := units.Watts(50)
	interval := time.Second
	var pol core.Policy
	var slo daemon.SLOSource
	var targets []core.SLOTarget
	switch policy {
	case "slo":
		// Two serving cores and two batch apps under SLOFeedback, which
		// restates every core's frequency each interval. The service is
		// named after the SPEC profile its cores draw power like, because
		// replay re-pins apps by name.
		limit, interval = 30, 50*time.Millisecond
		targets = []core.SLOTarget{{Service: "leela", P99: 40 * time.Millisecond}}
		specs = []core.AppSpec{
			{Name: "leela", Core: 0, Shares: 50},
			{Name: "leela", Core: 1, Shares: 50},
			{Name: "gcc", Core: 2, Shares: 50},
			{Name: "cam4", Core: 3, Shares: 20, AVX: true},
		}
		model, merr := svc.NewModel(svc.Config{
			Name: "leela", Cores: []int{0, 1}, Seed: 3, Profile: workload.MustByName("leela"),
			Arrivals: svc.OpenPoisson, Rate: svc.ConstantRate(80), SLO: targets[0].P99,
		})
		if merr != nil {
			t.Fatal(merr)
		}
		if err := model.Attach(m); err != nil { // pins the serving cores
			t.Fatal(err)
		}
		slo = model
		pol, err = core.NewSLOFeedback(chip, specs, core.SLOConfig{Targets: targets})
	case "frequency":
		pol, err = core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	case "priority":
		// Priority with a tight limit parks the LP core, so the dump
		// contains park/wake actuations too.
		limit = 22
		specs[0].Shares, specs[1].Shares = 0, 0
		specs[0].HighPriority = true
		pol, err = core.NewPriority(chip, specs, core.PriorityConfig{Limit: limit})
	default:
		t.Fatalf("unknown policy %q", policy)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if m.App(s.Core) != nil {
			continue
		}
		p := workload.MustByName(s.Name)
		if err := m.Pin(workload.NewInstance(p), s.Core); err != nil {
			t.Fatal(err)
		}
	}
	dmn, err := daemon.New(daemon.Config{
		Chip: chip, Policy: pol, Apps: specs,
		Limit: limit, Interval: interval, Flight: rec, SLO: slo, SLOTargets: targets,
	}, m.Device(), daemon.MachineActuator{M: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := dmn.AttachVirtual(m); err != nil {
		t.Fatal(err)
	}
	m.Run(d)
	if err := dmn.Err(); err != nil {
		t.Fatal(err)
	}
	return rec.Dump("test")
}

// TestReplayBitIdentical is the flight recorder's core guarantee: replaying
// a dump against a fresh machine reproduces every recorded MSR read — and
// therefore the derived per-core frequency and package-power series — bit
// for bit.
func TestReplayBitIdentical(t *testing.T) {
	for _, policy := range []string{"frequency", "priority"} {
		t.Run(policy, func(t *testing.T) {
			d := record(t, policy, 0, 20*time.Second)
			res, err := Replay(d)
			if err != nil {
				t.Fatal(err)
			}
			if res.Truncated {
				t.Fatal("dump unexpectedly truncated")
			}
			if res.Writes == 0 || res.Reads == 0 {
				t.Fatalf("replay saw no inputs: %d writes, %d reads", res.Writes, res.Reads)
			}
			if policy == "priority" && res.Parks == 0 {
				t.Error("priority run replayed no park/wake actuations")
			}
			for _, mm := range res.Mismatches {
				t.Errorf("mismatch: %v", mm)
			}
			// The derived series must agree exactly — same floats, not
			// approximately equal floats.
			if len(res.RecordedFreq) == 0 || len(res.RecordedPower) == 0 {
				t.Fatal("no derived series")
			}
			for corenum, recSeries := range res.RecordedFreq {
				repSeries := res.ReplayedFreq[corenum]
				if len(recSeries) != len(repSeries) {
					t.Fatalf("core %d: %d recorded freq points, %d replayed",
						corenum, len(recSeries), len(repSeries))
				}
				for i := range recSeries {
					if recSeries[i] != repSeries[i] {
						t.Errorf("core %d point %d: recorded %+v, replayed %+v",
							corenum, i, recSeries[i], repSeries[i])
					}
				}
			}
			if len(res.RecordedPower) != len(res.ReplayedPower) {
				t.Fatalf("%d recorded power points, %d replayed",
					len(res.RecordedPower), len(res.ReplayedPower))
			}
			for i := range res.RecordedPower {
				if res.RecordedPower[i] != res.ReplayedPower[i] {
					t.Errorf("power point %d: recorded %+v, replayed %+v",
						i, res.RecordedPower[i], res.ReplayedPower[i])
				}
			}
		})
	}
}

// The sampler's sweeps reach the recorder as batches — every read of a sweep
// under one stamp — and a dump of them replays as a per-access dump does:
// no mismatch, the derived series equal float for float.
func TestReplayBatchedSweepDump(t *testing.T) {
	d := record(t, "frequency", 0, 10*time.Second)
	sweeps := 0
	for i := 1; i < len(d.Events); i++ {
		a, b := d.Events[i-1], d.Events[i]
		if a.Kind == flight.KindMSRRead && b.Kind == flight.KindMSRRead && a.Arg == b.Arg &&
			b.Core == a.Core+1 && (b.Seq != a.Seq+1 || b.Wall != a.Wall || b.Time != a.Time) {
			t.Fatalf("neighbours of one sweep stamped apart: %+v then %+v", a, b)
		}
		if b.Kind == flight.KindMSRRead && b.Core == 1 && a.Core == 0 && a.Arg == b.Arg {
			sweeps++
		}
	}
	if sweeps == 0 {
		t.Fatal("dump holds no batched sweep")
	}
	res, err := Replay(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || res.Reads == 0 || len(res.Mismatches) != 0 {
		t.Fatalf("truncated %v, %d reads, mismatches %v", res.Truncated, res.Reads, res.Mismatches)
	}
	if !reflect.DeepEqual(res.RecordedFreq, res.ReplayedFreq) || !reflect.DeepEqual(res.RecordedPower, res.ReplayedPower) {
		t.Fatal("replayed series differ from the recorded ones")
	}
}

// An interval's P-state writes reach the recorder as one batch — every
// write of it under one stamp, ahead of the interval's actuation events,
// which are one batch of their own — and a dump of them replays as a
// per-write dump does: no mismatch, the derived series equal float for
// float. The slo run restates four cores' requests an interval; the
// priority run adds parks and wakes to the actuation batches.
func TestReplayBatchedWriteDump(t *testing.T) {
	for _, policy := range []string{"slo", "priority"} {
		t.Run(policy, func(t *testing.T) {
			d := record(t, policy, 1<<16, 10*time.Second)
			batched := 0
			lastWrite, firstAct := map[uint32]uint64{}, map[uint32]uint64{}
			for i, ev := range d.Events {
				switch ev.Kind {
				case flight.KindMSRWrite:
					lastWrite[ev.Interval] = ev.Seq
					if i > 0 {
						prev := d.Events[i-1]
						if prev.Kind == flight.KindMSRWrite && prev.Interval == ev.Interval &&
							(prev.Seq+1 != ev.Seq || prev.Wall != ev.Wall || prev.Time != ev.Time) {
							t.Fatalf("writes of one interval stamped apart: %+v then %+v", prev, ev)
						}
						if prev.Kind == flight.KindMSRWrite && prev.Interval == ev.Interval {
							batched++
						}
					}
				case flight.KindActuate:
					if _, seen := firstAct[ev.Interval]; !seen {
						firstAct[ev.Interval] = ev.Seq
					}
				}
			}
			if policy == "slo" && batched == 0 {
				t.Fatal("dump holds no batch of two or more writes")
			}
			for iv, w := range lastWrite {
				if a, ok := firstAct[iv]; ok && iv > 0 && a < w {
					t.Fatalf("interval %d: an actuation (seq %d) precedes a write (seq %d)", iv, a, w)
				}
			}
			res, err := Replay(d)
			if err != nil {
				t.Fatal(err)
			}
			if res.Truncated || res.Writes == 0 || res.Reads == 0 || len(res.Mismatches) != 0 {
				t.Fatalf("truncated %v, %d writes, %d reads, mismatches %v", res.Truncated, res.Writes, res.Reads, res.Mismatches)
			}
			if policy == "priority" && res.Parks == 0 {
				t.Fatal("priority run replayed no park/wake actuations")
			}
			if !reflect.DeepEqual(res.RecordedFreq, res.ReplayedFreq) || !reflect.DeepEqual(res.RecordedPower, res.ReplayedPower) {
				t.Fatal("replayed series differ from the recorded ones")
			}
		})
	}
}

// TestReplayRoundTripThroughFile exercises the full pipeline: record, encode
// to the binary dump format, decode, replay.
func TestReplayRoundTripThroughFile(t *testing.T) {
	d := record(t, "frequency", 0, 10*time.Second)
	dir := t.TempDir()
	path, err := flight.WriteDumpFile(dir, d)
	if err != nil {
		t.Fatal(err)
	}
	back, err := flight.ReadDumpFile(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(back)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mismatches) != 0 {
		t.Fatalf("%d mismatches after file round trip; first: %v",
			len(res.Mismatches), res.Mismatches[0])
	}
}

// TestReplayTruncatedDump checks that a dump whose ring overwrote the start
// of the run is flagged rather than silently replayed from a wrong state.
func TestReplayTruncatedDump(t *testing.T) {
	// A tiny ring over a long run is guaranteed to overwrite.
	d := record(t, "frequency", 16, 30*time.Second)
	res, err := Replay(d)
	if err != nil {
		// A truncated dump may legitimately fail to drive (e.g. a wake for
		// a core the replayed machine thinks is already awake); that is an
		// acceptable outcome as long as complete dumps replay cleanly.
		t.Logf("truncated replay failed to drive: %v", err)
		return
	}
	if !res.Truncated {
		t.Error("dump from overwritten ring not flagged as truncated")
	}
}

// TestMachineRejectsForeignMeta checks the guard rails on rebuilding.
func TestMachineRejectsForeignMeta(t *testing.T) {
	if _, err := Machine(flight.Meta{}); err == nil {
		t.Error("no chip metadata: want error")
	}
	if _, err := Machine(flight.Meta{Chip: "no-such-chip"}); err == nil {
		t.Error("unknown chip: want error")
	}
	if _, err := Machine(flight.Meta{Chip: "skylake", NumCores: 99}); err == nil {
		t.Error("core-count mismatch: want error")
	}
	if _, err := Machine(flight.Meta{Chip: "skylake", Apps: []flight.MetaApp{{Name: "no-such-app"}}}); err == nil {
		t.Error("unknown app: want error")
	}
}

// TestReplayElidedDump: under SLOFeedback the policy restates every core's
// frequency each interval and the daemon writes only the requests that
// changed, so a PERF_CTL write in the dump means "the request moved". The
// writes that remain are still every input the machine had: the dump
// replays without a mismatch.
func TestReplayElidedDump(t *testing.T) {
	const apps, intervals = 4, 400 // 20 s at the slo run's 50 ms
	d := record(t, "slo", 1<<16, 20*time.Second)
	writes, setfreqs := 0, 0
	for _, ev := range d.Events {
		switch {
		case ev.Kind == flight.KindMSRWrite && ev.Arg == msr.IA32PerfCtl:
			writes++
		case ev.Kind == flight.KindActuate && ev.Arg == flight.ActSetFreq:
			setfreqs++
		}
	}
	asked := apps * intervals // an upper bound: deadband intervals ask for nothing
	if writes != setfreqs || writes <= apps || writes >= asked/2 {
		t.Fatalf("%d PERF_CTL writes, %d setfreq actuations, at most %d asked for: want equal, and most of them elided",
			writes, setfreqs, asked)
	}
	res, err := Replay(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || res.Writes != writes || res.Reads == 0 || len(res.Mismatches) != 0 {
		t.Fatalf("truncated %v, %d of %d writes replayed, %d reads, mismatches %v",
			res.Truncated, res.Writes, writes, res.Reads, res.Mismatches)
	}
	if !reflect.DeepEqual(res.RecordedFreq, res.ReplayedFreq) || !reflect.DeepEqual(res.RecordedPower, res.ReplayedPower) {
		t.Fatal("replayed series differ from the recorded ones")
	}
}
