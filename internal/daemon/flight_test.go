package daemon

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/flight/flighttest"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// flightRun drives a shares-policy virtual run with a flight recorder and
// the given trigger config, returning the recorder and daemon.
func flightRun(t *testing.T, trig FlightTriggers, limit units.Watts, d time.Duration) (*flight.Recorder, *Daemon) {
	t.Helper()
	chip := platform.Skylake()
	rec := flight.New(0)
	flighttest.DumpOnFailure(t, rec)
	m, err := sim.New(chip, sim.WithFlightRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"gcc", "cam4"}
	for i, n := range names {
		if err := m.Pin(workload.NewInstance(workload.MustByName(n)), i); err != nil {
			t.Fatal(err)
		}
	}
	specs := specsFor(names, []units.Shares{90, 10}, nil)
	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dmn, err := New(Config{
		Chip: chip, Policy: pol, Apps: specs, Limit: limit,
		Flight: rec, Triggers: trig,
	}, m.Device(), MachineActuator{M: m})
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
	return rec, dmn
}

// TestFlightRecordsControlLoop checks the daemon-side recording contract:
// every interval leaves typed decision events, actuations are logged, MSR
// traffic is tagged with the interval that issued it, and the control-plane
// metadata lands in the dump.
func TestFlightRecordsControlLoop(t *testing.T) {
	rec, dmn := flightRun(t, FlightTriggers{}, 50, 10*time.Second)
	d := rec.Dump("test")

	if d.Meta.Policy != "frequency-shares" || d.Meta.LimitWatts != 50 {
		t.Errorf("control meta: %+v", d.Meta)
	}
	if len(d.Meta.Apps) != 2 || d.Meta.Apps[0].Name != "gcc" || d.Meta.Apps[0].Shares != 90 {
		t.Errorf("apps meta: %+v", d.Meta.Apps)
	}
	if d.Meta.Chip == "" || d.Meta.NumCores == 0 {
		t.Errorf("machine meta missing: %+v", d.Meta)
	}

	decisionsByIvl := map[uint32]int{}
	var actuates, reads int
	var sawReason bool
	for _, e := range d.Events {
		switch e.Kind {
		case flight.KindDecision:
			decisionsByIvl[e.Interval]++
			if flight.ReasonFromCode(e.Arg) != core.Reason("unknown") {
				sawReason = true
			}
			if e.Aux == 0 {
				t.Fatalf("decision without limit payload: %+v", e)
			}
		case flight.KindActuate:
			actuates++
		case flight.KindMSRRead:
			reads++
		}
	}
	if !sawReason {
		t.Error("no decision carried a typed reason")
	}
	if actuates == 0 || reads == 0 {
		t.Errorf("actuates=%d reads=%d, want both > 0", actuates, reads)
	}
	for ivl := uint32(1); int(ivl) <= dmn.Iterations(); ivl++ {
		if decisionsByIvl[ivl] == 0 {
			t.Errorf("interval %d has no decision events", ivl)
		}
	}
	// The sampler's reads must carry the interval that issued them, so span
	// trees can attribute sample latency.
	var taggedReads int
	for _, e := range d.Events {
		if e.Kind == flight.KindMSRRead && e.Interval >= 1 {
			taggedReads++
		}
	}
	if taggedReads == 0 {
		t.Error("no MSR read tagged with a control interval")
	}
}

// TestOverLimitTriggerDumps checks that sustained power over the limit
// snapshots the ring to a dump file exactly once per excursion.
func TestOverLimitTriggerDumps(t *testing.T) {
	dir := t.TempDir()
	var fired []string
	trig := FlightTriggers{
		Dir:          dir,
		OverLimitFor: 2 * time.Second,
		OnDump: func(path, reason string, err error) {
			if err != nil {
				t.Errorf("dump failed: %v", err)
			}
			fired = append(fired, reason)
		},
	}
	// 14 W is below what the mix draws even throttled, so the excursion is
	// sustained and the trigger must fire — but only once.
	flightRun(t, trig, 14, 20*time.Second)
	if len(fired) != 1 || fired[0] != "power-over-limit" {
		t.Fatalf("trigger firings = %v, want exactly one power-over-limit", fired)
	}
	files, err := filepath.Glob(filepath.Join(dir, "flight-*.fr"))
	if err != nil || len(files) != 1 {
		t.Fatalf("dump files = %v (err %v)", files, err)
	}
	if !strings.Contains(files[0], "power-over-limit") {
		t.Errorf("dump file name %q lacks trigger reason", files[0])
	}
	d, err := flight.ReadDumpFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if d.Meta.Reason != "power-over-limit" || len(d.Events) == 0 {
		t.Errorf("dump: reason %q, %d events", d.Meta.Reason, len(d.Events))
	}
}

// TestIterationSLOTriggerHoldsOff checks the latency trigger fires on a
// breach and then holds off instead of dumping every iteration.
func TestIterationSLOTriggerHoldsOff(t *testing.T) {
	dir := t.TempDir()
	var fired int
	trig := FlightTriggers{
		Dir:          dir,
		IterationSLO: time.Nanosecond, // every iteration breaches
		OnDump: func(path, reason string, err error) {
			if err != nil {
				t.Errorf("dump failed: %v", err)
			}
			if reason != "iteration-slo" {
				t.Errorf("reason = %q", reason)
			}
			fired++
		},
	}
	_, dmn := flightRun(t, trig, 50, 30*time.Second)
	iters := dmn.Iterations()
	if iters >= SLOCooldownIters {
		t.Fatalf("test assumes < %d iterations, got %d", SLOCooldownIters, iters)
	}
	if fired != 1 {
		t.Errorf("SLO trigger fired %d times over %d breaching iterations, want 1 (holdoff)", fired, iters)
	}
}
