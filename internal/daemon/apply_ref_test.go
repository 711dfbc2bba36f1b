package daemon

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// applyRef is Daemon.apply as it was before actuation was batched, kept as
// the reference the batched apply is held to: one SetFreq per write, and
// every actuation event committed on its own, interleaved with the device's
// commit of each write.
func applyRef(d *Daemon, actions []core.Action) (failed int, first error) {
	unchanged := 0
	fail := func(err error) {
		d.m.actuationErrors.Inc()
		if failed++; first == nil {
			first = err
		}
	}
	for _, a := range actions {
		if a.Park {
			d.written[a.Core] = 0
			if err := d.act.Park(a.Core, true); err != nil {
				fail(err)
				continue
			}
			d.parked[a.Core] = true
			d.m.actPark.Inc()
			d.cfg.Flight.Record(flight.Event{
				Kind: flight.KindActuate, Source: flight.SourceDaemon,
				Core: int16(a.Core), Arg: flight.ActPark,
			})
			continue
		}
		if d.parked[a.Core] {
			d.written[a.Core] = 0
			if err := d.act.Park(a.Core, false); err != nil {
				fail(err)
				continue
			}
			d.parked[a.Core] = false
			d.m.actWake.Inc()
			d.cfg.Flight.Record(flight.Event{
				Kind: flight.KindActuate, Source: flight.SourceDaemon,
				Core: int16(a.Core), Arg: flight.ActWake,
			})
		}
		if d.written[a.Core] == a.Freq {
			unchanged++
			continue
		}
		d.written[a.Core] = 0 // a failed write leaves the register unknown
		if err := d.act.SetFreq(a.Core, a.Freq); err != nil {
			fail(err)
			continue
		}
		d.written[a.Core] = a.Freq
		d.m.actSetFreq.Inc()
		d.cfg.Flight.Record(flight.Event{
			Kind: flight.KindActuate, Source: flight.SourceDaemon,
			Core: int16(a.Core), Arg: flight.ActSetFreq, Value: uint64(a.Freq),
		})
	}
	d.m.actUnchanged.Add(float64(unchanged))
	return failed, first
}

// refCores is the reference rigs' core count; the last two cores host no
// app, so waking them is a no-op.
const refCores = 12

// applyRig is one daemon over its own machine, fault injector and flight
// recorder, driven by apply or by applyRef.
type applyRig struct {
	m   *sim.Machine
	d   *Daemon
	rec *flight.Recorder
	reg *metrics.Registry
}

// newApplyRig builds a rig whose cores in offline are dark for the whole
// run: their writes and wakes fail.
func newApplyRig(t testing.TB, offline []int) *applyRig {
	t.Helper()
	chip := platform.ScaleSocket(platform.Skylake(), refCores)
	names := make([]string, refCores-2)
	for i := range names {
		names[i] = []string{"gcc", "cam4", "leela"}[i%3]
	}
	r := &applyRig{rec: flight.New(1 << 12), reg: metrics.NewRegistry()}
	m, err := sim.New(chip, sim.WithFlightRecorder(r.rec))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		if err := m.Pin(workload.NewInstance(workload.MustByName(n)), i); err != nil {
			t.Fatal(err)
		}
	}
	var sched fault.Schedule
	for _, c := range offline {
		sched = append(sched, fault.Entry{For: 1 << 40, Class: fault.ClassOffline, CPU: c, Prob: 1})
	}
	inj := fault.New(sched, 1)
	inj.Flight(r.rec)
	inj.Drive(m)
	dev := inj.WrapDevice(m.Device())
	m.Step() // opens the windows
	specs := specsFor(names, nil, nil)
	for i := range specs {
		specs[i].Shares = 10
	}
	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r.d, err = New(Config{
		Chip: chip, Policy: pol, Apps: specs, Limit: 50, Metrics: r.reg, Flight: r.rec,
	}, m.Device(), MachineActuator{M: m, Dev: dev}) // the sampler reads past the faults
	if err != nil {
		t.Fatal(err)
	}
	r.m = m
	return r
}

// applyState is everything one call of apply leaves behind that the
// reference must leave too.
type applyState struct {
	Requests, Written []units.Hertz
	Idle, Parked      []bool
	Failed            int
	First             string
	Counts            map[string]float64
	Events            map[string][]flight.Event // per source, Seq and Wall zeroed
}

func (r *applyRig) state(failed int, first error) applyState {
	s := applyState{
		Written: append([]units.Hertz(nil), r.d.written...),
		Parked:  append([]bool(nil), r.d.parked...),
		Failed:  failed, First: fmt.Sprint(first),
		Counts: map[string]float64{}, Events: map[string][]flight.Event{},
	}
	for c := range refCores {
		s.Requests = append(s.Requests, r.m.Request(c))
		s.Idle = append(s.Idle, r.m.Idle(c))
	}
	acts := r.reg.CounterVec("powerd_actuations_total", "", "kind")
	for _, k := range []string{"park", "wake", "setfreq", "unchanged"} {
		s.Counts[k] = acts.With(k).Value()
	}
	s.Counts["errors"] = r.reg.Counter("powerd_actuation_errors_total", "").Value()
	for _, e := range r.rec.Snapshot() {
		e.Seq, e.Wall = 0, 0
		s.Events[e.Source.String()] = append(s.Events[e.Source.String()], e)
	}
	return s
}

// refFreqs are the requests the generated actions draw from: few, so
// rewrites of the value already written (elided) come often.
var refFreqs = []units.Hertz{800 * units.MHz, 1500 * units.MHz, 2200 * units.MHz, 3000 * units.MHz}

// genActions builds one action list: per core nothing, a write, a park or
// a rewrite of the request last asked for, in shuffled order, now and then a
// second action on a core already acted on.
func genActions(intn func(int) int, written []units.Hertz) []core.Action {
	var acts []core.Action
	for c := range refCores {
		switch intn(5) {
		case 1, 2:
			acts = append(acts, core.Action{Core: c, Freq: refFreqs[intn(len(refFreqs))]})
		case 3:
			acts = append(acts, core.Action{Core: c, Park: true})
		case 4:
			if written[c] != 0 {
				acts = append(acts, core.Action{Core: c, Freq: written[c]})
			}
		}
	}
	for i := len(acts) - 1; i > 0; i-- {
		j := intn(i + 1)
		acts[i], acts[j] = acts[j], acts[i]
	}
	if len(acts) > 0 && intn(3) == 0 {
		a := acts[intn(len(acts))]
		a.Park, a.Freq = intn(2) == 0, refFreqs[intn(len(refFreqs))]
		acts = append(acts, a)
	}
	return acts
}

// checkApplyMatchesReference applies each action list to a rig driven by
// apply and to one driven by applyRef, both with the cores in offline dark,
// and fails at the first list after which the two differ. It returns what
// the last list left.
func checkApplyMatchesReference(t *testing.T, offline []int, rounds [][]core.Action) applyState {
	t.Helper()
	got, want := newApplyRig(t, offline), newApplyRig(t, offline)
	var gs applyState
	for i, acts := range rounds {
		gs = got.state(got.d.apply(acts))
		ws := want.state(applyRef(want.d, acts))
		if !reflect.DeepEqual(gs, ws) {
			t.Fatalf("after list %d %v (offline %v):\n batched   %+v\n reference %+v", i, acts, offline, gs, ws)
		}
	}
	return gs
}

func TestApplyMatchesReference(t *testing.T) {
	f := func(mhz int) units.Hertz { return units.Hertz(mhz) * units.MHz }
	set := func(c, mhz int) core.Action { return core.Action{Core: c, Freq: f(mhz)} }
	park := func(c int) core.Action { return core.Action{Core: c, Park: true} }
	cases := []struct {
		name    string
		offline []int
		rounds  [][]core.Action
	}{
		{"writes then nothing to rewrite", nil, [][]core.Action{
			{set(0, 2000), set(5, 1500), set(3, 3000)},
			{set(0, 2000), set(5, 1500), set(3, 3000)},
		}},
		{"park, wake and write", nil, [][]core.Action{
			{set(1, 2000), park(2), set(4, 800)},
			{set(2, 1500), park(1), set(4, 800)},
		}},
		{"offline cores fail alone, the first failure in action order", []int{3, 6}, [][]core.Action{
			{set(6, 2000), set(0, 2000), park(3), set(3, 1500)},
			{park(0), set(6, 2000), set(0, 3000)},
			{set(0, 3000), set(3, 800), set(6, 800)},
		}},
		{"a core acted on twice in one list", []int{2}, [][]core.Action{
			{set(1, 2000), set(4, 1500), set(1, 1500), park(4), set(2, 800), set(2, 3000)},
			{park(1), set(1, 2000), set(4, 2200), set(4, 2200)},
		}},
		{"a core without an app", nil, [][]core.Action{
			{park(10), set(10, 2000)},
			{set(10, 2000), park(11), set(11, 800)},
		}},
		{"empty lists", []int{0}, [][]core.Action{nil, {}, {set(0, 800)}, nil}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := checkApplyMatchesReference(t, tc.offline, tc.rounds)
			if len(tc.offline) > 0 && s.Counts["errors"] == 0 {
				t.Fatal("no write to a dark core failed: the case tests nothing it claims")
			}
		})
	}
	seeds := 60
	if testing.Short() || raceEnabled {
		seeds = 10
	}
	for seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			offline, rounds := genRounds(rng.Intn)
			checkApplyMatchesReference(t, offline, rounds)
		})
	}
}

// genRounds draws a set of dark cores and up to eight action lists. A
// rewrite repeats the last frequency the lists asked of its core, which the
// daemon elides unless the write failed or a park came between.
func genRounds(intn func(int) int) (offline []int, rounds [][]core.Action) {
	for c := range refCores {
		if intn(5) == 0 {
			offline = append(offline, c)
		}
	}
	written := make([]units.Hertz, refCores)
	for range 1 + intn(8) {
		acts := genActions(intn, written)
		for _, a := range acts {
			if !a.Park {
				written[a.Core] = a.Freq
			}
		}
		rounds = append(rounds, acts)
	}
	return offline, rounds
}

// FuzzApplyMatchesReference decodes bytes into dark cores and action lists
// and holds the batched apply to the reference over them.
func FuzzApplyMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte(strings.Repeat("\x03\x01\x04\x01\x05\x09\x02\x06", 16)))
	f.Add([]byte{4, 4, 4, 4, 0, 0, 0, 0, 1, 2, 3, 4, 3, 2, 1, 0, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		intn := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v % n
		}
		offline, rounds := genRounds(intn)
		checkApplyMatchesReference(t, offline, rounds)
	})
}
