package daemon

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/units"
)

// scriptPolicy returns a scripted action list per interval, so a test
// decides exactly what the daemon is asked to actuate.
type scriptPolicy struct {
	n       int
	initial []core.Action
	at      func(interval int) []core.Action
}

func (p *scriptPolicy) Name() string           { return "script" }
func (p *scriptPolicy) Initial() []core.Action { return p.initial }
func (p *scriptPolicy) Update(core.Snapshot) []core.Action {
	p.n++
	return p.at(p.n)
}

// recordingActuator logs every call that reaches the actuator as
// "<interval> c<core> <MHz|park|wake>" and fails SetFreq on the core and
// intervals it is told to.
type recordingActuator struct {
	inner    Actuator
	now      int // interval being run; 0 = Start, set by the test loop
	failCore int
	failAt   map[int]bool
	log      []string
	written  int // SetFreq calls that succeeded
}

func (a *recordingActuator) SetFreq(c int, f units.Hertz) error {
	a.log = append(a.log, fmt.Sprintf("%d c%d %d", a.now, c, int(f/units.MHz)))
	if c == a.failCore && a.failAt[a.now] {
		return fmt.Errorf("injected: write to core %d failed", c)
	}
	err := a.inner.SetFreq(c, f)
	if err == nil {
		a.written++
	}
	return err
}

func (a *recordingActuator) Park(c int, parked bool) error {
	op := "wake"
	if parked {
		op = "park"
	}
	a.log = append(a.log, fmt.Sprintf("%d c%d %s", a.now, c, op))
	return a.inner.Park(c, parked)
}

// TestElision drives the one rule in Daemon.apply — a SetFreq that would
// rewrite the request the daemon last programmed is skipped, and the
// memory is dropped whenever the daemon cannot vouch for the register —
// through a scripted policy and a recording actuator. Three gcc apps on
// Skylake cores 0-2 start at 3000 MHz; every script acts on core 1 only.
func TestElision(t *testing.T) {
	const (
		interval = 20 * time.Millisecond
		floorMHz = 800 // Skylake's SafeFloor
	)
	on1 := func(mhz ...int) func(int) []core.Action {
		// One action on core 1 per interval; 0 parks, the last repeats.
		return func(i int) []core.Action {
			if i > len(mhz) {
				i = len(mhz)
			}
			if mhz[i-1] == 0 {
				return []core.Action{{Core: 1, Park: true}}
			}
			return []core.Action{{Core: 1, Freq: units.Hertz(mhz[i-1]) * units.MHz}}
		}
	}
	start := []string{"0 c0 3000", "0 c1 3000", "0 c2 3000"}
	cases := []struct {
		name       string
		sched      string // fault schedule; "" = none
		at         func(int) []core.Action
		failAt     map[int]bool // intervals whose SetFreq on core 1 fails
		reconfigAt int          // swap in a fresh policy before this interval
		intervals  int
		want       []string // actuator calls after Start's three
		unchanged  float64  // powerd_actuations_total{kind="unchanged"}
		errors     float64  // powerd_actuation_errors_total
	}{
		{
			name: "equal twice is one write", at: on1(2000, 2000, 2000), intervals: 3,
			want: []string{"1 c1 2000"}, unchanged: 2,
		},
		{
			name: "changed frequency is written", at: on1(2000, 2000, 1500, 2000), intervals: 4,
			want: []string{"1 c1 2000", "3 c1 1500", "4 c1 2000"}, unchanged: 1,
		},
		{
			name: "park forgets", at: on1(2000, 0, 2000, 2000), intervals: 4,
			want: []string{"1 c1 2000", "2 c1 park", "3 c1 wake", "3 c1 2000"}, unchanged: 1,
		},
		{
			// The failed write leaves the register unknown: even the value
			// that was there before it (2000) has to be written again.
			name: "failed write is retried",
			at:   on1(2000, 1500, 1500, 2000, 2000), failAt: map[int]bool{2: true, 3: true}, intervals: 5,
			want:      []string{"1 c1 2000", "2 c1 1500", "3 c1 1500", "4 c1 2000"},
			unchanged: 1, errors: 2,
		},
		{
			// One of Start's three writes fails: a degraded start, not a
			// wrong device. The register is unknown, so 3000 is written.
			name: "failed initial write is retried, Start succeeds",
			at:   on1(3000, 3000), failAt: map[int]bool{0: true}, intervals: 2,
			want: []string{"1 c1 3000"}, unchanged: 1, errors: 1,
		},
		{
			// Core 1 is dark for intervals 4-6 (its actions are dropped) and
			// reads "recovering" at 7: the floor lands although 800 is what
			// the core held before the fault. 8 is the trustworthy wait, 9
			// the readmission, both equal to what was just written.
			name:  "offline core at the floor is rewritten once it is back",
			sched: "at 70ms for 60ms offline cpu=1", at: on1(floorMHz), intervals: 10,
			want: []string{"1 c1 800", "7 c1 800"}, unchanged: 5,
		},
		{
			name:  "first action after readmission is written",
			sched: "at 70ms for 60ms offline cpu=1", at: on1(2000), intervals: 10,
			want: []string{"1 c1 2000", "7 c1 800", "9 c1 2000"}, unchanged: 4,
		},
		{
			// MPERF frozen under a running APERF reads "stale" at intervals 5
			// and 6: the floor is re-asserted on each. 7 waits out
			// readmitAfter with trustworthy telemetry and the floor still
			// there; 8 hands the core back to the policy.
			name:  "safe floor re-asserted while untrustworthy only",
			sched: "at 70ms for 60ms stuck cpu=1 regs=MPERF", at: on1(2000), intervals: 10,
			want: []string{"1 c1 2000", "5 c1 800", "6 c1 800", "8 c1 2000"}, unchanged: 6,
		},
		{
			name: "reconfigure writes every core of the new initial", at: on1(3000), reconfigAt: 3, intervals: 3,
			want: []string{"3 c0 3000", "3 c1 3000", "3 c2 3000"}, unchanged: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			chip := platform.Skylake()
			names := []string{"gcc", "gcc", "gcc"}
			m := buildMachine(t, chip, names)
			dev := m.Device()
			if tc.sched != "" {
				sched, err := fault.ParseSchedule(tc.sched)
				if err != nil {
					t.Fatal(err)
				}
				inj := fault.New(sched, 1)
				inj.Drive(m)
				dev = inj.WrapDevice(dev)
			}
			specs := specsFor(names, []units.Shares{60, 30, 10}, nil)
			initial := make([]core.Action, len(specs))
			for i := range initial {
				initial[i] = core.Action{Core: i, Freq: 3000 * units.MHz}
			}
			act := &recordingActuator{inner: MachineActuator{M: m, Dev: dev}, failCore: 1, failAt: tc.failAt}
			reg := metrics.NewRegistry()
			cfg := Config{
				Chip: chip, Policy: &scriptPolicy{initial: initial, at: tc.at}, Apps: specs,
				Limit: 50, Interval: interval, Metrics: reg,
			}
			d, err := New(cfg, dev, act)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Start(); err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= tc.intervals; i++ {
				act.now = i
				if i == tc.reconfigAt {
					// The fresh script resumes at interval i of the same plan.
					pol := &scriptPolicy{n: i - 1, initial: initial, at: tc.at}
					if err := d.Reconfigure(Reconfig{Policy: pol}); err != nil {
						t.Fatal(err)
					}
				}
				m.Run(interval)
				if _, err := d.RunIteration(interval); err != nil {
					t.Fatalf("interval %d: %v", i, err)
				}
			}
			if got, want := act.log, append(start[:len(start):len(start)], tc.want...); !reflect.DeepEqual(got, want) {
				t.Errorf("actuator calls\n got %q\nwant %q", got, want)
			}
			acts := reg.CounterVec("powerd_actuations_total", "", "kind")
			if got := acts.With("unchanged").Value(); got != tc.unchanged {
				t.Errorf("unchanged = %v, want %v", got, tc.unchanged)
			}
			if got := acts.With("setfreq").Value(); got != float64(act.written) {
				t.Errorf("setfreq = %v, want the %d registers written", got, act.written)
			}
			if got := reg.Counter("powerd_actuation_errors_total", "").Value(); got != tc.errors {
				t.Errorf("actuation errors = %v, want %v", got, tc.errors)
			}
		})
	}
}
