package flight_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/ledger"
	"repro/internal/platform"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// A commit stores its stamp once and then only what differs per event: a
// sweep one word a read, the ledger's batch three words an account, a
// single event two. Every ring's arena is at most the bytes of as many
// Events as it retains, plus 64.
func TestCommitWords(t *testing.T) {
	rec := flight.New(0)
	grew := func(src flight.Source, commit func()) int {
		t.Helper()
		before, _ := rec.ArenaWords(src)
		commit()
		after, _ := rec.ArenaWords(src)
		return after - before
	}

	vals := make([]uint64, 128)
	for i := range vals {
		vals[i] = uint64(i) << 40
	}
	if got, want := grew(flight.SourceMSR, func() { rec.RecordMSRSweep(0xE8, vals, nil) }), flight.HeaderWords+128; got != want {
		t.Errorf("a 128-cpu sweep takes %d words, want %d", got, want)
	}

	chip := platform.MultiSocket(platform.ScaleSocket(platform.Skylake(), 64), 2)
	apps := make([]core.AppSpec, chip.NumCores)
	in := ledger.Input{
		At: time.Millisecond, Dt: time.Millisecond, Limit: 200, PackagePower: 120,
		PkgStatus:    telemetry.StatusOK,
		SocketPower:  []units.Watts{60, 60},
		SocketStatus: []telemetry.CoreStatus{telemetry.StatusOK, telemetry.StatusOK},
		Cores:        make([]telemetry.CoreSample, chip.NumCores),
	}
	for i := range apps {
		apps[i] = core.AppSpec{Name: "app", Core: i, Shares: units.Shares(10 + i%7)}
		in.Cores[i] = telemetry.CoreSample{CPU: i, ActiveFreq: 2e9, Status: telemetry.StatusOK}
	}
	led, err := ledger.New(ledger.Config{Chip: chip, Apps: apps, Flight: rec})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := grew(flight.SourceLedger, func() { led.Append(in) }), flight.HeaderWords+3*(128+5); got != want {
		t.Errorf("a 128-app ledger interval takes %d words, want %d", got, want)
	}

	ev := flight.Event{Kind: flight.KindActuate, Source: flight.SourceDaemon, Core: 3, Arg: flight.ActSetFreq, Value: 2e9}
	if got, want := grew(flight.SourceDaemon, func() { rec.Record(ev) }), flight.HeaderWords+2; got != want {
		t.Errorf("a single event takes %d words, want %d", got, want)
	}

	for _, capacity := range []int{1, 2, 7, 64, flight.DefaultCapacity} {
		r := flight.New(capacity)
		for src := flight.SourceMSR; src <= flight.SourceLedger; src++ {
			if _, words := r.ArenaWords(src); words*8 > capacity*56+64 {
				t.Errorf("capacity %d: %s arena is %d B, over %d", capacity, src, words*8, capacity*56+64)
			}
		}
	}
}
