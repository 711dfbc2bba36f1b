package flight

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	r.Record(Event{Kind: KindMSRRead, Source: SourceMSR})
	r.RecordMSR(true, 0, 0x199, 42)
	r.BeginInterval(7)
	r.SetClock(func() time.Duration { return 0 })
	r.MergeMeta(Meta{Chip: "x"})
	if r.Total() != 0 || r.Len() != 0 || r.Snapshot() != nil {
		t.Fatal("nil recorder should observe nothing")
	}
	d := r.Dump("test")
	if d.Meta.Version != FormatVersion || len(d.Events) != 0 {
		t.Fatalf("nil recorder dump = %+v", d)
	}
}

func TestRecordStampsSeqTimeInterval(t *testing.T) {
	r := New(8)
	var clock time.Duration
	r.SetClock(func() time.Duration { return clock })

	clock = 5 * time.Millisecond
	r.BeginInterval(3)
	r.Record(Event{Kind: KindDecision, Source: SourceDaemon, Core: -1, Arg: ReasonCode(core.ReasonShareRebalance)})
	clock = 6 * time.Millisecond
	r.RecordMSR(false, 2, 0xE8, 12345)

	evs := r.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Errorf("seqs = %d,%d", evs[0].Seq, evs[1].Seq)
	}
	if evs[0].Time != 5*time.Millisecond || evs[1].Time != 6*time.Millisecond {
		t.Errorf("times = %v,%v", evs[0].Time, evs[1].Time)
	}
	if evs[0].Interval != 3 || evs[1].Interval != 3 {
		t.Errorf("intervals = %d,%d", evs[0].Interval, evs[1].Interval)
	}
	if evs[1].Kind != KindMSRRead || evs[1].Core != 2 || evs[1].Arg != 0xE8 || evs[1].Value != 12345 {
		t.Errorf("msr event = %+v", evs[1])
	}
}

func TestRingOverwritesOldestConstantMemory(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Record(Event{Kind: KindMSRWrite, Source: SourceMSR, Value: uint64(i)})
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d", r.Total())
	}
	evs := r.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	for i, e := range evs {
		if want := uint64(7 + i); e.Seq != want {
			t.Errorf("event %d seq = %d, want %d", i, e.Seq, want)
		}
	}
}

func TestSnapshotMergesSourcesBySeq(t *testing.T) {
	r := New(8)
	r.Record(Event{Kind: KindMSRRead, Source: SourceMSR})
	r.Record(Event{Kind: KindDecision, Source: SourceDaemon, Core: -1})
	r.Record(Event{Kind: KindRAPLThrottle, Source: SourceRAPL, Core: -1})
	r.Record(Event{Kind: KindMSRWrite, Source: SourceMSR})
	evs := r.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("got %d events", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("snapshot not seq-sorted: %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
}

func TestConcurrentRecordAndSnapshot(t *testing.T) {
	r := New(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// One writer per source, as the design prescribes.
	for s := Source(0); s < numSources; s++ {
		wg.Add(1)
		go func(s Source) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				r.Record(Event{Kind: KindMSRRead, Source: s, Value: uint64(i)})
			}
		}(s)
	}
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot()
				_ = r.Len()
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-snapDone
	if want := uint64(numSources) * 2000; r.Total() != want {
		t.Fatalf("total = %d, want %d", r.Total(), want)
	}
}

func TestReasonCodesRoundTrip(t *testing.T) {
	reasons := []core.Reason{
		core.ReasonInitial, core.ReasonWithinDeadband, core.ReasonPowerOverLimit,
		core.ReasonPowerUnderLimit, core.ReasonShareRebalance, core.ReasonTranslateOnly,
		core.ReasonLimitChange, core.ReasonThrottleLP, core.ReasonParkStarvedLP,
		core.ReasonThrottleHP, core.ReasonRestoreHP, core.ReasonWakeLP,
		core.ReasonRaiseLP, core.ReasonSaturated, core.ReasonReconfigure,
		core.ReasonSLOFallback, core.ReasonSLOBoost, core.ReasonSLORelax,
		core.ReasonSLOMet, core.ReasonSLOSaturated,
	}
	seen := make(map[uint32]bool)
	for _, r := range reasons {
		c := ReasonCode(r)
		if c == codeUnknown {
			t.Errorf("reason %q has no code", r)
		}
		if seen[c] {
			t.Errorf("reason %q shares code %d", r, c)
		}
		seen[c] = true
		if back := ReasonFromCode(c); back != r {
			t.Errorf("code %d decodes to %q, want %q", c, back, r)
		}
	}
	if ReasonFromCode(9999) != core.Reason("unknown") {
		t.Error("unknown code should decode to unknown")
	}
}

func TestConstraintCodesRoundTrip(t *testing.T) {
	for code, name := range map[uint32]string{
		ConstraintIdle: "idle", ConstraintRequest: "request", ConstraintRAPLCap: "rapl-cap",
		ConstraintAVXLicence: "avx-licence", ConstraintTurbo: "turbo", ConstraintThermal: "thermal",
	} {
		if got := ConstraintFromCode(code); got != name {
			t.Errorf("constraint code %d decodes to %q, want %q", code, got, name)
		}
	}
	if got := ConstraintFromCode(ConstraintThermal + 1); got != "unknown" {
		t.Errorf("an unassigned code decodes to %q, want unknown", got)
	}
}

func TestMergeMeta(t *testing.T) {
	r := New(4)
	r.MergeMeta(Meta{Chip: "skylake", TickNS: 1e6, ESU: 14, NumCores: 4})
	r.MergeMeta(Meta{Policy: "frequency-shares", LimitWatts: 50, IntervalNS: 1e9,
		Apps: []MetaApp{{Name: "gcc", Core: 0, Shares: 90}}})
	d := r.Dump("sigquit")
	m := d.Meta
	if m.Chip != "skylake" || m.TickNS != 1e6 || m.ESU != 14 || m.NumCores != 4 {
		t.Errorf("machine meta lost: %+v", m)
	}
	if m.Policy != "frequency-shares" || m.LimitWatts != 50 || len(m.Apps) != 1 {
		t.Errorf("control meta lost: %+v", m)
	}
	if m.Reason != "sigquit" || m.Version != FormatVersion {
		t.Errorf("dump meta = %+v", m)
	}
}
