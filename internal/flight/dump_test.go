package flight

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func sampleDump() Dump {
	return Dump{
		Meta: Meta{
			Chip: "skylake", NumCores: 4, TickNS: 1e6, NomHz: 2.1e9, ESU: 14,
			Policy: "frequency-shares", LimitWatts: 50, IntervalNS: 1e9,
			Apps:   []MetaApp{{Name: "gcc", Core: 0, Shares: 90}, {Name: "cam4", Core: 1, Shares: 10}},
			Reason: "test",
		},
		Events: []Event{
			{Seq: 1, Time: 0, Wall: time.Microsecond, Kind: KindMSRWrite, Source: SourceMSR, Core: 0, Arg: 0x199, Value: 0x2A00},
			{Seq: 2, Time: time.Second, Wall: time.Millisecond, Kind: KindDecision, Source: SourceDaemon, Core: -1, Interval: 1, Arg: codeShareRebalance, Value: 48_000_000, Aux: 50_000_000},
			{Seq: 3, Time: time.Second, Wall: 2 * time.Millisecond, Kind: KindActuate, Source: SourceDaemon, Core: 3, Interval: 1, Arg: ActPark},
			{Seq: 4, Time: 2 * time.Second, Wall: 3 * time.Millisecond, Kind: KindRAPLThrottle, Source: SourceRAPL, Core: -1, Interval: 2, Value: 2_000_000_000, Aux: 55_000_000},
		},
	}
}

func TestDumpRoundTrip(t *testing.T) {
	d := sampleDump()
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.Version != FormatVersion {
		t.Errorf("version = %d", got.Meta.Version)
	}
	want := d.Meta
	want.Version = FormatVersion
	if got.Meta.Chip != want.Chip || got.Meta.Policy != want.Policy ||
		got.Meta.LimitWatts != want.LimitWatts || len(got.Meta.Apps) != 2 ||
		got.Meta.Apps[1].Name != "cam4" || got.Meta.Reason != "test" {
		t.Errorf("meta = %+v, want %+v", got.Meta, want)
	}
	if len(got.Events) != len(d.Events) {
		t.Fatalf("got %d events, want %d", len(got.Events), len(d.Events))
	}
	for i, e := range got.Events {
		if e != d.Events[i] {
			t.Errorf("event %d = %+v, want %+v", i, e, d.Events[i])
		}
	}
	// Core -1 must survive the unsigned on-disk representation.
	if got.Events[1].Core != -1 {
		t.Errorf("package-scope core = %d, want -1", got.Events[1].Core)
	}
}

func TestReadDumpRejectsBadMagicAndVersion(t *testing.T) {
	if _, err := ReadDump(bytes.NewReader([]byte("not a flight dump"))); err == nil {
		t.Error("bad magic accepted")
	}
	var buf bytes.Buffer
	if err := sampleDump().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[7] = '9' // corrupt the version digits in the magic
	if _, err := ReadDump(bytes.NewReader(b)); err == nil {
		t.Error("bad version accepted")
	}
	// Truncated record section.
	var buf2 bytes.Buffer
	if err := sampleDump().Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDump(bytes.NewReader(buf2.Bytes()[:buf2.Len()-10])); err == nil {
		t.Error("truncated dump accepted")
	}
}

func TestWriteDumpFile(t *testing.T) {
	dir := t.TempDir()
	d := sampleDump()
	path, err := WriteDumpFile(dir, d)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Base(path)
	if !strings.HasPrefix(base, "flight-") || !strings.HasSuffix(base, "-test.fr") {
		t.Errorf("dump filename = %q", base)
	}
	got, err := ReadDumpFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(d.Events) {
		t.Fatalf("got %d events", len(got.Events))
	}
	// A second dump with a later seq range gets a distinct name.
	d2 := d
	d2.Events = append([]Event(nil), d.Events...)
	for i := range d2.Events {
		d2.Events[i].Seq += 100
	}
	path2, err := WriteDumpFile(dir, d2)
	if err != nil {
		t.Fatal(err)
	}
	if path2 == path {
		t.Error("successive dumps collided")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("dump dir has %d files", len(entries))
	}
}

// BenchmarkDump snapshots a recorder of the default capacity with every
// ring full: an MSR ring of 128-cpu sweeps, the others of 133-event
// batches.
func BenchmarkDump(b *testing.B) {
	r := New(0)
	vals := make([]uint64, 128)
	evs := energyBatch(133, 1)
	for r.Len() < int(numSources)*DefaultCapacity {
		r.RecordMSRSweep(0xE8, vals, nil)
		for src := SourceDaemon; src < numSources; src++ {
			r.RecordBatch(src, evs)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		_ = r.Dump("bench")
	}
}
