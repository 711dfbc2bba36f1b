package fault

import (
	"strings"
	"testing"
	"time"

	"repro/internal/msr"
	"repro/internal/units"
)

func TestParseScheduleFull(t *testing.T) {
	text := `
# warm-up is clean
at 10s for 5s eio cpu=2 regs=APERF,MPERF prob=0.5
at 20s for 3s stuck cpu=* regs=PKG_ENERGY_STATUS
at 30s for 2s torn cpu=1
at 5s for 1s latency cpu=* delay=10ms
at 40s for 10s thermal cap=1200MHz
at 50s for 5s rapl limit=30W
at 60s for 10s offline cpu=3
`
	s, err := ParseSchedule(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 7 {
		t.Fatalf("got %d entries, want 7", len(s))
	}
	// Sorted by At: latency(5s) first.
	if s[0].Class != ClassLatency || s[0].Delay != 10*time.Millisecond {
		t.Fatalf("first entry = %+v", s[0])
	}
	eio := s[1]
	if eio.Class != ClassEIO || eio.CPU != 2 || eio.Prob != 0.5 {
		t.Fatalf("eio entry = %+v", eio)
	}
	if len(eio.Regs) != 2 || eio.Regs[0] != msr.IA32Aperf || eio.Regs[1] != msr.IA32Mperf {
		t.Fatalf("eio regs = %#v", eio.Regs)
	}
	stuck := s[2]
	if stuck.CPU != -1 || len(stuck.Regs) != 1 || stuck.Regs[0] != msr.PkgEnergyStatus {
		t.Fatalf("stuck entry = %+v", stuck)
	}
	th := s[4]
	if th.Class != ClassThermal || th.Cap != 1200*units.MHz {
		t.Fatalf("thermal entry = %+v", th)
	}
	ra := s[5]
	if ra.Class != ClassRAPL || ra.Limit != 30 {
		t.Fatalf("rapl entry = %+v", ra)
	}
	if got := s.End(); got != 70*time.Second {
		t.Fatalf("End = %v, want 70s", got)
	}
}

func TestParseScheduleSemicolons(t *testing.T) {
	s, err := ParseSchedule("at 1s for 1s thermal cap=1GHz; at 2s for 1s rapl limit=25")
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 2 || s[0].Cap != units.GHz || s[1].Limit != 25 {
		t.Fatalf("parsed %+v", s)
	}
}

func TestParseScheduleRejects(t *testing.T) {
	bad := []string{
		"at 1s for 1s nonsense",
		"whenever eio",
		"at 1s for 0s eio",
		"at -1s for 1s eio",
		"at 1s for 1s eio prob=2",
		"at 1s for 1s eio regs=BOGUS",
		"at 1s for 1s eio cpu=-2",
		"at 1s for 1s latency",
		"at 1s for 1s thermal",
		"at 1s for 1s thermal cap=0",
		"at 1s for 1s rapl",
		"at 1s for 1s offline",
		"at 1s for 1s offline cpu=*",
		"at 1s for 1s eio frobnicate=1",
		"at 1s for 1s eio prob",
		"at 2000000h for 2000000h rapl limit=30W", // closes past the largest time.Duration
	}
	for _, text := range bad {
		if _, err := ParseSchedule(text); err == nil {
			t.Errorf("ParseSchedule(%q) accepted", text)
		}
	}
}

func TestScheduleStringRoundTrip(t *testing.T) {
	text := `at 5s for 1s latency cpu=* delay=10ms
at 10s for 5s eio cpu=2 regs=APERF,MPERF prob=0.5
at 20s for 3s stuck cpu=* regs=PKG_ENERGY_STATUS
at 30s for 2s torn cpu=1
at 40s for 10s thermal cap=1200MHz
at 50s for 5s rapl limit=30W
at 60s for 10s offline cpu=3`
	s1, err := ParseSchedule(text)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ParseSchedule(s1.String())
	if err != nil {
		t.Fatalf("reparsing %q: %v", s1.String(), err)
	}
	if s1.String() != s2.String() {
		t.Fatalf("round trip diverged:\n%s\n--\n%s", s1.String(), s2.String())
	}
}

func TestEntryMatches(t *testing.T) {
	e := Entry{CPU: -1, Regs: []uint32{msr.IA32Aperf}}
	if !e.Matches(7, msr.IA32Aperf) || e.Matches(7, msr.IA32Mperf) {
		t.Fatal("register matching broken")
	}
	e = Entry{CPU: 3}
	if !e.Matches(3, msr.IA32Mperf) || e.Matches(2, msr.IA32Mperf) {
		t.Fatal("cpu matching broken")
	}
}

func TestClassNamesRoundTrip(t *testing.T) {
	for c := Class(0); c < numClasses; c++ {
		got, err := ClassByName(c.String())
		if err != nil || got != c {
			t.Errorf("class %d round-trips as %d (%v)", c, got, err)
		}
		if strings.Contains(c.String(), " ") {
			t.Errorf("class name %q has spaces", c.String())
		}
	}
}
