package fault

import (
	"strings"
	"testing"
)

// FuzzParseSchedule throws arbitrary text at the schedule parser. The parser
// must never panic, and any schedule it accepts must round-trip: the
// canonical String() form reparses to the same canonical form, so saved
// schedules (e.g. in experiment configs) are stable.
func FuzzParseSchedule(f *testing.F) {
	f.Add("at 100ms for 100ms eio cpu=0 prob=0.6")
	f.Add("at 250ms for 100ms stuck cpu=* regs=MPERF,PKG_ENERGY_STATUS")
	f.Add("at 400ms for 100ms torn cpu=*")
	f.Add("at 550ms for 100ms latency cpu=* delay=1ms")
	f.Add("at 700ms for 100ms thermal cap=1200MHz")
	f.Add("at 850ms for 100ms rapl limit=25W")
	f.Add("at 1s for 100ms offline cpu=1")
	f.Add("at 0s for 1s eio regs=0x611 prob=1; at 2s for 1s eio prob=0\n# comment\n")
	f.Add("at 1ms for 1ms thermal cap=3Hz")
	f.Add("at 1ms for 1ms rapl limit=0.001W")
	f.Add("at 2000000h for 2000000h rapl limit=30W")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSchedule(text)
		if err != nil {
			return // rejection is fine; panicking is not
		}
		canon := s.String()
		s2, err := ParseSchedule(canon)
		if err != nil {
			t.Fatalf("canonical form rejected: %q: %v", canon, err)
		}
		if canon2 := s2.String(); canon != canon2 {
			t.Fatalf("round trip diverged:\n  once:  %q\n  twice: %q", canon, canon2)
		}
		if len(s2) != len(s) {
			t.Fatalf("round trip changed entry count: %d -> %d", len(s), len(s2))
		}
		// Accepted schedules must also re-validate entry by entry.
		for i := range s {
			if err := s[i].Validate(); err != nil {
				t.Fatalf("accepted entry %d fails Validate: %v", i, err)
			}
		}
		// The canonical form must be newline-free per entry and stable
		// under whitespace normalisation the parser itself applies.
		if strings.Contains(canon, ";") {
			t.Fatalf("canonical form uses inline separators: %q", canon)
		}
	})
}
