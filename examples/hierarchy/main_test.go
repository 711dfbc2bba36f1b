package main

import (
	"regexp"
	"strings"
	"testing"
)

// roundTime is the one host-timed field of the report: a round's wall time.
var roundTime = regexp.MustCompile(`round +[0-9.]+ ms`)

// The tree runs on fixed demands with no lease lapsing, so every budget,
// cap and timeline count it prints is deterministic: the steady rounds
// split the building budget evenly, the skew rounds drain the cold rows
// into the hot one (960 W to 1920 W) while Σ leaf caps stays inside
// Σ row budgets, the cut reaches every row, and the merged timeline holds
// all seven rounds of the building and of each row.
func TestTreeReport(t *testing.T) {
	var b strings.Builder
	run(&b)
	got := roundTime.ReplaceAllString(b.String(), "round … ms")
	want := `tree: 1024 leaves / 32 rows / 1 building, budget 30720 W

steady round 1               round … ms   Σ row budgets  30720.0 W   Σ leaf caps  30720.0 W
steady round 2               round … ms   Σ row budgets  30720.0 W   Σ leaf caps  30720.0 W
steady round 3               round … ms   Σ row budgets  30720.0 W   Σ leaf caps  30720.0 W
skew round 1                 round … ms   Σ row budgets  30720.0 W   Σ leaf caps  30053.7 W
skew round 2                 round … ms   Σ row budgets  30720.0 W   Σ leaf caps  30504.6 W
skew round 3                 round … ms   Σ row budgets  30720.0 W   Σ leaf caps  30210.9 W

hot row budget: 960.0 W -> 1920.0 W (+100%)

after cut to 23040 W         round … ms   Σ row budgets  23040.0 W   Σ leaf caps  23023.3 W

merged timeline: root "building" coordinated 7 rounds over 32 children; 32 row sub-timelines
  tier "row0": 7 rounds over 32 leaves
`
	if got != want {
		t.Errorf("report, round times masked:\n%s\nwant:\n%s", got, want)
	}
}
