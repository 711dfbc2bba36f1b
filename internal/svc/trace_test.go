package svc

import (
	"strings"
	"testing"
	"time"
)

func TestParseTrace(t *testing.T) {
	in := `padtrace/1
# a comment

150ms
0.2
2.5s x3
2.5s
`
	got, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{
		150 * time.Millisecond,
		200 * time.Millisecond,
		2500 * time.Millisecond, 2500 * time.Millisecond, 2500 * time.Millisecond,
		2500 * time.Millisecond,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d arrivals, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("arrival %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := map[string]string{
		"garbage offset":   "banana\n",
		"negative seconds": "-1.5\n",
		"negative dur":     "-10ms\n",
		"decreasing":       "1s\n0.5s\n",
		"bad repeat":       "1s y3\n",
		"zero repeat":      "1s x0\n",
		"extra fields":     "1s x3 x4\n",
		"huge repeat":      "1s x99999999\n",
	}
	for name, in := range cases {
		if _, err := ParseTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestPoissonTrace(t *testing.T) {
	sched := Diurnal(500, 4*time.Second)
	tr, err := PoissonTrace(sched, 8*time.Second, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) == 0 {
		t.Fatal("empty trace")
	}
	for i := 1; i < len(tr); i++ {
		if tr[i] < tr[i-1] {
			t.Fatalf("trace not sorted at %d", i)
		}
	}
	// Mean multiplier of the diurnal curve is well under 1; expect
	// meaningfully fewer than base*span arrivals but not absurdly few.
	if n := len(tr); n < 1000 || n > 4000 {
		t.Errorf("trace holds %d arrivals over 8s at base 500/s diurnal, want ~2800", n)
	}
	tr2, err := PoissonTrace(sched, 8*time.Second, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != len(tr2) || tr[len(tr)-1] != tr2[len(tr2)-1] {
		t.Error("PoissonTrace not deterministic for a fixed seed")
	}
	if _, err := PoissonTrace(RateSchedule{Base: -1}, time.Second, 1); err == nil {
		t.Error("invalid schedule accepted")
	}
}

func TestRateScheduleAt(t *testing.T) {
	flat := ConstantRate(42)
	if r := flat.At(17 * time.Hour); r != 42 {
		t.Errorf("flat schedule at 17h = %g", r)
	}
	s := RateSchedule{
		Base:   100,
		Period: 10 * time.Second,
		Points: []RatePoint{{At: 0, Mul: 1}, {At: 5 * time.Second, Mul: 3}},
	}
	if r := s.At(0); r != 100 {
		t.Errorf("At(0) = %g, want 100", r)
	}
	if r := s.At(2500 * time.Millisecond); r != 200 {
		t.Errorf("At(2.5s) = %g, want 200 (midpoint of 1→3)", r)
	}
	if r := s.At(5 * time.Second); r != 300 {
		t.Errorf("At(5s) = %g, want 300", r)
	}
	// Wrap segment: 5s..10s interpolates 3 → 1 (the first point a
	// period later); 7.5s is the midpoint, and 12.5s wraps to 2.5s.
	if r := s.At(7500 * time.Millisecond); r != 200 {
		t.Errorf("At(7.5s) = %g, want 200", r)
	}
	if r := s.At(12500 * time.Millisecond); r != 200 {
		t.Errorf("At(12.5s) = %g, want 200 (wrap)", r)
	}
}

func TestRateScheduleValidate(t *testing.T) {
	bad := []RateSchedule{
		{Base: -5},
		{Base: 10, Points: []RatePoint{{At: 0, Mul: 1}}},                                        // no period
		{Base: 10, Period: time.Second, Points: []RatePoint{{At: 2 * time.Second, Mul: 1}}},     // offset past period
		{Base: 10, Period: time.Second, Points: []RatePoint{{At: 0, Mul: 1}, {At: 0, Mul: 2}}},  // not ascending
		{Base: 10, Period: time.Second, Points: []RatePoint{{At: 0, Mul: 1}, {At: 1, Mul: -2}}}, // negative mul
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid schedule accepted", i)
		}
	}
	if err := Diurnal(100, time.Minute).Validate(); err != nil {
		t.Errorf("diurnal schedule rejected: %v", err)
	}
}
