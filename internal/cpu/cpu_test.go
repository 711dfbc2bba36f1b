package cpu

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/units"
)

func testSpec() FreqSpec {
	return FreqSpec{
		Min:  800 * units.MHz,
		Nom:  2200 * units.MHz,
		Step: 100 * units.MHz,
		Turbo: []TurboBin{
			{MaxActive: 2, Normal: 3000 * units.MHz, AVX: 1900 * units.MHz},
			{MaxActive: 4, Normal: 2700 * units.MHz, AVX: 1800 * units.MHz},
			{MaxActive: 10, Normal: 2400 * units.MHz, AVX: 1700 * units.MHz},
		},
	}
}

func TestSpecValidate(t *testing.T) {
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*FreqSpec)
	}{
		{"min above nom", func(s *FreqSpec) { s.Min = 3 * units.GHz }},
		{"zero step", func(s *FreqSpec) { s.Step = 0 }},
		{"non-ascending bins", func(s *FreqSpec) { s.Turbo[1].MaxActive = 1 }},
		{"turbo below nom", func(s *FreqSpec) { s.Turbo[0].Normal = 1 * units.GHz }},
		{"avx above normal", func(s *FreqSpec) { s.Turbo[0].AVX = 4 * units.GHz }},
	}
	for _, c := range cases {
		s := testSpec()
		c.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestMaxAndCeiling(t *testing.T) {
	s := testSpec()
	if got := s.Max(); got != 3000*units.MHz {
		t.Errorf("Max = %v", got)
	}
	cases := []struct {
		active int
		avx    bool
		want   units.Hertz
	}{
		{1, false, 3000 * units.MHz},
		{2, false, 3000 * units.MHz},
		{3, false, 2700 * units.MHz},
		{10, false, 2400 * units.MHz},
		{99, false, 2400 * units.MHz}, // saturates at last bin
		{1, true, 1900 * units.MHz},
		{10, true, 1700 * units.MHz},
	}
	for _, c := range cases {
		if got := s.Ceiling(c.active, c.avx); got != c.want {
			t.Errorf("Ceiling(%d, %v) = %v, want %v", c.active, c.avx, got, c.want)
		}
	}
}

func TestCeilingNoTurbo(t *testing.T) {
	s := testSpec()
	s.Turbo = nil
	if got := s.Ceiling(1, false); got != s.Nom {
		t.Errorf("Ceiling without turbo = %v, want %v", got, s.Nom)
	}
	if got := s.Max(); got != s.Nom {
		t.Errorf("Max without turbo = %v, want %v", got, s.Nom)
	}
}

func TestQuantize(t *testing.T) {
	s := testSpec()
	if got := s.Quantize(2250 * units.MHz); got != 2200*units.MHz {
		t.Errorf("Quantize = %v", got)
	}
	if got := s.Quantize(100 * units.MHz); got != s.Min {
		t.Errorf("Quantize below min = %v", got)
	}
	if got := s.Quantize(9 * units.GHz); got != s.Max() {
		t.Errorf("Quantize above max = %v", got)
	}
}

func TestLevels(t *testing.T) {
	s := testSpec()
	lv := s.Levels()
	if lv[0] != s.Min || lv[len(lv)-1] != s.Max() {
		t.Errorf("Levels endpoints: %v .. %v", lv[0], lv[len(lv)-1])
	}
	want := int((s.Max()-s.Min)/s.Step) + 1
	if len(lv) != want {
		t.Errorf("len(Levels) = %d, want %d", len(lv), want)
	}
	for i := 1; i < len(lv); i++ {
		if lv[i]-lv[i-1] != s.Step {
			t.Fatalf("Levels not uniform at %d: %v -> %v", i, lv[i-1], lv[i])
		}
	}
}

// account charges c one step of dt the way the simulator does, with the
// tick multiplied out by the caller.
func account(c *Counters, eff, nom units.Hertz, dt time.Duration, instr float64, energy units.Joules) {
	c.Account(eff, nom.Cycles(dt), dt, dt.Seconds(), instr, energy)
}

func TestCoreAccounting(t *testing.T) {
	s := testSpec()
	c := &Counters{}
	eff := 2 * units.GHz
	account(c, eff, s.Nom, time.Second, 1.5e9, 4.2)
	cnt := *c
	if cnt.APERF != 2e9 {
		t.Errorf("APERF = %g", cnt.APERF)
	}
	if cnt.MPERF != 2.2e9 {
		t.Errorf("MPERF = %g", cnt.MPERF)
	}
	if cnt.Instr != 1.5e9 || cnt.Energy != 4.2 {
		t.Errorf("counters = %+v", cnt)
	}
}

// A parked core runs at no frequency.
func TestIdleCoreAccumulatesOnlyEnergy(t *testing.T) {
	c := &Counters{}
	account(c, 0, 2200*units.MHz, time.Second, 0, 0.05)
	cnt := *c
	if cnt.APERF != 0 || cnt.MPERF != 0 {
		t.Errorf("idle core accumulated C0 counters: %+v", cnt)
	}
	if cnt.Energy != 0.05 {
		t.Errorf("idle energy = %v", cnt.Energy)
	}
}

func TestAccountIgnoresNonPositiveDt(t *testing.T) {
	c := &Counters{}
	account(c, 2*units.GHz, 2200*units.MHz, 0, 1e9, 1)
	if cnt := *c; cnt.Instr != 0 || cnt.Energy != 0 {
		t.Errorf("zero-dt step charged: %+v", cnt)
	}
}

func TestActiveFreqDerivation(t *testing.T) {
	nom := 2200 * units.MHz
	c := &Counters{}
	prev := *c
	// Run 1s at 1.1 GHz: APERF/MPERF = 0.5 -> derived 1.1 GHz.
	account(c, 1100*units.MHz, nom, time.Second, 5e8, 2)
	cur := *c
	if got := activeFreq(prev, cur, nom); math.Abs(float64(got-1100*units.MHz)) > 1 {
		t.Errorf("ActiveFreq = %v, want 1.1 GHz", got)
	}
	if got := cur.Instr - prev.Instr; got != 5e8 {
		t.Errorf("instructions = %g", got)
	}
	if got := cur.Energy - prev.Energy; got != 2 {
		t.Errorf("energy = %v", got)
	}
}

// activeFreq derives the average C0 frequency between two snapshots the way
// turbostat does: nom * ΔAPERF/ΔMPERF.
func activeFreq(prev, cur Counters, nom units.Hertz) units.Hertz {
	return nom * units.Hertz((cur.APERF-prev.APERF)/(cur.MPERF-prev.MPERF))
}

// Property: APERF/MPERF recovers the true frequency when the interval runs at
// a single fixed frequency.
func TestActiveFreqRecoversFixed(t *testing.T) {
	nom := 2200 * units.MHz
	prop := func(fRaw uint8, msRaw uint16) bool {
		f := (800 + units.Hertz(fRaw%23)*100) * units.MHz
		dt := time.Duration(int(msRaw)%5000+1) * time.Millisecond
		c := &Counters{}
		prev := *c
		account(c, f, nom, dt, 0, 0)
		got := activeFreq(prev, *c, nom)
		return math.Abs(float64(got-f)) < 1e3
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
