package padpd

import (
	"testing"
	"time"
)

// The facade must be sufficient to express the paper's headline scenario
// end to end without touching internal packages (the examples rely on
// this).
func TestFacadeEndToEnd(t *testing.T) {
	chip := Skylake()
	m, err := NewMachine(chip)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Pin(NewInstance(MustProfile("gcc")), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Pin(NewInstance(MustProfile("cam4")), 1); err != nil {
		t.Fatal(err)
	}
	specs := []AppSpec{
		{Name: "gcc", Core: 0, Shares: 90},
		{Name: "cam4", Core: 1, Shares: 10, AVX: true},
	}
	pol, err := NewFrequencyShares(chip, specs, ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(DaemonConfig{Chip: chip, Policy: pol, Apps: specs, Limit: 30},
		m.Device(), MachineActuator{M: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AttachVirtual(m); err != nil {
		t.Fatal(err)
	}
	m.Run(30 * time.Second)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	snap := d.LastSnapshot()
	if snap.PackagePower > 30*1.05 {
		t.Errorf("package power %v over the 30 W limit", snap.PackagePower)
	}
	if snap.Apps[0].Freq <= snap.Apps[1].Freq {
		t.Errorf("share ordering violated: %v vs %v", snap.Apps[0].Freq, snap.Apps[1].Freq)
	}
}

func TestFacadeWorkloadsAndPlatforms(t *testing.T) {
	if CPUBurn.Activity <= 1 {
		t.Error("cpuburn should be a power virus")
	}
	if (2000 * MHz).GHzF() != 2 {
		t.Error("unit aliases broken")
	}
}

func TestFacadeTimeSharedCore(t *testing.T) {
	c, err := NewTimeSharedCore(Ryzen(), 3400*MHz)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(NewInstance(MustProfile("gcc")), 0.5); err != nil {
		t.Fatal(err)
	}
	c.Run(time.Second)
	if c.AveragePower() <= 0 {
		t.Error("no power measured")
	}
}

func TestFacadeWebsearch(t *testing.T) {
	m, err := NewMachine(Skylake())
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewWebsearch(WebsearchConfig(20, []int{0, 1}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Attach(m); err != nil {
		t.Fatal(err)
	}
	m.Run(5 * time.Second)
	if model.Service("websearch").Completed() == 0 {
		t.Error("websearch served nothing")
	}
}

func TestFacadeMSRAndSampler(t *testing.T) {
	dev, err := NewFileMSRDevice(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(dev, 2, 2200*MHz, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Prime(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sample(time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeClusterPStates(t *testing.T) {
	chip := Ryzen()
	out := ClusterPStates([]Hertz{3000 * MHz, 1000 * MHz, 2000 * MHz, 2900 * MHz}, 3, chip.Freq)
	if len(out) != 4 {
		t.Fatalf("len = %d", len(out))
	}
}
