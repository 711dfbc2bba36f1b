package padpd_test

import (
	"fmt"
	"log"
	"time"

	padpd "repro"
)

// Example_quickstart is the paper's motivating scenario: five copies of a
// low-demand application (gcc) share a Skylake socket with five copies of a
// high-demand AVX application (cam4) under a 40 W package limit. The
// hardware baseline (RAPL) throttles the faster gcc; the frequency-share
// policy, 90/10 in gcc's favour, flips the differentiation.
func Example_quickstart() {
	fmt.Println("== RAPL baseline (no policy) ==")
	quickstart(false)
	fmt.Println("\n== frequency shares, gcc:cam4 = 90:10 ==")
	quickstart(true)
	// Output:
	// == RAPL baseline (no policy) ==
	// package power: 36.52 W (limit 40 W)
	// gcc  runs at 1.30 GHz  <- RAPL throttled the low-demand app
	// cam4 runs at 1.30 GHz  <- the AVX power hog barely moved
	//
	// == frequency shares, gcc:cam4 = 90:10 ==
	// package power: 39.80 W (limit 40 W)
	// gcc  runs at 2.00 GHz  <- 90 shares keep the priority app fast
	// cam4 runs at 800 MHz  <- 10 shares push the hog to the floor
}

// quickstart pins the mix, then lets the hardware limiter arbitrate for
// 20 s, or the frequency-share daemon for 60 s.
func quickstart(policy bool) {
	chip := padpd.Skylake()
	m, err := padpd.NewMachine(chip)
	if err != nil {
		log.Fatal(err)
	}
	specs := make([]padpd.AppSpec, 10)
	for i := range specs {
		name, shares := "gcc", padpd.Shares(90)
		if i >= 5 {
			name, shares = "cam4", 10
		}
		p := padpd.MustProfile(name)
		if err := m.Pin(padpd.NewInstance(p), i); err != nil {
			log.Fatal(err)
		}
		specs[i] = padpd.AppSpec{Name: name, Core: i, Shares: shares, AVX: p.AVX}
	}
	if !policy {
		for i := range specs {
			if err := m.SetRequest(i, chip.Freq.Max()); err != nil {
				log.Fatal(err)
			}
		}
		m.SetPowerLimit(40)
		m.Run(20 * time.Second)
		fmt.Printf("package power: %v (limit 40 W)\n", m.PackagePower())
		fmt.Printf("gcc  runs at %v  <- RAPL throttled the low-demand app\n", m.EffectiveFreq(0))
		fmt.Printf("cam4 runs at %v  <- the AVX power hog barely moved\n", m.EffectiveFreq(5))
		return
	}
	pol, err := padpd.NewFrequencyShares(chip, specs, padpd.ShareConfig{})
	if err != nil {
		log.Fatal(err)
	}
	cfg := padpd.DaemonConfig{Chip: chip, Policy: pol, Apps: specs, Limit: 40}
	d, err := padpd.NewDaemon(cfg, m.Device(), padpd.MachineActuator{M: m})
	if err != nil {
		log.Fatal(err)
	}
	if err := d.AttachVirtual(m); err != nil {
		log.Fatal(err)
	}
	m.Run(60 * time.Second)
	if err := d.Err(); err != nil {
		log.Fatal(err)
	}
	snap := d.LastSnapshot()
	fmt.Printf("package power: %v (limit 40 W)\n", snap.PackagePower)
	fmt.Printf("gcc  runs at %v  <- 90 shares keep the priority app fast\n", snap.Apps[0].Freq)
	fmt.Printf("cam4 runs at %v  <- 10 shares push the hog to the floor\n", snap.Apps[5].Freq)
}
