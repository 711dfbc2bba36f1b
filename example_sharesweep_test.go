package padpd_test

import (
	"fmt"
	"log"
	"time"

	padpd "repro"
)

// Example_sharesweep shows how a share ratio translates into delivered
// frequency: five copies of leela (low demand) face five of cactusBSSN
// (high demand) on a Skylake socket at 50 W, under frequency and
// performance shares from 90/10 to 10/90. Below ~20% the 800 MHz floor
// stops further differentiation: the paper's "low dynamic range" effect.
func Example_sharesweep() {
	fmt.Println("leela (LD) vs cactusBSSN (HD), 5 cores each, Skylake @ 50 W")
	fmt.Println()
	fmt.Printf("%-8s  %-20s  %-8s  %-8s  %s\n", "shares", "policy", "LD MHz", "HD MHz", "LD share")
	for _, ratio := range []struct{ ld, hd padpd.Shares }{
		{90, 10}, {70, 30}, {50, 50}, {30, 70}, {10, 90},
	} {
		for _, perf := range []bool{false, true} {
			ldF, hdF, name := sharesweep(ratio.ld, ratio.hd, perf)
			fmt.Printf("%2d/%-5d  %-20s  %-8.0f  %-8.0f  %5.1f%%\n", ratio.ld, ratio.hd,
				name, ldF.MHzF(), hdF.MHzF(), float64(ldF)/float64(ldF+hdF)*100)
		}
	}
	// Output:
	// leela (LD) vs cactusBSSN (HD), 5 cores each, Skylake @ 50 W
	//
	// shares    policy                LD MHz    HD MHz    LD share
	// 90/10     frequency-shares      2500      900        73.5%
	// 90/10     performance-shares    2500      900        73.5%
	// 70/30     frequency-shares      2400      1000       70.6%
	// 70/30     performance-shares    2500      900        73.5%
	// 50/50     frequency-shares      1700      1700       50.0%
	// 50/50     performance-shares    1900      1700       52.8%
	// 30/70     frequency-shares      900       2100       30.0%
	// 30/70     performance-shares    900       2100       30.0%
	// 10/90     frequency-shares      800       1600       33.3%
	// 10/90     performance-shares    800       2100       27.6%
}

// sharesweep runs one ratio for 60 s under frequency shares, or
// performance shares if perf is set, and returns each class's mean
// frequency and the policy's name.
func sharesweep(ld, hd padpd.Shares, perf bool) (ldF, hdF padpd.Hertz, name string) {
	chip := padpd.Skylake()
	m, err := padpd.NewMachine(chip)
	if err != nil {
		log.Fatal(err)
	}
	specs := make([]padpd.AppSpec, 10)
	for i := range specs {
		name, shares := "leela", ld
		if i >= 5 {
			name, shares = "cactusBSSN", hd
		}
		p := padpd.MustProfile(name)
		if err := m.Pin(padpd.NewInstance(p), i); err != nil {
			log.Fatal(err)
		}
		// The performance-share baseline, measured standalone in the
		// paper, is the profile's IPS at the single-core ceiling here.
		specs[i] = padpd.AppSpec{Name: name, Core: i, Shares: shares, AVX: p.AVX,
			BaselineIPS: p.IPS(chip.Freq.Ceiling(1, p.AVX))}
	}
	var pol padpd.Policy
	if perf {
		pol, err = padpd.NewPerformanceShares(chip, specs, padpd.ShareConfig{})
	} else {
		pol, err = padpd.NewFrequencyShares(chip, specs, padpd.ShareConfig{})
	}
	if err != nil {
		log.Fatal(err)
	}
	cfg := padpd.DaemonConfig{Chip: chip, Policy: pol, Apps: specs, Limit: 50}
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
	for i, a := range d.LastSnapshot().Apps {
		if i < 5 {
			ldF += a.Freq
		} else {
			hdF += a.Freq
		}
	}
	return ldF / 5, hdF / 5, pol.Name()
}
