package padpd_test

import (
	"fmt"
	"log"
	"time"

	padpd "repro"
)

// Example_prioritymix runs the paper's priority policy across workload
// mixes, Figure 7's story in miniature: it varies how many of ten Skylake
// cores run high-priority applications under a 40 W limit. With few HP
// applications the policy starves the LP class to give the HP class turbo
// headroom, so three HP applications at 40 W outrun ten at 85 W.
func Example_prioritymix() {
	fmt.Println("priority policy on Skylake @ 40 W, cactusBSSN (HD) + leela (LD) mixes")
	fmt.Println()
	fmt.Printf("%-8s  %-8s  %-8s  %-10s  %s\n", "mix", "HP MHz", "LP MHz", "LP starved", "pkg W")
	for _, nHP := range []int{10, 7, 5, 3, 1} {
		hpF, lpF, starved, pkg := prioritymix(nHP)
		lp := fmt.Sprintf("%.0f", lpF.MHzF())
		if starved {
			lp = "-"
		}
		fmt.Printf("%dH %dL  %8.0f  %8s  %-10v  %8.2f\n",
			nHP, 10-nHP, hpF.MHzF(), lp, starved, float64(pkg))
	}
	// Output:
	// priority policy on Skylake @ 40 W, cactusBSSN (HD) + leela (LD) mixes
	//
	// mix       HP MHz    LP MHz    LP starved  pkg W
	// 10H 0L      1400         0  false          38.45
	// 7H 3L      1700         -  true           37.97
	// 5H 5L      2100         -  true           39.29
	// 3H 7L      2600         -  true           39.64
	// 1H 9L      3000         -  true           27.20
}

// prioritymix runs alternating cactusBSSN and leela for 60 s with the
// first nHP cores high priority, and returns each class's mean frequency,
// whether every LP application is parked, and the package power.
func prioritymix(nHP int) (hpF, lpF padpd.Hertz, starved bool, pkg padpd.Watts) {
	chip := padpd.Skylake()
	m, err := padpd.NewMachine(chip)
	if err != nil {
		log.Fatal(err)
	}
	specs := make([]padpd.AppSpec, 10)
	for i := range specs {
		name := "cactusBSSN"
		if i%2 == 1 {
			name = "leela"
		}
		p := padpd.MustProfile(name)
		if err := m.Pin(padpd.NewInstance(p), i); err != nil {
			log.Fatal(err)
		}
		specs[i] = padpd.AppSpec{Name: name, Core: i, HighPriority: i < nHP, AVX: p.AVX}
	}
	pol, err := padpd.NewPriority(chip, specs, padpd.PriorityConfig{Limit: 40})
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
	starved = nHP < 10
	for i, a := range snap.Apps {
		if i < nHP {
			hpF += a.Freq
		} else {
			lpF += a.Freq
			starved = starved && a.Parked
		}
	}
	return hpF / padpd.Hertz(nHP), lpF / padpd.Hertz(max(10-nHP, 1)), starved, snap.PackagePower
}
