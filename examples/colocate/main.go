// Colocate: the paper's latency-sensitive scenario (Figures 5 and 12).
//
// A 300-user websearch service occupies nine cores; a cpuburn power virus
// occupies the tenth. Under a 40 W package limit we compare p90 latency in
// three configurations: websearch alone, colocated under RAPL (the virus
// triggers the limiter and websearch pays), and colocated under the
// frequency-share policy with a 90/10 split.
package main

import (
	"fmt"
	"log"
	"time"

	padpd "repro"
)

const limit = 40 // watts

func main() {
	alone := scenario("alone")
	rapl := scenario("rapl")
	policy := scenario("policy")
	fmt.Printf("\nwebsearch p90 latency under a %d W limit:\n", limit)
	fmt.Printf("  alone                 %6.1f ms\n", alone*1000)
	fmt.Printf("  + cpuburn, RAPL       %6.1f ms  (%.2fx)\n", rapl*1000, rapl/alone)
	fmt.Printf("  + cpuburn, 90/10 freq %6.1f ms  (%.2fx)\n", policy*1000, policy/alone)
}

func scenario(kind string) float64 {
	chip := padpd.Skylake()
	m, err := padpd.NewMachine(chip)
	if err != nil {
		log.Fatal(err)
	}
	cores := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	model, err := padpd.NewWebsearch(padpd.WebsearchConfig(300, cores, 7))
	if err != nil {
		log.Fatal(err)
	}
	if err := model.Attach(m); err != nil {
		log.Fatal(err)
	}
	ws := model.Service("websearch")
	if kind != "alone" {
		if err := m.Pin(padpd.NewInstance(padpd.CPUBurn), 9); err != nil {
			log.Fatal(err)
		}
	}

	switch kind {
	case "alone", "rapl":
		for c := 0; c < chip.NumCores; c++ {
			if m.App(c) != nil {
				if err := m.SetRequest(c, chip.Freq.Max()); err != nil {
					log.Fatal(err)
				}
			}
		}
		m.SetPowerLimit(limit)
	case "policy":
		specs := make([]padpd.AppSpec, 0, 10)
		for _, c := range cores {
			specs = append(specs, padpd.AppSpec{Name: "websearch", Core: c, Shares: 90})
		}
		specs = append(specs, padpd.AppSpec{Name: "cpuburn", Core: 9, Shares: 10, AVX: true})
		pol, err := padpd.NewFrequencyShares(chip, specs, padpd.ShareConfig{})
		if err != nil {
			log.Fatal(err)
		}
		d, err := padpd.NewDaemon(padpd.DaemonConfig{
			Chip: chip, Policy: pol, Apps: specs, Limit: limit,
		}, m.Device(), padpd.MachineActuator{M: m})
		if err != nil {
			log.Fatal(err)
		}
		if err := d.AttachVirtual(m); err != nil {
			log.Fatal(err)
		}
	}

	m.Run(15 * time.Second) // warm up
	ws.ResetStats()
	m.Run(30 * time.Second)
	fmt.Printf("%-7s: %5d requests served, websearch cores at %v, core 9 at %v\n",
		kind, ws.Completed(), m.EffectiveFreq(0), m.EffectiveFreq(9))
	return ws.LatencyPercentile(90)
}
