package padpd_test

import (
	"fmt"
	"log"
	"time"

	padpd "repro"
)

const colocateLimit = 40 // watts

// Example_colocate is the paper's latency-sensitive scenario (Figures 5 and
// 12): a 300-user websearch service on nine cores, a cpuburn power virus on
// the tenth, and a 40 W package limit. It compares websearch's p90 latency
// alone, colocated under RAPL (the virus triggers the limiter and websearch
// pays), and colocated under 90/10 frequency shares.
func Example_colocate() {
	alone := colocate("alone")
	rapl := colocate("rapl")
	policy := colocate("policy")
	fmt.Printf("\nwebsearch p90 latency under a %d W limit:\n", colocateLimit)
	fmt.Printf("  alone                 %6.1f ms\n", alone*1000)
	fmt.Printf("  + cpuburn, RAPL       %6.1f ms  (%.2fx)\n", rapl*1000, rapl/alone)
	fmt.Printf("  + cpuburn, 90/10 freq %6.1f ms  (%.2fx)\n", policy*1000, policy/alone)
	// Output:
	// alone  : 21502 requests served, websearch cores at 1.60 GHz, core 9 at 0 Hz
	// rapl   : 20993 requests served, websearch cores at 1.40 GHz, core 9 at 1.40 GHz
	// policy : 21332 requests served, websearch cores at 1.60 GHz, core 9 at 800 MHz
	//
	// websearch p90 latency under a 40 W limit:
	//   alone                   45.0 ms
	//   + cpuburn, RAPL         64.0 ms  (1.42x)
	//   + cpuburn, 90/10 freq   45.0 ms  (1.00x)
}

// colocate runs one configuration and returns websearch's p90 latency in
// seconds.
func colocate(kind string) float64 {
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
		for c := range chip.NumCores {
			if m.App(c) != nil {
				if err := m.SetRequest(c, chip.Freq.Max()); err != nil {
					log.Fatal(err)
				}
			}
		}
		m.SetPowerLimit(colocateLimit)
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
		cfg := padpd.DaemonConfig{Chip: chip, Policy: pol, Apps: specs, Limit: colocateLimit}
		d, err := padpd.NewDaemon(cfg, m.Device(), padpd.MachineActuator{M: m})
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
