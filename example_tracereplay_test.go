package padpd_test

import (
	"fmt"
	"log"
	"time"

	padpd "repro"
)

// Example_tracereplay is the substitution path for workloads that cannot
// ship. A "production host" runs a proprietary service (cam4 stands in,
// phases and all); one minute of per-second IPS and core power, what
// turbostat emits, is recorded; ProfileFromTrace rebuilds a profile from
// the trace, and a fresh machine replays it with the recording's
// throughput, power and phase structure.
func Example_tracereplay() {
	const recordFreq = 2000 * padpd.MHz
	// --- Record on the "production host". ---
	prod, err := padpd.NewMachine(padpd.Skylake())
	if err != nil {
		log.Fatal(err)
	}
	secret := padpd.MustProfile("cam4") // stand-in for an unshippable binary
	if err := prod.Pin(padpd.NewInstance(secret), 0); err != nil {
		log.Fatal(err)
	}
	if err := prod.SetRequest(0, recordFreq); err != nil {
		log.Fatal(err)
	}
	sampler, err := padpd.NewSampler(prod.Device(), 1, prod.Chip().Freq.Nom, false)
	if err != nil {
		log.Fatal(err)
	}
	if err := sampler.Prime(); err != nil {
		log.Fatal(err)
	}
	var pts []padpd.TracePoint
	var recIPS, recPower float64
	for i := 0; i < 60; i++ {
		prod.Run(time.Second)
		s, err := sampler.Sample(time.Second)
		if err != nil {
			log.Fatal(err)
		}
		// Skylake has no per-core power counters: the busy core's share is
		// package power minus the known uncore and idle-core floor.
		corePower := s.PackagePower - prod.Chip().Power.UncorePower -
			9*prod.Chip().Power.IdleCorePower
		pts = append(pts, padpd.TracePoint{Duration: time.Second, IPS: s.Cores[0].IPS, Power: corePower})
		recIPS += s.Cores[0].IPS
		recPower += float64(corePower)
	}
	fmt.Printf("recorded 60 s at %v: mean %.2f GIPS, %.2f W core power\n",
		recordFreq, recIPS/60/1e9, recPower/60)

	// --- Rebuild and replay elsewhere. ---
	replayProfile, err := padpd.ProfileFromTrace("replayed-service", pts, recordFreq, prod.Chip().Power)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rebuilt profile: %d phases, %.3g instructions per run\n",
		len(replayProfile.Phases), replayProfile.TotalInstructions)
	lab, err := padpd.NewMachine(padpd.Skylake())
	if err != nil {
		log.Fatal(err)
	}
	in := padpd.NewInstance(replayProfile)
	if err := lab.Pin(in, 0); err != nil {
		log.Fatal(err)
	}
	if err := lab.SetRequest(0, recordFreq); err != nil {
		log.Fatal(err)
	}
	lab.Run(60 * time.Second)
	repIPS := lab.Counters(0).Instr / 60
	repPower := float64(lab.CoreEnergy(0)) / 60
	fmt.Printf("replayed 60 s:             mean %.2f GIPS, %.2f W core power\n",
		repIPS/1e9, repPower)
	fmt.Printf("fidelity: IPS %.1f%%, power %.1f%% of the recording\n",
		repIPS/(recIPS/60)*100, repPower/(recPower/60)*100)
	if in.RunsCompleted() != 1 {
		fmt.Printf("(note: %d full trace replays completed)\n", in.RunsCompleted())
	}
	// Output:
	// recorded 60 s at 2.00 GHz: mean 1.50 GIPS, 5.47 W core power
	// rebuilt profile: 60 phases, 9.01e+10 instructions per run
	// replayed 60 s:             mean 1.50 GIPS, 5.47 W core power
	// fidelity: IPS 100.0%, power 100.0% of the recording
	// (note: 0 full trace replays completed)
}
