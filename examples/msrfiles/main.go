// Msrfiles: the daemon driving a *file-backed* MSR tree in real time.
//
// This example demonstrates the deployment architecture the repro hint
// calls "file-based MSR access": the machine (here, the simulator standing
// in for silicon) publishes its counters into a /dev/cpu-shaped directory
// of register files, the control daemon reads and writes only those files,
// and a shuttle loop applies the daemon's P-state writes back to the
// machine. The daemon runs on a wall-clock ticker and reports its measured
// scheduling jitter — the GC-jitter observability knob for a Go control
// loop.
//
// One interval's package power aliases the shuttle's steps against the
// daemon's ticks, so the headline is the mean after warm-up: the machine's
// energy over the virtual time since then.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"time"

	padpd "repro"
)

// warmup is the virtual time the mean package power leaves out, while the
// policy moves the cores from their start to the limit.
const warmup = time.Second

func main() {
	run(os.Stdout)
}

// run drives the daemon over the file tree for 60 intervals, reports to w,
// and returns the mean package power after warm-up.
func run(w io.Writer) padpd.Watts {
	dir, err := os.MkdirTemp("", "padpd-msr-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	chip := padpd.Skylake()
	m, err := padpd.NewMachine(chip)
	if err != nil {
		log.Fatal(err)
	}
	specs := []padpd.AppSpec{
		{Name: "gcc", Core: 0, Shares: 80},
		{Name: "omnetpp", Core: 1, Shares: 20},
	}
	for _, s := range specs {
		if err := m.Pin(padpd.NewInstance(padpd.MustProfile(s.Name)), s.Core); err != nil {
			log.Fatal(err)
		}
	}

	files, err := padpd.NewFileMSRDevice(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "MSR register tree at %s\n", dir)

	// The shuttle: every few milliseconds, advance the machine's virtual
	// time to the wall time since the shuttle started, publish its
	// counters into the file tree, and apply any PERF_CTL writes the daemon
	// left there. A mutex stands in for the bus.
	regs := []uint32{
		padpd.MSRAperf, padpd.MSRMperf, padpd.MSRFixedCtr0,
		padpd.MSRRAPLPowerUnit, padpd.MSRPkgEnergyStatus, padpd.MSRPP0EnergyStatus,
	}
	var mu sync.Mutex
	// Publish the initial register state (in particular RAPL_POWER_UNIT,
	// which the daemon's sampler reads once at construction) before the
	// daemon opens the tree.
	if err := padpd.MirrorMSRs(m.Device(), files, chip.NumCores, regs); err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	t0, e0 := m.Now(), m.PackageEnergy() // the machine's time and energy at warmup
	go func() {
		defer close(done)
		ticker := time.NewTicker(5 * time.Millisecond)
		defer ticker.Stop()
		start := time.Now()
		for {
			select {
			case <-ctx.Done():
				return
			case now := <-ticker.C:
				// The daemon's wall-clock power derivation stays honest
				// even when the ticker drifts. Run takes whole ticks, so
				// advancing by each gap would round every gap up and run
				// ahead of the wall clock.
				mu.Lock()
				m.Run(now.Sub(start) - m.Now())
				if t0 < warmup && m.Now() >= warmup {
					t0, e0 = m.Now(), m.PackageEnergy()
				}
				err := padpd.MirrorMSRs(m.Device(), files, chip.NumCores, regs)
				for _, s := range specs {
					if err != nil {
						break
					}
					var v uint64
					if v, err = files.Read(s.Core, padpd.MSRPerfCtl); err == nil && v != 0 {
						err = m.SetRequest(s.Core, padpd.DecodePerfCtl(v, chip.Freq.Step))
					}
				}
				mu.Unlock()
				if err != nil {
					done <- err
					return
				}
			}
		}
	}()

	pol, err := padpd.NewFrequencyShares(chip, specs, padpd.ShareConfig{})
	if err != nil {
		log.Fatal(err)
	}
	d, err := padpd.NewDaemon(padpd.DaemonConfig{
		Chip: chip, Policy: pol, Apps: specs, Limit: 30,
		Interval: 50 * time.Millisecond,
	}, files, padpd.MSRActuator{Dev: files, Step: chip.Freq.Step})
	if err != nil {
		log.Fatal(err)
	}
	if err := d.RunRealtime(ctx, 60); err != nil {
		log.Fatal(err)
	}
	// Stop the shuttle before touching the tree or the machine again.
	cancel()
	if err := <-done; err != nil {
		log.Fatal(err)
	}

	snap := d.LastSnapshot()
	mean := padpd.Watts(float64(m.PackageEnergy()-e0) / (m.Now() - t0).Seconds())
	fmt.Fprintf(w, "after %d real-time iterations: pkg=%v mean over the %.2f s after warm-up, %v the last interval\n",
		d.Iterations(), mean, (m.Now() - t0).Seconds(), snap.PackagePower)
	for _, a := range snap.Apps {
		fmt.Fprintf(w, "  %-8s core %d: %v\n", a.Spec.Name, a.Spec.Core, a.Freq)
	}
	js := d.Jitter()
	fmt.Fprintf(w, "control-loop jitter over %d iterations: mean=%.3fms p99=%.3fms max=%.3fms\n",
		js.Samples, js.Mean*1000, js.P99*1000, js.Max*1000)
	return mean
}
