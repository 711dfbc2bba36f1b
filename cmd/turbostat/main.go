// Command turbostat is the simulator's rendition of the tool the paper used
// (modified) to collect its measurements: it runs a workload mix on a
// simulated platform and prints one telemetry block per sampling interval —
// per-core active frequency (ΔAPERF/ΔMPERF), IPS, per-core power where the
// platform provides it, package power, and C-state residency percentages.
//
// Usage:
//
//	turbostat -platform skylake -apps gcc:0,cam4:1 -limit 50 -duration 10s
//
// With -connect it instead reads a live powerd daemon's /debug/status
// endpoint and prints one block per poll — the live-reader counterpart to
// powerd -listen:
//
//	turbostat -connect http://localhost:9090 -interval 1s -duration 10s
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/telemetry"
	"repro/internal/units"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "turbostat:", err)
		os.Exit(1)
	}
}

// run parses the command line and prints the blocks to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("turbostat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		plat     = fs.String("platform", "skylake", "skylake or ryzen")
		apps     = fs.String("apps", "gcc:0,cam4:1", "comma-separated name:core")
		limit    = fs.Float64("limit", 0, "RAPL package limit in watts (0 = uncapped)")
		duration = fs.Duration("duration", 10*time.Second, "virtual run time")
		interval = fs.Duration("interval", time.Second, "sampling interval")
		connect  = fs.String("connect", "", "read a live powerd daemon at this base URL instead of simulating")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *connect != "" {
		return watch(stdout, *connect, *duration, *interval)
	}
	return simulate(stdout, *plat, *apps, units.Watts(*limit), *duration, *interval)
}

// watch polls a powerd daemon's /debug/status and prints one telemetry
// block per poll, decision reasons included.
func watch(w io.Writer, base string, duration, interval time.Duration) error {
	base = strings.TrimRight(base, "/")
	client := &http.Client{Timeout: interval}
	deadline := time.Now().Add(duration)
	var lastSeq uint64
	for {
		resp, err := client.Get(base + "/debug/status?n=1")
		if err != nil {
			return err
		}
		var sr obs.StatusResponse
		err = json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("decoding status: %w", err)
		}
		st := sr.Status
		fmt.Fprintf(w, "t=%-8.1f policy=%-12s iter=%-6d pkg=%6.2fW limit=%6.2fW\n",
			st.TimeSeconds, st.Policy, st.Iterations, st.PackagePowerWatts, st.LimitWatts)
		for _, a := range st.Apps {
			fmt.Fprintf(w, "  %-10s cpu%-3d %6.0f MHz  %10.3g IPS  %6.2f W  parked=%v\n",
				a.Name, a.Core, a.MHz, a.IPS, a.Watts, a.Parked)
		}
		if len(sr.Decisions) > 0 {
			d := sr.Decisions[len(sr.Decisions)-1]
			if d.Seq != lastSeq {
				lastSeq = d.Seq
				fmt.Fprintf(w, "  decision #%d: %s\n", d.Seq, strings.Join(d.Reasons, ", "))
			}
		}
		fmt.Fprintln(w)
		if time.Now().Add(interval).After(deadline) {
			return nil
		}
		time.Sleep(interval)
	}
}

// simulate runs the apps on a simulated chip and prints one block per
// interval.
func simulate(w io.Writer, plat, apps string, limit units.Watts, duration, interval time.Duration) error {
	chip, err := platform.ByName(plat)
	if err != nil {
		return err
	}
	if limit > 0 && !chip.HardwareRAPLLimit {
		return fmt.Errorf("%s has no documented RAPL limiter", chip.Name)
	}
	var specs []core.AppSpec
	for _, item := range strings.Split(apps, ",") {
		name, c, ok := strings.Cut(strings.TrimSpace(item), ":")
		if !ok || strings.Contains(c, ":") {
			return fmt.Errorf("app %q: want name:core", item)
		}
		n, err := strconv.Atoi(c)
		if err != nil {
			return fmt.Errorf("app %q: bad core: %w", item, err)
		}
		specs = append(specs, core.AppSpec{Name: name, Core: n})
	}
	// The RAPL baseline: every app core requests the chip's maximum
	// under the hardware limit, with no daemon.
	nd, err := node.New(node.Spec{Chip: chip, Apps: specs, Limit: limit})
	if err != nil {
		return err
	}
	m := nd.M

	s, err := telemetry.NewSampler(m.Device(), chip.NumCores, chip.Freq.Nom, chip.PerCorePower)
	if err != nil {
		return err
	}
	if err := s.Prime(); err != nil {
		return err
	}
	prevRes := make([][]time.Duration, chip.NumCores)
	for i := range prevRes {
		prevRes[i] = m.CStateResidency(i)
	}

	header := "time     cpu   MHz        IPS"
	if chip.PerCorePower {
		header += "     W/core"
	}
	for _, cs := range chip.CStates {
		header += fmt.Sprintf("  %%%s", cs.Name)
	}
	for elapsed := time.Duration(0); elapsed < duration; elapsed += interval {
		m.Run(interval)
		sample, err := s.Sample(interval)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, header)
		for i, cs := range sample.Cores {
			line := fmt.Sprintf("%-8s %-4d  %-8.0f  %-8.3g", sample.At, i, cs.ActiveFreq.MHzF(), cs.IPS)
			if chip.PerCorePower {
				line += fmt.Sprintf("  %-6.2f", float64(cs.Power))
			}
			res := m.CStateResidency(i)
			for j := range chip.CStates {
				pct := float64(res[j]-prevRes[i][j]) / float64(interval) * 100
				line += fmt.Sprintf("  %5.1f", pct)
			}
			prevRes[i] = res
			fmt.Fprintln(w, line)
		}
		fmt.Fprintf(w, "package: %s\n\n", sample.PackagePower)
	}
	return nil
}
