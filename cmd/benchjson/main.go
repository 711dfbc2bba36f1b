// Command benchjson emits and gates the repo's machine-readable
// performance trajectory.
//
// Generate (writes BENCH_coordinator.json and BENCH_loop.json):
//
//	benchjson -out .            # full trajectory
//	benchjson -smoke -out /tmp  # CI's quick pass, largest sizes dropped
//
// Gate (compare a fresh run against a committed baseline):
//
//	benchjson -compare BENCH_coordinator.json:/tmp/BENCH_coordinator.json
//
// The comparator exits non-zero when any entry regressed more than
// -threshold (default 20%) past the cross-machine calibration; pass
// -absolute when both files came from the same machine.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		out       = flag.String("out", "", "directory to write BENCH_*.json into (generation mode)")
		smoke     = flag.Bool("smoke", false, "drop the largest benchmark configurations (CI smoke pass)")
		compare   = flag.String("compare", "", "baseline:candidate file pair to gate (may repeat, comma-separated)")
		threshold = flag.Float64("threshold", bench.DefaultThreshold, "tolerated fractional ns/op regression")
		absolute  = flag.Bool("absolute", false, "disable machine-speed calibration when comparing")
	)
	flag.Parse()

	switch {
	case *compare != "":
		if err := runCompare(*compare, *threshold, *absolute); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *out != "":
		if err := runGenerate(*out, *smoke); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "benchjson: nothing to do; pass -out DIR or -compare BASE:CAND")
		os.Exit(2)
	}
}

func runGenerate(dir string, smoke bool) error {
	coord := bench.NewFile("coordinator", smoke)
	entries, err := bench.CoordinatorTrajectory(smoke)
	if err != nil {
		return err
	}
	coord.Entries = entries
	hier, err := bench.HierarchyTrajectory(smoke)
	if err != nil {
		return err
	}
	coord.Entries = append(coord.Entries, hier...)
	path := filepath.Join(dir, "BENCH_coordinator.json")
	if err := coord.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d entries, rev %s)\n", path, len(coord.Entries), short(coord.GitRev))

	loop := bench.NewFile("loop", smoke)
	if loop.Entries, err = bench.LoopTrajectory(smoke); err != nil {
		return err
	}
	ledgerEntries, err := bench.LedgerTrajectory(smoke)
	if err != nil {
		return err
	}
	loop.Entries = append(loop.Entries, ledgerEntries...)
	svcEntries, err := bench.SvcTrajectory(smoke)
	if err != nil {
		return err
	}
	loop.Entries = append(loop.Entries, svcEntries...)
	telEntries, err := bench.SvcTelemetryTrajectory(smoke)
	if err != nil {
		return err
	}
	loop.Entries = append(loop.Entries, telEntries...)
	sloEntries, err := bench.SLOLoopTrajectory(smoke)
	if err != nil {
		return err
	}
	loop.Entries = append(loop.Entries, sloEntries...)
	path = filepath.Join(dir, "BENCH_loop.json")
	if err := loop.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d entries, rev %s)\n", path, len(loop.Entries), short(loop.GitRev))
	return nil
}

func runCompare(spec string, threshold float64, absolute bool) error {
	failed := false
	for _, pair := range strings.Split(spec, ",") {
		base, cand, ok := strings.Cut(pair, ":")
		if !ok {
			return fmt.Errorf("benchjson: -compare wants baseline:candidate, got %q", pair)
		}
		bf, err := bench.ReadFile(base)
		if err != nil {
			return err
		}
		cf, err := bench.ReadFile(cand)
		if err != nil {
			return err
		}
		for _, w := range bench.ShapeWarnings(bf, cf) {
			fmt.Fprintf(os.Stderr, "%s: warning: %s\n", base, w)
		}
		regs, err := bench.Compare(bf, cf, bench.CompareOptions{Threshold: threshold, Absolute: absolute})
		if err != nil {
			return err
		}
		if len(regs) == 0 {
			fmt.Printf("%s: ok (%d entries, baseline rev %s, candidate rev %s)\n",
				base, len(bf.Entries), short(bf.GitRev), short(cf.GitRev))
			continue
		}
		failed = true
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "%s: REGRESSION %s\n", base, r)
		}
	}
	if failed {
		return fmt.Errorf("benchjson: performance regressions detected")
	}
	return nil
}

func short(rev string) string {
	if len(rev) > 12 {
		return rev[:12]
	}
	return rev
}
