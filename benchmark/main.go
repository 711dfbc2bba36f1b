// Command benchmark is the repository's benchmark: six named workloads
// driven only through the layers' public functions, end-to-end metrics
// with fixed regression bounds, and a traced run that takes each
// workload apart layer by layer. README.md beside it defines every
// workload and metric; BENCHMARK.json at the repository root is the
// contract a driver runs it by.
//
//	go run . [-workload NAME] [-seed N] [-seconds N] [-trace 0|1] [-o FILE]
//	go run . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// findRoot walks up from the working directory to the repository root:
// the directory whose go.mod declares module repro.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(string(data), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module repro above the working directory")
		}
		dir = parent
	}
}

func main() {
	var (
		workload = flag.String("workload", "all", "one of "+strings.Join(workloadNames, ", ")+", or all")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs: app mix and shares, arrival seeds, leaf demands, budget-step phase")
		seconds  = flag.Int("seconds", 10, "nominal length of each timed region; scales the fixed operation counts")
		trace    = flag.Int("trace", 0, "1 adds a traced pass and reports the per-layer metrics")
		outPath  = flag.String("o", "", "result file to append each run to (default benchmark/out/results.json)")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments: a.json (the base) and b.json")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace != 0, *outPath, *compare); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, traced bool, outPath string, compare bool) error {
	if compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare wants two result files")
		}
		a, err := loadSet(flag.Arg(0))
		if err != nil {
			return err
		}
		b, err := loadSet(flag.Arg(1))
		if err != nil {
			return err
		}
		if compareSets(os.Stdout, a, b) {
			return fmt.Errorf("%s regressed against %s", flag.Arg(1), flag.Arg(0))
		}
		return nil
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", seconds)
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	// One processor. The loops have one goroutine anyway; the rounds'
	// fan-out then runs one goroutine at a time, so a round's time is the
	// processor time of all its parts. With two, a round also measured how
	// the host scheduled the box's two processors against each other:
	// tree-1024 spread 13-22 % between quartiles where it spreads 5-8 % now.
	runtime.GOMAXPROCS(1)
	cfg := config{
		seed: seed, seconds: seconds, root: root,
		outDir: filepath.Join(root, "benchmark", "out"), out: os.Stdout,
	}
	if outPath == "" {
		outPath = filepath.Join(cfg.outDir, "results.json")
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return err
	}
	names := []string{workload}
	if workload == "all" {
		names = workloadNames
	}
	var last *runRecord
	for _, name := range names {
		rec, err := runWorkload(name, cfg, traced)
		if err != nil {
			return err
		}
		rec.print(os.Stdout)
		if err := appendRun(outPath, rec); err != nil {
			return err
		}
		last = rec
	}
	if len(names) == 1 {
		return printResultLine(last, traced)
	}
	return nil
}

// printResultLine writes the one-line JSON result a driver reads: the
// end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func printResultLine(rec *runRecord, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for name, v := range rec.PerLayer {
			metrics[name] = value{v.Value, v.Unit}
		}
	} else {
		for _, d := range universal {
			v := rec.EndToEnd[d.Name]
			metrics[d.Name] = value{v.Value, v.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}
