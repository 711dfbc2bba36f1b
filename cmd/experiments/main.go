// Command experiments regenerates the paper's tables and figures as text
// tables (or CSV) on stdout.
//
// Usage:
//
//	experiments [-figure all|1|2|...|13|tables] [-csv]
//
// Each figure is produced by the corresponding harness in
// internal/experiments; DESIGN.md maps figures to modules. The figures are
// independent and seed-deterministic, so they are generated on as many
// workers as there are processors and printed in declaration order.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/experiments"
	"repro/internal/trace"
)

func main() {
	figure := flag.String("figure", "all", "which figure to regenerate: all, tables, 1-13, or one of stability, useful, gaming-perf, gaming-freq, clustering, interval, consolidation, chaos, slo")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	traceDir := flag.String("tracedir", "", "also write each run's per-iteration CSV time series into this directory")
	flag.Parse()

	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		experiments.SetTraceDir(*traceDir)
	}
	workers := runtime.GOMAXPROCS(0)
	if *traceDir != "" {
		// Trace files are numbered by one global run sequence: only a
		// serial pass gives a run the same file name every time.
		workers = 1
	}
	if err := run(*figure, *csv, workers, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// tabler is any experiment result that renders to tables.
type tabler interface {
	Tables() []trace.Table
}

// gen is one figure's generator.
type gen struct {
	name string
	fn   func() (tabler, error)
}

// generate runs the generators on up to workers goroutines and hands each
// result to emit in declaration order, announcing each figure on progress
// before it waits for it. It returns the error of the first figure in that
// order to fail (or of emit), starts no further figure once it has, and
// returns only when its goroutines have.
func generate(gens []gen, workers int, progress io.Writer, emit func([]trace.Table) error) error {
	type outcome struct {
		res tabler
		err error
	}
	results := make([]chan outcome, len(gens))
	for i := range results {
		results[i] = make(chan outcome, 1)
	}
	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	defer wg.Wait()
	defer stop.Store(true)
	for w := 0; w < min(workers, len(gens)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(gens) {
					return
				}
				res, err := gens[i].fn()
				results[i] <- outcome{res, err}
			}
		}()
	}
	for i, g := range gens {
		fmt.Fprintf(progress, "regenerating figure %s...\n", g.name)
		o := <-results[i]
		if o.err != nil {
			return fmt.Errorf("figure %s: %w", g.name, o.err)
		}
		if err := emit(o.res.Tables()); err != nil {
			return err
		}
	}
	return nil
}

// figure12 runs Figure 12 once a process: Figure 13 is its frequency
// series, so -figure all derives 13 from 12's result, and -figure 13 on its
// own runs 12 once. Its type is spelled out so that the export lint, which
// stubs the standard library, sees which method -figure 13 calls.
var figure12 func() (experiments.LatencyResult, error) = sync.OnceValues(experiments.Figure12)

// gens are the figure generators in the order -figure all prints them.
var gens = []gen{
	{"1", func() (tabler, error) { r, err := experiments.Figure1(); return r, err }},
	{"2", func() (tabler, error) { r, err := experiments.Figure2(); return r, err }},
	{"3", func() (tabler, error) { r, err := experiments.Figure3(); return r, err }},
	{"4", func() (tabler, error) { r, err := experiments.Figure4(); return r, err }},
	{"5", func() (tabler, error) { r, err := experiments.Figure5(); return r, err }},
	{"6", func() (tabler, error) { r, err := experiments.Figure6(); return r, err }},
	{"7", func() (tabler, error) { r, err := experiments.Figure7(); return r, err }},
	{"8", func() (tabler, error) { r, err := experiments.Figure8(); return r, err }},
	{"9", func() (tabler, error) { r, err := experiments.Figure9(); return r, err }},
	{"10", func() (tabler, error) { r, err := experiments.Figure10(); return r, err }},
	{"11", func() (tabler, error) { r, err := experiments.Figure11(); return r, err }},
	{"12", func() (tabler, error) { r, err := figure12(); return r, err }},
	{"13", func() (tabler, error) { r, err := figure12(); return r.FreqSeries(), err }},
	{"stability", func() (tabler, error) { r, err := experiments.StabilityStudy(); return r, err }},
	{"useful", func() (tabler, error) { r, err := experiments.UsefulFreqStudy(); return r, err }},
	{"gaming-perf", func() (tabler, error) { r, err := experiments.GamingStudy(experiments.PerfShares); return r, err }},
	{"gaming-freq", func() (tabler, error) { r, err := experiments.GamingStudy(experiments.FreqShares); return r, err }},
	{"clustering", func() (tabler, error) { r, err := experiments.AblationClustering(); return r, err }},
	{"interval", func() (tabler, error) { r, err := experiments.AblationInterval(); return r, err }},
	{"consolidation", func() (tabler, error) { r, err := experiments.ConsolidationStudy(); return r, err }},
	{"slo", func() (tabler, error) { r, err := experiments.SLOStudy(); return r, err }},
	{"chaos", func() (tabler, error) { r, err := experiments.ChaosStudy(); return r, err }},
}

// emitTo returns the function that renders tables on w, aligned or as CSV.
func emitTo(w io.Writer, csv bool) func([]trace.Table) error {
	return func(tables []trace.Table) error {
		for _, tb := range tables {
			var err error
			if csv {
				fmt.Fprintf(w, "# %s\n", tb.Title)
				err = tb.RenderCSV(w)
				fmt.Fprintln(w)
			} else {
				err = tb.Render(w)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
}

func run(figure string, csv bool, workers int, stdout, progress io.Writer) error {
	emit := emitTo(stdout, csv)
	if figure == "tables" || figure == "all" {
		if err := emit([]trace.Table{experiments.Table1(), experiments.Table2(), experiments.Table3()}); err != nil {
			return err
		}
		if figure == "tables" {
			return nil
		}
	}
	todo := gens
	if figure != "all" {
		todo = nil
		for _, g := range gens {
			if g.name == figure {
				todo = []gen{g}
			}
		}
		if todo == nil {
			return fmt.Errorf("unknown figure %q (want all, tables, 1-13, or a study name)", figure)
		}
	}
	return generate(todo, workers, progress, emit)
}
