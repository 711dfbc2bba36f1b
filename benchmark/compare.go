package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// resultSet is a result file: the runs appended to it, in order.
type resultSet struct {
	Runs []*runRecord `json:"runs"`
}

func loadSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// appendRun adds one run to the result file at path, creating it.
func appendRun(path string, rec *runRecord) error {
	set := &resultSet{}
	if _, err := os.Stat(path); err == nil {
		if set, err = loadSet(path); err != nil {
			return err
		}
	}
	set.Runs = append(set.Runs, rec)
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// values collects one end-to-end metric of one workload over a set.
func (s *resultSet) values(workload string, d metricDef) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload != workload {
			continue
		}
		if d.Name == "failed_share" {
			out = append(out, r.failedShare())
		} else if v, ok := r.EndToEnd[d.Name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// spread is the run-to-run spread of a set's values as a share of
// their median: the interquartile distance from four runs up, the
// range below that.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	if len(xs) < 4 {
		return (percentile(xs, 100) - percentile(xs, 0)) / m
	}
	return (percentile(xs, 75) - percentile(xs, 25)) / m
}

// Verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares set b against its base a on one metric. worse is how
// much worse b's median is, as a share of a's (or absolutely, for a
// metric with an absolute bound). Beyond the bound it is a regression.
// Within it, a spread wider than the bound leaves the pair unresolved
// unless every run of b is better than every run of a.
func judge(d metricDef, a, b []float64) (worse float64, verdict string) {
	ma, mb := median(a), median(b)
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	bound := d.Bound
	worse = sign * (mb - ma)
	if d.AbsBound > 0 {
		bound = d.AbsBound
	} else if ma != 0 {
		worse /= ma
	}
	if worse > bound {
		return worse, verdictRegressed
	}
	if d.AbsBound == 0 && (spread(a) > bound || spread(b) > bound) {
		worstB, bestA := percentile(b, 100), percentile(a, 0)
		if sign < 0 {
			worstB, bestA = -percentile(b, 0), -percentile(a, 100)
		}
		if worstB < bestA {
			return worse, verdictOK
		}
		return worse, verdictUnresolved
	}
	return worse, verdictOK
}

// compareSets prints, per workload × end-to-end metric, both medians,
// their ratio with its base, the bound and the verdict, then whether
// the exact counts of equal seeds agree. It reports whether any metric
// regressed.
func compareSets(w io.Writer, a, b *resultSet) (regressed bool) {
	fmt.Fprintf(w, "%-11s %-22s %14s %14s %9s %8s  %s\n", "workload", "metric", "a (base)", "b", "b/a", "bound", "verdict")
	for _, wl := range workloadNames {
		for _, d := range endToEnd() {
			va, vb := a.values(wl, d), b.values(wl, d)
			if !d.on(wl) || len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			_, verdict := judge(d, va, vb)
			ratio := "-"
			if ma != 0 {
				ratio = fmt.Sprintf("%.4f", mb/ma)
			}
			bound := fmt.Sprintf("%+.0f%%", 100*d.Bound)
			if d.Better == "higher" {
				bound = fmt.Sprintf("-%.0f%%", 100*d.Bound)
			}
			if d.AbsBound > 0 {
				bound = fmt.Sprintf("+%.2g", d.AbsBound)
			}
			fmt.Fprintf(w, "%-11s %-22s %14.6g %14.6g %9s %8s  %s (n=%d,%d spread %.1f%%,%.1f%%)\n",
				wl, d.Name, ma, mb, ratio, bound, verdict, len(va), len(vb), 100*spread(va), 100*spread(vb))
			regressed = regressed || verdict == verdictRegressed
		}
		fmt.Fprintf(w, "%-11s counts: %s\n", wl, compareCounts(a, b, wl))
	}
	return regressed
}

// compareCounts holds the exact counts and simulated statistics of the
// two sets' runs of one workload against each other, seed by seed.
func compareCounts(a, b *resultSet, workload string) string {
	bySeed := map[int64]*runRecord{}
	for _, r := range a.Runs {
		if r.Workload == workload {
			bySeed[r.Seed] = r
		}
	}
	var diffs []string
	seeds := 0
	for _, r := range b.Runs {
		base, ok := bySeed[r.Seed]
		if r.Workload != workload || !ok || r.Seconds != base.Seconds {
			continue
		}
		seeds++
		for k, v := range base.Counts {
			if r.Counts[k] != v {
				diffs = append(diffs, fmt.Sprintf("seed %d %s: %v vs %v", r.Seed, k, v, r.Counts[k]))
			}
		}
	}
	switch {
	case seeds == 0:
		return "no seed run at equal length in both sets"
	case len(diffs) == 0:
		return "identical on every seed in both sets"
	}
	sort.Strings(diffs)
	return "DIFFER: " + strings.Join(diffs, "; ")
}
