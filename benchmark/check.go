package main

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/ledger"
	"repro/internal/units"
)

// Kinds of violation the benchmark counts. A violation never stops a
// run: it is counted against the operations attempted and printed with
// the interval or round it happened in.
const (
	failError         = "error"            // RunIteration, Step or SetBudget returned an error
	failOvercommit    = "overcommit"       // Σ enforced leaf caps above the committed budget
	failUnenforced    = "unenforced"       // a budget step not enforced within maxStepRounds
	failLedger        = "ledger"           // Σ app µJ + unattributed + excluded ≠ total
	failFigures       = "figures"          // figure output differs from results/all_figures.txt
	failNondetermined = "nondeterministic" // simulated statistics differ between identical runs
)

// capSlack absorbs float rounding when a sum of caps is held against a
// budget.
const capSlack units.Watts = 0.01

// maxStepRounds is how many rounds a budget step may take to show in
// the leaf caps before it counts as not enforced.
const maxStepRounds = 8

// maxPrintedFailures keeps a badly broken run from flooding the output.
const maxPrintedFailures = 20

// checker counts operations attempted and violations seen.
type checker struct {
	attempted int
	failed    int
	byKind    map[string]int
	out       io.Writer
}

func newChecker(out io.Writer) *checker {
	return &checker{byKind: map[string]int{}, out: out}
}

// fail counts one violation of the given kind at operation id.
func (c *checker) fail(kind string, id int, format string, args ...any) {
	c.failed++
	c.byKind[kind]++
	if c.failed <= maxPrintedFailures {
		fmt.Fprintf(c.out, "violation %s at op %d: %s\n", kind, id, fmt.Sprintf(format, args...))
	}
}

// err counts a layer's returned error, if any.
func (c *checker) err(id int, what string, err error) {
	if err != nil {
		c.fail(failError, id, "%s: %v", what, err)
	}
}

// caps holds a sum of enforced leaf caps against the committed budget.
func (c *checker) caps(id int, sum, budget units.Watts) {
	if sum > budget+capSlack {
		c.fail(failOvercommit, id, "leaf caps sum to %.3f W over a %.3f W budget", float64(sum), float64(budget))
	}
}

// conservation checks the ledger's identity to the microjoule.
func (c *checker) conservation(id int, s ledger.Summary) {
	var apps uint64
	for _, a := range s.Apps {
		apps += a.TotalUJ
	}
	if got := apps + s.UnattributedUJ + s.ExcludedUJ; got != s.TotalUJ {
		c.fail(failLedger, id, "apps %d + unattributed %d + excluded %d = %d µJ, total %d µJ",
			apps, s.UnattributedUJ, s.ExcludedUJ, got, s.TotalUJ)
	}
}

// figures holds figure output against the commit's reference, byte for
// byte.
func (c *checker) figures(id int, what string, got, want []byte) {
	if !bytes.Equal(got, want) {
		c.fail(failFigures, id, "%s differs from results/all_figures.txt (%d bytes against %d)", what, len(got), len(want))
	}
}

// same holds one pass's exact counts and simulated statistics against
// another's over the same inputs; what names the pair.
func (c *checker) same(what string, a, b map[string]float64) {
	for k, va := range a {
		if vb, ok := b[k]; !ok || va != vb {
			c.fail(failNondetermined, 0, "%s: %s is %v in one and %v in the other", what, k, va, vb)
		}
	}
}
