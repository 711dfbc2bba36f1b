package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/trace"
)

// pick returns the named generators in declaration order.
func pick(t *testing.T, names ...string) []gen {
	t.Helper()
	var out []gen
	for _, g := range gens {
		for _, n := range names {
			if g.name == n {
				out = append(out, g)
			}
		}
	}
	if len(out) != len(names) {
		t.Fatalf("picked %d of %v", len(out), names)
	}
	return out
}

// The fan-out prints what the serial pass prints: two cheap figures, the
// first made to finish last.
func TestGenerateOrdersOutput(t *testing.T) {
	render := func(gens []gen, workers int) (string, string) {
		var out, progress bytes.Buffer
		if err := generate(gens, workers, &progress, emitTo(&out, false)); err != nil {
			t.Fatal(err)
		}
		return out.String(), progress.String()
	}
	serial, serialProgress := render(pick(t, "1", "6"), 1)

	fanned := pick(t, "1", "6")
	sixDone := make(chan struct{})
	one, six := fanned[0].fn, fanned[1].fn
	fanned[0].fn = func() (tabler, error) { <-sixDone; return one() }
	fanned[1].fn = func() (tabler, error) { defer close(sixDone); return six() }
	got, progress := render(fanned, 2)

	if got != serial {
		t.Errorf("two workers printed\n%s\none worker printed\n%s", got, serial)
	}
	if want := "regenerating figure 1...\nregenerating figure 6...\n"; progress != want || serialProgress != want {
		t.Errorf("progress lines %q and %q, want %q", progress, serialProgress, want)
	}
	if !strings.Contains(got, "Figure 1") || !strings.Contains(got, "Figure 6") {
		t.Errorf("output names neither figure:\n%s", got)
	}
}

// -tracedir writes one CSV per daemon-driven run — here the interval
// ablation's three control intervals — and leaves stdout as it was.
func TestTraceDirWritesEveryDaemonRun(t *testing.T) {
	var plain, traced bytes.Buffer
	if err := run("interval", false, 1, &plain, io.Discard); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	experiments.SetTraceDir(dir)
	defer experiments.SetTraceDir("")
	if err := run("interval", false, 1, &traced, io.Discard); err != nil {
		t.Fatal(err)
	}
	if traced.String() != plain.String() {
		t.Errorf("stdout with -tracedir:\n%s\nwithout:\n%s", traced.String(), plain.String())
	}
	files, err := filepath.Glob(filepath.Join(dir, "run-*-frequency-shares.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("trace files %v, want one per control interval (3)", files)
	}
	// 60 s at 1 s, 250 ms and 100 ms: a header plus one row an interval.
	for i, want := range []int{60, 240, 600} {
		data, err := os.ReadFile(files[i])
		if err != nil {
			t.Fatal(err)
		}
		if rows := strings.Count(string(data), "\n") - 1; rows != want {
			t.Errorf("%s: %d rows, want %d", files[i], rows, want)
		}
	}
}

type noTables struct{}

func (noTables) Tables() []trace.Table { return nil }

// The error reported is the first in declaration order, whichever failed
// first on the clock, and nothing after it is emitted.
func TestGenerateFirstErrorWins(t *testing.T) {
	errB, errC := errors.New("b failed"), errors.New("c failed")
	cFailed := make(chan struct{})
	gens := []gen{
		{"a", func() (tabler, error) { return noTables{}, nil }},
		{"b", func() (tabler, error) { <-cFailed; return nil, errB }},
		{"c", func() (tabler, error) { defer close(cFailed); return nil, errC }},
		{"d", func() (tabler, error) { return noTables{}, nil }},
	}
	emitted := 0
	var progress bytes.Buffer
	err := generate(gens, 3, &progress, func([]trace.Table) error { emitted++; return nil })
	if !errors.Is(err, errB) || !strings.Contains(err.Error(), "figure b") {
		t.Errorf("error %v, want figure b's", err)
	}
	if emitted != 1 {
		t.Errorf("%d figures emitted, want only a", emitted)
	}
	if want := "regenerating figure a...\nregenerating figure b...\n"; progress.String() != want {
		t.Errorf("progress lines %q, want %q", progress.String(), want)
	}
}
