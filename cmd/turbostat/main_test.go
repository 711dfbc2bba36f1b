package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the turbostat golden files under testdata")

// The simulated runs are in virtual time and deterministic, so their
// blocks are pinned byte for byte: RAPL-capped Skylake, which has no
// per-core power, and uncapped Ryzen, which has.
func TestGoldenSimulated(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"skylake-limit50.golden", []string{"-apps", "gcc:0,cam4:1", "-limit", "50"}},
		{"ryzen-uncapped.golden", []string{"-platform", "ryzen", "-duration", "3s"}},
	} {
		var out, errs bytes.Buffer
		if err := run(c.args, &out, &errs); err != nil {
			t.Fatalf("turbostat %s: %v\n%s", strings.Join(c.args, " "), err, errs.Bytes())
		}
		path := filepath.Join("testdata", c.golden)
		if *update {
			if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s differs (rerun with -update to see the new output in git diff)\ngot:\n%s", c.golden, out.Bytes())
		}
	}
}

// A cap on a chip without a hardware limiter is refused before anything
// runs.
func TestRefusesLimitWithoutLimiter(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-platform", "ryzen", "-limit", "50"}, &out, &out); err == nil {
		t.Fatalf("ryzen -limit 50 ran:\n%s", out.Bytes())
	}
}
