package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the powerd golden files under testdata")

// powerdOutput runs powerd in-process with args and returns what it
// printed.
func powerdOutput(t *testing.T, args ...string) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := powerd(args, &out); err != nil {
		t.Fatalf("powerd %s: %v", strings.Join(args, " "), err)
	}
	return out.Bytes()
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs (rerun with -update to see the new output in git diff)\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// The golden runs pin what powerd prints, byte for byte: the run is in
// virtual time and seed-deterministic, so any difference is a behaviour
// change.

func TestGoldenDefaults(t *testing.T) {
	checkGolden(t, "defaults.golden", powerdOutput(t, "-duration", "20s"))
}

func TestGoldenPriorityFlags(t *testing.T) {
	checkGolden(t, "priority.golden", powerdOutput(t,
		"-duration", "20s", "-policy", "priority", "-apps", "gcc:0:hp,cam4:1:lp"))
}

// The final table shows each app's class under both priority policies.
func TestGoldenPriorityShares(t *testing.T) {
	checkGolden(t, "priority-shares.golden", powerdOutput(t,
		"-duration", "20s", "-config", filepath.Join("testdata", "priority-shares.json")))
}

func TestGoldenSLOFeedbackWithFaults(t *testing.T) {
	checkGolden(t, "slo-faults.golden", powerdOutput(t,
		"-duration", "8s", "-config", filepath.Join("testdata", "slo-feedback.json"),
		"-faults", "at 2s for 1s eio cpu=* prob=0.5;at 4s for 1s thermal cap=1000MHz"))
}

// The flags are validated like a -config file: a run they describe badly
// is refused before anything runs.
func TestFlagsValidatedLikeConfig(t *testing.T) {
	for _, args := range [][]string{
		{"-apps", "gcc:0:0"}, // shares must be positive
		{"-policy", "priority", "-apps", "gcc:0:vip"},
		{"-policy", "magic"},
		{"-platform", "sparc"},
		{"-limit", "0"},
		{"-interval", "1500us"},
		{"-apps", "doom:0:50"},
	} {
		var out bytes.Buffer
		if err := powerd(append(args, "-duration", "1s"), &out); err == nil {
			t.Errorf("powerd %v accepted", args)
		}
		if out.Len() != 0 {
			t.Errorf("powerd %v printed %q before refusing", args, out.String())
		}
	}
}

func TestGoldenTraceCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	powerdOutput(t, "-duration", "10s", "-trace", path)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace.csv.golden", got)
}
