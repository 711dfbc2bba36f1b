// Package bench produces and compares the repo's machine-readable
// performance trajectory: versioned BENCH_*.json files recording the
// coordinator-tick and control-loop microbenchmarks across node and core
// counts, with a span-phase breakdown per configuration. cmd/benchjson
// regenerates the files; the comparator gates CI on regressions against
// the committed baselines.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// Schema identifies the file layout. Bump on any incompatible change;
// the comparator refuses to compare across schemas.
const Schema = "padbench/v1"

// Entry is one benchmark configuration's result.
type Entry struct {
	// Name uniquely identifies the benchmark+configuration, e.g.
	// "coordinator_tick/nodes=16". The comparator joins files on it.
	Name string `json:"name"`
	// Config are the knobs this entry ran under (nodes, cores, ...).
	Config map[string]int `json:"config,omitempty"`
	// NsPerOp is the benchmark's wall time per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp are the allocator footprint per
	// operation. Unlike wall time they are near machine-independent, so
	// the comparator holds them to the threshold without calibration.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// Phases breaks one operation into mean span-phase nanoseconds —
	// report/plan/grant for the coordinator tick, sample/decide/actuate
	// for the control loop — matching the round-trace span names.
	Phases map[string]float64 `json:"phases_ns,omitempty"`
}

// File is one benchmark trajectory file (BENCH_coordinator.json,
// BENCH_loop.json).
type File struct {
	Schema    string `json:"schema"`
	Name      string `json:"name"`
	GitRev    string `json:"git_rev"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GOMAXPROCS is the scheduler width the run executed under; with
	// NumCPU it describes the machine shape, which the comparator uses
	// to warn when baseline and candidate ran on wildly different
	// hardware (a calibration hazard, not a failure).
	GOMAXPROCS int     `json:"gomaxprocs,omitempty"`
	Smoke      bool    `json:"smoke,omitempty"`
	Entries    []Entry `json:"entries"`
}

// NewFile stamps an empty trajectory file with the environment.
func NewFile(name string, smoke bool) *File {
	return &File{
		Schema:     Schema,
		Name:       name,
		GitRev:     GitRev(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Smoke:      smoke,
	}
}

// Write emits the file as indented JSON with entries sorted by name, so
// regeneration produces stable diffs.
func (f *File) Write(w io.Writer) error {
	sort.Slice(f.Entries, func(i, j int) bool { return f.Entries[i].Name < f.Entries[j].Name })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// WriteFile writes the trajectory to path.
func (f *File) WriteFile(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.Write(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// Read parses a trajectory file and checks its schema.
func Read(r io.Reader) (*File, error) {
	var f File
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("bench: schema %q, this tool speaks %q", f.Schema, Schema)
	}
	return &f, nil
}

// ReadFile parses the trajectory at path.
func ReadFile(path string) (*File, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	f, err := Read(in)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// GitRev identifies the source revision: CI's GITHUB_SHA, else git
// itself, else the binary's embedded VCS stamp, else "unknown". A
// baseline is regenerated before the commit that carries it exists, so
// what git can name then is the parent: the "-dirty" suffix says the
// measured tree is that revision plus uncommitted changes, instead of
// passing it off as the revision itself.
func GitRev() string {
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		return sha
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		if rev := strings.TrimSpace(string(out)); rev != "" {
			st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
			if err == nil && len(st) > 0 {
				rev += "-dirty"
			}
			return rev
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	return "unknown"
}
