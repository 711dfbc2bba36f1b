package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/tracing"
)

// writeLog round-trips a log through the same files powerdump reads.
func writeLog(t *testing.T, dir, name string, l tracing.Log) string {
	t.Helper()
	var buf bytes.Buffer
	if err := l.Write(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func capture(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := f()
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	if ferr != nil {
		t.Fatalf("merged: %v (output: %s)", ferr, buf.String())
	}
	return buf.String()
}

func TestMergedViewJoinsLogs(t *testing.T) {
	coord := tracing.Log{Origin: "coord", Rounds: []tracing.Round{{
		ID: 1, Origin: "coord", Start: 0, End: 10 * time.Millisecond,
		Spans: []tracing.Span{
			{Name: "report", Node: "n0", Start: 0, End: 2 * time.Millisecond},
			{Name: "report", Node: "n1", Start: 0, End: 9 * time.Millisecond},
			{Name: "plan", Start: 9 * time.Millisecond, End: 9*time.Millisecond + 100*time.Microsecond},
		},
	}}}
	n0 := tracing.Log{Origin: "n0", Rounds: []tracing.Round{{
		ID: 1, Origin: "n0", Start: 0, End: time.Millisecond,
		Spans: []tracing.Span{{Name: "receive", Start: 0, End: time.Millisecond}},
	}}}
	// n1 recorded nothing for round 1: a partition gap.
	n1 := tracing.Log{Origin: "n1"}

	dir := t.TempDir()
	paths := []string{
		writeLog(t, dir, "coord.json", coord),
		writeLog(t, dir, "n0.json", n0),
		writeLog(t, dir, "n1.json", n1),
	}

	out := capture(t, func() error { return merged(paths, true) })
	var tl tracing.Timeline
	if err := json.Unmarshal([]byte(out), &tl); err != nil {
		t.Fatalf("-json output is not a Timeline: %v\n%s", err, out)
	}
	if tl.Coordinator != "coord" || len(tl.Rounds) != 1 {
		t.Fatalf("timeline = %+v", tl)
	}
	r := tl.Rounds[0]
	if r.ID != 1 || len(r.Nodes) != 2 {
		t.Fatalf("round = %+v", r)
	}
	byNode := map[string]tracing.NodeRound{}
	for _, n := range r.Nodes {
		byNode[n.Node] = n
	}
	if n := byNode["n0"]; n.Record == nil || n.Missing {
		t.Errorf("n0 should have a node-side record: %+v", n)
	}
	if n := byNode["n1"]; !n.Missing {
		t.Errorf("n1 should be a partition gap: %+v", n)
	}
	if tl.GapRounds != 1 {
		t.Errorf("GapRounds = %d, want 1", tl.GapRounds)
	}
	// The round waited on n1's report, then planned, then itself: the
	// path sums to the round's 10 ms, and n0's report ended 7 ms before
	// n1's, the report segment on it.
	var sum time.Duration
	for _, s := range r.Path {
		sum += s.Latency()
	}
	if len(r.Path) != 3 || r.Path[0].Node != "n1" || r.Path[1].Name != "plan" || r.Path[2].Name != "self" || sum != 10*time.Millisecond {
		t.Errorf("path = %+v, sums to %v", r.Path, sum)
	}
	if s0, s1 := byNode["n0"].Slack, byNode["n1"].Slack; s0 != 7*time.Millisecond || s1 != 0 {
		t.Errorf("slack n0 %v n1 %v, want 7ms and 0", s0, s1)
	}

	// The text rendering names the gap, the path and the slack too.
	txt := capture(t, func() error { return merged(paths, false) })
	for _, want := range []string{"round 1", "n0", "MISSING", "plan", "path  report n1 9.00ms > plan 0.10ms > self 0.90ms", "slack 7.00ms"} {
		if !bytes.Contains([]byte(txt), []byte(want)) {
			t.Errorf("text output missing %q:\n%s", want, txt)
		}
	}
}

// TestMergedViewCrossTier feeds merged a stacked-tier set of logs: the
// building root's rounds, a row tier whose log holds both its agent
// records (under the root's round IDs) and its own coordination rounds,
// and a leaf coordinated by the row. The row must appear twice — as a
// node of the root round and as a sub-timeline owning the leaf.
func TestMergedViewCrossTier(t *testing.T) {
	const (
		rootRound = 1<<32 | 7 // distinct round-ID namespaces per tier
		rowRound  = 2<<32 | 3
	)
	root := tracing.Log{Origin: "building", Rounds: []tracing.Round{{
		ID: rootRound, Origin: "building", Start: 0, End: 10 * time.Millisecond,
		Spans: []tracing.Span{
			{Name: "report", Node: "row0", Start: 0, End: 2 * time.Millisecond},
			{Name: "plan", Start: 2 * time.Millisecond, End: 3 * time.Millisecond},
		},
	}}}
	row := tracing.Log{Origin: "row0", Rounds: []tracing.Round{
		{ // agent side: the root's round, seen from below
			ID: rootRound, Origin: "row0", Start: 0, End: time.Millisecond,
			Spans: []tracing.Span{{Name: "receive", Start: 0, End: time.Millisecond}},
		},
		{ // coordinator side: the row's own round over its leaves
			ID: rowRound, Origin: "row0", Start: 3 * time.Millisecond, End: 8 * time.Millisecond,
			Spans: []tracing.Span{
				{Name: "report", Node: "leaf0", Start: 3 * time.Millisecond, End: 4 * time.Millisecond},
				{Name: "plan", Start: 4 * time.Millisecond, End: 5 * time.Millisecond},
			},
		},
	}}
	leaf := tracing.Log{Origin: "leaf0", Rounds: []tracing.Round{{
		ID: rowRound, Origin: "leaf0", Start: 3 * time.Millisecond, End: 4 * time.Millisecond,
		Spans: []tracing.Span{{Name: "receive", Start: 3 * time.Millisecond, End: 4 * time.Millisecond}},
	}}}

	dir := t.TempDir()
	paths := []string{
		writeLog(t, dir, "root.json", root),
		writeLog(t, dir, "row0.json", row),
		writeLog(t, dir, "leaf0.json", leaf),
	}

	out := capture(t, func() error { return merged(paths, true) })
	var tl tracing.Timeline
	if err := json.Unmarshal([]byte(out), &tl); err != nil {
		t.Fatalf("-json output is not a Timeline: %v\n%s", err, out)
	}
	if tl.Coordinator != "building" || len(tl.Rounds) != 1 {
		t.Fatalf("root timeline = %+v", tl)
	}
	if r := tl.Rounds[0]; r.ID != rootRound || len(r.Nodes) != 1 ||
		r.Nodes[0].Node != "row0" || r.Nodes[0].Record == nil {
		t.Fatalf("root round should join row0's agent record: %+v", tl.Rounds[0])
	}
	if len(tl.Tiers) != 1 {
		t.Fatalf("want one sub-tier timeline, got %+v", tl.Tiers)
	}
	sub := tl.Tiers[0]
	if sub.Coordinator != "row0" || len(sub.Rounds) != 1 {
		t.Fatalf("sub-tier = %+v", sub)
	}
	if r := sub.Rounds[0]; r.ID != rowRound || len(r.Nodes) != 1 ||
		r.Nodes[0].Node != "leaf0" || r.Nodes[0].Record == nil {
		t.Fatalf("row round should join leaf0's record: %+v", sub.Rounds[0])
	}

	txt := capture(t, func() error { return merged(paths, false) })
	for _, want := range []string{`coordinator "building"`, `tier "row0"`, "leaf0"} {
		if !bytes.Contains([]byte(txt), []byte(want)) {
			t.Errorf("text output missing %q:\n%s", want, txt)
		}
	}
}
