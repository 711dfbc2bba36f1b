package tracing

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Now() != 0 {
		t.Fatalf("nil tracer leaked state")
	}
	b := tr.Begin(7)
	b.Span("report", "n1", 0, 1, nil)
	b.SetInterval(3)
	b.End() // must not panic
	if l := tr.Log(); l.Origin != "" || l.Total != 0 || l.Rounds != nil {
		t.Fatalf("nil tracer Log = %+v", l)
	}
}

func TestRingEvictsOldest(t *testing.T) {
	tr := New("coord", 4)
	for id := uint64(1); id <= 10; id++ {
		tr.Add(Round{ID: id})
	}
	rounds := tr.Log().Rounds
	if len(rounds) != 4 {
		t.Fatalf("kept %d rounds, want 4", len(rounds))
	}
	for i, r := range rounds {
		if want := uint64(7 + i); r.ID != want {
			t.Fatalf("rounds[%d].ID = %d, want %d (oldest-first)", i, r.ID, want)
		}
		if r.Origin != "coord" {
			t.Fatalf("rounds[%d].Origin = %q, want coord", i, r.Origin)
		}
	}
	if l := tr.Log(); l.Total != 10 {
		t.Fatalf("Total = %d, want 10", l.Total)
	}
}

func TestBuilderConcurrentSpans(t *testing.T) {
	tr := New("coord", 8)
	b := tr.Begin(1)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := b.Now()
			b.Span("report", "n", s, b.Now(), errors.New("boom"))
		}()
	}
	wg.Wait()
	b.End()
	rounds := tr.Log().Rounds
	if len(rounds) != 1 || len(rounds[0].Spans) != 16 {
		t.Fatalf("got %d rounds / %d spans, want 1/16", len(rounds), len(rounds[0].Spans))
	}
	for _, s := range rounds[0].Spans {
		if s.Err != "boom" {
			t.Fatalf("span err = %q", s.Err)
		}
	}
	if rounds[0].End < rounds[0].Start {
		t.Fatalf("round ends before it starts: %+v", rounds[0])
	}
}

func TestLogRoundTrip(t *testing.T) {
	tr := New("n3", 4)
	b := tr.Begin(42)
	b.SetInterval(9)
	b.Span("receive", "", 10, 20, nil)
	b.Span("sample", "", 11, 13, nil)
	b.End()

	var buf bytes.Buffer
	if err := tr.Log().Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Origin != "n3" || got.Total != 1 || len(got.Rounds) != 1 {
		t.Fatalf("round-tripped log = %+v", got)
	}
	r := got.Rounds[0]
	if r.ID != 42 || r.Interval != 9 || len(r.Spans) != 2 {
		t.Fatalf("round-tripped round = %+v", r)
	}
	if s := r.Find("sample", ""); s == nil || s.Latency() != 2 {
		t.Fatalf("Find(sample) = %+v", s)
	}
}

// TestStragglerIn states the rule: the healthy report that finished
// last is the straggler when it finished at least StragglerFloor after
// every other healthy report. A failed report is no candidate and sets
// no bar, so Merge, which applies the rule to report spans, must agree
// with StragglerIn over the healthy finishes.
func TestStragglerIn(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	type report struct {
		end    time.Duration
		failed bool
	}
	cases := []struct {
		name    string
		reports []report
		want    int
	}{
		{"uniform", []report{{end: ms(1)}, {end: ms(1)}, {end: ms(1)}, {end: ms(1)}}, -1},
		{"one late", []report{{end: ms(1)}, {end: ms(50)}, {end: ms(1)}, {end: ms(2)}}, 1},
		{"lead under floor", []report{{end: ms(40)}, {end: ms(44)}, {end: ms(10)}, {end: ms(12)}}, -1},
		{"lead at floor", []report{{end: ms(40)}, {end: ms(45)}, {end: ms(10)}}, 1},
		{"tie at the top", []report{{end: ms(60)}, {end: ms(1)}, {end: ms(60)}}, -1},
		{"a failed report is no bar", []report{{end: ms(1)}, {end: ms(30)}, {end: ms(90), failed: true}, {end: ms(2)}}, 1},
		{"a failed report is no candidate", []report{{end: ms(1)}, {end: ms(90), failed: true}, {end: ms(2)}}, -1},
		{"single report", []report{{end: ms(100)}}, -1},
	}
	for _, c := range cases {
		var finishes []time.Duration
		var at []int
		cr := Round{ID: 1, End: ms(100)}
		for i, r := range c.reports {
			s := Span{Name: "report", Node: fmt.Sprintf("n%d", i), End: r.end}
			if r.failed {
				s.Err = "timeout"
			} else {
				finishes = append(finishes, r.end)
				at = append(at, i)
			}
			cr.Spans = append(cr.Spans, s)
		}
		got := StragglerIn(finishes)
		if got >= 0 {
			got = at[got]
		}
		if got != c.want {
			t.Errorf("%s: StragglerIn = %d, want %d", c.name, got, c.want)
		}
		want := ""
		if c.want >= 0 {
			want = fmt.Sprintf("n%d", c.want)
		}
		if mr := Merge(Log{Rounds: []Round{cr}}, nil).Rounds[0]; mr.Straggler != want {
			t.Errorf("%s: Merge flagged %q, want %q", c.name, mr.Straggler, want)
		}
	}
}

func TestStragglerInAllocatesNothing(t *testing.T) {
	finishes := []time.Duration{time.Millisecond, 40 * time.Millisecond, 2 * time.Millisecond}
	if n := testing.AllocsPerRun(100, func() { StragglerIn(finishes) }); n != 0 {
		t.Fatalf("StragglerIn allocates %v times a call, want 0", n)
	}
}

// TestCriticalPath walks hand-built rounds. In every case the path's
// segments are contiguous from Start to End, so they sum to Latency()
// exactly, and the spans on it are the ones each round waited on.
func TestCriticalPath(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	sp := func(name, node string, start, end int) Span {
		return Span{Name: name, Node: node, Start: ms(start), End: ms(end)}
	}
	cases := []struct {
		name  string
		round Round
		want  []string // "name node start-end" per segment, in time order
	}{
		{"no spans", Round{Start: ms(3), End: ms(10)}, []string{"self  3-10"}},
		{"empty round", Round{Start: ms(3), End: ms(3)}, nil},
		{"concurrent wave", Round{Start: 0, End: ms(12), Spans: []Span{
			sp("report", "a", 1, 5), sp("report", "b", 1, 9), sp("report", "c", 2, 7),
		}}, []string{"self  0-1", "report b 1-9", "self  9-12"}},
		{"serial wave", Round{Start: 0, End: ms(10), Spans: []Span{
			sp("grant", "a", 3, 5), sp("grant", "b", 5, 6), sp("grant", "c", 6, 9),
		}}, []string{"self  0-3", "grant a 3-5", "grant b 5-6", "grant c 6-9", "self  9-10"}},
		{"mixed waves", Round{Start: 0, End: ms(20), Spans: []Span{
			sp("report", "a", 0, 4), sp("report", "b", 0, 6), sp("report", "c", 1, 5),
			sp("plan", "", 7, 8),
			sp("grant", "a", 8, 11), sp("grant", "c", 8, 12), // the shrink wave
			sp("grant", "b", 12, 15), // a grow after it
		}}, []string{"report b 0-6", "self  6-7", "plan  7-8", "grant c 8-12", "grant b 12-15", "self  15-20"}},
		{"tie goes to the earliest start", Round{Start: 0, End: ms(10), Spans: []Span{
			sp("report", "a", 2, 8), sp("report", "b", 1, 8),
		}}, []string{"self  0-1", "report b 1-8", "self  8-10"}},
		{"then to the node name", Round{Start: 0, End: ms(10), Spans: []Span{
			sp("report", "b", 1, 8), sp("report", "a", 1, 8),
		}}, []string{"self  0-1", "report a 1-8", "self  8-10"}},
		{"a span that waited past the cursor is not on the path", Round{Start: 0, End: ms(10), Spans: []Span{
			sp("report", "a", 0, 6), sp("grant", "b", 4, 9),
		}}, []string{"self  0-4", "grant b 4-9", "self  9-10"}},
		{"zero-length span", Round{Start: 0, End: ms(10), Spans: []Span{
			sp("report", "a", 2, 5), sp("plan", "", 7, 7), sp("grant", "a", 7, 7),
		}}, []string{"self  0-2", "report a 2-5", "self  5-7", "plan  7-7", "self  7-10"}},
		{"zero-length span at the end", Round{Start: 0, End: ms(10), Spans: []Span{
			sp("report", "a", 2, 5), sp("plan", "", 10, 10),
		}}, []string{"self  0-2", "report a 2-5", "self  5-10"}},
		{"failed span", Round{Start: 0, End: ms(30), Spans: []Span{
			sp("report", "a", 0, 2), {Name: "report", Node: "b", End: ms(25), Err: "timeout"},
			sp("plan", "", 25, 26),
		}}, []string{"report b 0-25", "plan  25-26", "self  26-30"}},
		{"spans reaching outside the round", Round{Start: ms(5), End: ms(15), Spans: []Span{
			sp("report", "a", 0, 9), sp("grant", "a", 12, 20),
			sp("report", "early", 0, 4), sp("grant", "late", 16, 18),
		}}, []string{"report a 5-9", "self  9-12", "grant a 12-15"}},
		{"end before start", Round{Start: ms(5), End: ms(4), Spans: []Span{sp("report", "a", 4, 5)}}, nil},
	}
	for _, c := range cases {
		path := c.round.CriticalPath()
		var got []string
		cursor := c.round.Start
		var sum time.Duration
		for _, s := range path {
			got = append(got, fmt.Sprintf("%s %s %d-%d", s.Name, s.Node, s.Start/time.Millisecond, s.End/time.Millisecond))
			if s.Start != cursor || s.End < s.Start {
				t.Errorf("%s: segment %+v does not follow %v", c.name, s, cursor)
			}
			cursor = s.End
			sum += s.Latency()
		}
		if len(path) > 0 && (cursor != c.round.End || sum != c.round.Latency()) {
			t.Errorf("%s: path ends at %v and sums to %v, want %v and %v", c.name, cursor, sum, c.round.End, c.round.Latency())
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: path\n got %q\nwant %q", c.name, got, c.want)
		}
	}
	failed := Round{End: ms(30), Spans: []Span{{Name: "report", Node: "b", End: ms(25), Err: "timeout"}}}
	if p := failed.CriticalPath(); p[0].Err != "timeout" {
		t.Errorf("a failed span on the path lost its error: %+v", p[0])
	}
}

// TestLogIsOneSnapshot reads Log while another goroutine adds rounds
// 1, 2, 3, ...: in every snapshot the newest round is round Total, and
// the ring holds min(Total, capacity) rounds.
func TestLogIsOneSnapshot(t *testing.T) {
	const capacity, adds = 4, 200000
	tr := New("coord", capacity)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for id := uint64(1); id <= adds; id++ {
			tr.Add(Round{ID: id})
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		l := tr.Log()
		if uint64(len(l.Rounds)) != min(l.Total, capacity) {
			t.Fatalf("snapshot has %d rounds and a total of %d", len(l.Rounds), l.Total)
		}
		if n := len(l.Rounds); n > 0 && l.Rounds[n-1].ID != l.Total {
			t.Fatalf("snapshot's newest round is %d, its total %d", l.Rounds[n-1].ID, l.Total)
		}
	}
}

// TestMerge joins a synthetic coordinator log with node logs and
// checks round resolution, gap flagging, and straggler ranking.
func TestMerge(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	coord := Log{
		Origin: "coord",
		Rounds: []Round{
			{ID: 2, Start: ms(100), End: ms(160), Spans: []Span{
				{Name: "report", Node: "a", Start: ms(100), End: ms(101)},
				{Name: "report", Node: "b", Start: ms(100), End: ms(150)},
				{Name: "report", Node: "c", Start: ms(100), End: ms(102)},
				{Name: "plan", Start: ms(150), End: ms(151)},
				{Name: "grant", Node: "a", Start: ms(151), End: ms(152)},
			}},
			{ID: 1, Start: ms(0), End: ms(10), Spans: []Span{
				{Name: "report", Node: "a", Start: ms(0), End: ms(1)},
				{Name: "report", Node: "b", Start: ms(0), End: ms(1)},
				{Name: "report", Node: "c", Start: ms(0), End: ms(2), Err: "timeout"},
			}},
		},
	}
	nodes := []Log{
		{Origin: "a", Rounds: []Round{
			{ID: 1, Interval: 5, Spans: []Span{{Name: "receive", Start: ms(0), End: ms(1)}}},
			{ID: 2, Interval: 6, Spans: []Span{{Name: "receive", Start: ms(100), End: ms(101)}}},
			// Second record for the same round (grant handling):
			// must collapse into one record with both spans.
			{ID: 2, Spans: []Span{{Name: "apply", Start: ms(151), End: ms(152)}}},
		}},
		{Origin: "b", Rounds: []Round{
			{ID: 1, Spans: []Span{{Name: "receive", Start: ms(0), End: ms(1)}}},
			{ID: 2, Spans: []Span{{Name: "receive", Start: ms(149), End: ms(150)}}},
		}},
		// node c's dump has no rounds: every coordinator round shows a gap.
	}

	tl := Merge(coord, nodes)
	if tl.Coordinator != "coord" || len(tl.Rounds) != 2 {
		t.Fatalf("timeline = %+v", tl)
	}
	if tl.Rounds[0].ID != 1 || tl.Rounds[1].ID != 2 {
		t.Fatalf("rounds not sorted by ID: %d, %d", tl.Rounds[0].ID, tl.Rounds[1].ID)
	}

	r2 := tl.Rounds[1]
	if r2.Straggler != "b" {
		t.Fatalf("round 2 straggler = %q, want b", r2.Straggler)
	}
	if r2.Plan == nil || r2.Plan.Latency() != ms(1) {
		t.Fatalf("round 2 plan span = %+v", r2.Plan)
	}
	var a, c *NodeRound
	for i := range r2.Nodes {
		switch r2.Nodes[i].Node {
		case "a":
			a = &r2.Nodes[i]
		case "c":
			c = &r2.Nodes[i]
		}
	}
	if a == nil || a.Record == nil || a.Record.Interval != 6 || len(a.Record.Spans) != 2 {
		t.Fatalf("node a record not collapsed: %+v", a)
	}
	if a.Grant == nil || a.Grant.Latency() != ms(1) {
		t.Fatalf("node a grant = %+v", a.Grant)
	}
	if c == nil || !c.Missing || c.Record != nil {
		t.Fatalf("node c should be a gap: %+v", c)
	}
	if len(r2.Gaps) != 1 || r2.Gaps[0] != "c" {
		t.Fatalf("round 2 gaps = %v", r2.Gaps)
	}
	if tl.GapRounds != 2 {
		t.Fatalf("GapRounds = %d, want 2 (c missing in both)", tl.GapRounds)
	}

	// Round 1: b is not a straggler (uniform latencies); c's report
	// errored so it is excluded from straggler math but still a gap.
	if tl.Rounds[0].Straggler != "" {
		t.Fatalf("round 1 straggler = %q, want none", tl.Rounds[0].Straggler)
	}
	if len(tl.Stragglers) != 1 || tl.Stragglers[0].Node != "b" || tl.Stragglers[0].Rounds != 1 {
		t.Fatalf("straggler stats = %+v", tl.Stragglers)
	}
	if tl.Stragglers[0].Worst != ms(50) {
		t.Fatalf("straggler worst = %v, want 50ms", tl.Stragglers[0].Worst)
	}
}
