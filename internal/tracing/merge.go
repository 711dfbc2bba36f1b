package tracing

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"time"
)

// StragglerFloor is how long after every other healthy report the
// round's last healthy report must finish to be flagged the straggler:
// the report segment of the round's critical path, by a lead that
// ordinary scheduling noise does not reach.
const StragglerFloor = 5 * time.Millisecond

// NodeRound is one node's slice of a merged round: the coordinator's
// view of its RPCs plus, when the node's dump covers the round, the
// node-side span tree joined by round ID.
type NodeRound struct {
	Node string `json:"node"`
	// Report and Grant are the coordinator-side RPC spans for this node.
	Report *Span `json:"report,omitempty"`
	Grant  *Span `json:"grant,omitempty"`
	// Record is the node's own round record (receive/sample/decide/
	// actuate spans, flight-recorder interval link); nil when the node
	// dump has no record for the round — a partition-induced gap.
	Record *Round `json:"record,omitempty"`
	// Missing marks nodes the coordinator contacted but whose dump has
	// no matching round record.
	Missing bool `json:"missing,omitempty"`
	// Straggler marks the node flagged as this round's straggler.
	Straggler bool `json:"straggler,omitempty"`
	// Slack is how long before its wave's segment of the round's path
	// ended this node's report had ended; zero on the path itself.
	Slack time.Duration `json:"slack_ns,omitempty"`
}

// MergedRound is one coordinator round joined with every node that
// participated in it.
type MergedRound struct {
	ID    uint64        `json:"id"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Plan is the coordinator's local planning span, if recorded.
	Plan  *Span       `json:"plan,omitempty"`
	Nodes []NodeRound `json:"nodes"`
	// Path is the coordinator round's critical path (Round.CriticalPath):
	// the spans the round waited on and its self time, summing to End-Start.
	Path []Span `json:"path,omitempty"`
	// Straggler names the node whose report finished last, at least
	// StragglerFloor after every other healthy report (StragglerIn).
	Straggler string `json:"straggler,omitempty"`
	// Gaps lists nodes with no node-side record for this round.
	Gaps []string `json:"gaps,omitempty"`
}

// StragglerStat aggregates one node's straggler behaviour across the
// merged window.
type StragglerStat struct {
	Node string `json:"node"`
	// Rounds is how many rounds flagged this node.
	Rounds int `json:"rounds"`
	// Worst is the node's worst report RPC latency in a flagged round.
	Worst time.Duration `json:"worst_ns"`
}

// Timeline is the cross-node merged view: every coordinator round
// resolved to per-node spans by round ID.
type Timeline struct {
	Coordinator string        `json:"coordinator"`
	Rounds      []MergedRound `json:"rounds"`
	// Stragglers ranks nodes by how often they were the round
	// straggler, worst first (top-K is the caller's slice to take).
	Stragglers []StragglerStat `json:"stragglers,omitempty"`
	// GapRounds counts rounds with at least one partition-induced gap.
	GapRounds int `json:"gap_rounds,omitempty"`
	// Tiers holds the merged timelines of mid-tier coordinators found
	// among the node logs (see MergeTree) — absent for flat rooms.
	Tiers []Timeline `json:"tiers,omitempty"`
}

// StragglerIn is the straggler rule Merge and the fleet rollup share.
// Given one round's healthy report finish times, on any one clock, it
// returns the index of the last if it finished at least StragglerFloor
// after every other (so a tie at the top flags none), and -1 otherwise.
func StragglerIn(finishes []time.Duration) int {
	if len(finishes) < 2 {
		return -1
	}
	at := 0
	for i, f := range finishes {
		if f > finishes[at] {
			at = i
		}
	}
	for i, f := range finishes {
		if i != at && finishes[at]-f < StragglerFloor {
			return -1
		}
	}
	return at
}

// CriticalPath decomposes the round's wall time into what it waited on,
// walking back from End. Each step takes the span, clipped to [Start,
// End], that finished last at or before the cursor among those starting
// before it (ties: earliest start, then node name); the gap after it is
// self time, and the cursor moves to its start. What is left back to
// Start is self time too. The segments, in time order, are contiguous
// and sum to Latency() exactly, whether the waves are concurrent or serial.
func (r Round) CriticalPath() []Span {
	if r.End < r.Start {
		return nil
	}
	spans := make([]Span, 0, len(r.Spans))
	for _, s := range r.Spans {
		s.Start, s.End = max(s.Start, r.Start), min(s.End, r.End)
		if s.Start <= s.End {
			spans = append(spans, s)
		}
	}
	slices.SortStableFunc(spans, func(a, b Span) int {
		return cmp.Or(cmp.Compare(b.End, a.End), cmp.Compare(a.Start, b.Start), strings.Compare(a.Node, b.Node))
	})
	var path []Span
	cursor := r.End
	for _, s := range spans {
		if s.End > cursor || s.Start >= cursor {
			continue
		}
		if s.End < cursor {
			path = append(path, Span{Name: "self", Start: s.End, End: cursor})
		}
		path = append(path, s)
		cursor = s.Start
	}
	if cursor > r.Start {
		path = append(path, Span{Name: "self", Start: r.Start, End: cursor})
	}
	slices.Reverse(path)
	return path
}

// IsCoordinator reports whether a log contains coordinator-side rounds
// — rounds with per-node report spans. This is how MergeTree tells a
// mid-tier coordinator's log from a leaf node's: a tier records both
// its agent's node-side rounds (under its parent's round IDs) and its
// own coordination rounds (under its own namespace) into one tracer.
func (l Log) IsCoordinator() bool {
	for _, r := range l.Rounds {
		if roundCoordinates(r) {
			return true
		}
	}
	return false
}

// roundCoordinates reports whether a round is coordinator-side: it
// carries per-node report spans or a planning span, rather than the
// receive/apply spans a node records about its own uplink traffic.
func roundCoordinates(r Round) bool {
	for _, s := range r.Spans {
		if (s.Name == "report" && s.Node != "") || s.Name == "plan" {
			return true
		}
	}
	return false
}

// MergeTree joins the logs of a whole coordination tree into one
// cross-tier timeline: the root's merged rounds at the top and, under
// Tiers, one merged timeline per mid-tier coordinator log found among
// the node logs, each joined against every remaining log. Round-ID
// namespaces (cluster.Config.RoundBase) keep the tiers' rounds
// disjoint, so a leaf's records join only the tier that actually
// coordinated it. Tiers are listed flat — the logs alone do not record
// parentage — and a flat room (no coordinator logs among the nodes)
// yields a Timeline identical to Merge's.
func MergeTree(coord Log, rest []Log) Timeline {
	tl := Merge(coord, rest)
	for i, l := range rest {
		if !l.IsCoordinator() {
			continue
		}
		// Only the log's coordinator-side rounds belong in its
		// sub-timeline; its agent-side rounds (receive/grant under the
		// parent's round IDs) already joined the parent's rounds above.
		sub := Log{Origin: l.Origin}
		for _, r := range l.Rounds {
			if roundCoordinates(r) {
				sub.Rounds = append(sub.Rounds, r)
			}
		}
		others := make([]Log, 0, len(rest)-1)
		others = append(others, rest[:i]...)
		others = append(others, rest[i+1:]...)
		if stl := Merge(sub, others); len(stl.Rounds) > 0 {
			tl.Tiers = append(tl.Tiers, stl)
		}
	}
	return tl
}

// Merge joins a coordinator log with node logs by round ID, flagging
// stragglers and partition-induced gaps. Node logs are matched to
// coordinator RPC spans by their Origin.
func Merge(coord Log, nodes []Log) Timeline {
	// Index node-side rounds: origin -> round ID -> merged record.
	// A node may record several rounds with the same ID (a status
	// report and a grant both arrive within one coordinator round);
	// collapse them into one record with the union of spans.
	byNode := make(map[string]map[uint64]*Round, len(nodes))
	for _, nl := range nodes {
		m := byNode[nl.Origin]
		if m == nil {
			m = make(map[uint64]*Round)
			byNode[nl.Origin] = m
		}
		for _, r := range nl.Rounds {
			if r.ID == 0 {
				continue
			}
			if have, ok := m[r.ID]; ok {
				have.Spans = append(have.Spans, r.Spans...)
				if r.Start < have.Start {
					have.Start = r.Start
				}
				if r.End > have.End {
					have.End = r.End
				}
				if r.Interval != 0 {
					have.Interval = r.Interval
				}
			} else {
				cp := r
				cp.Spans = append([]Span(nil), r.Spans...)
				m[r.ID] = &cp
			}
		}
	}

	tl := Timeline{Coordinator: coord.Origin}
	stats := make(map[string]*StragglerStat)
	for _, cr := range coord.Rounds {
		mr := MergedRound{ID: cr.ID, Start: cr.Start, End: cr.End, Path: cr.CriticalPath()}
		if p := cr.Find("plan", ""); p != nil {
			cp := *p
			mr.Plan = &cp
		}
		// One NodeRound per node the coordinator talked to, in the
		// order its report spans were recorded.
		var finishes []time.Duration
		var finIdx []int
		for i := range cr.Spans {
			s := cr.Spans[i]
			if s.Name != "report" || s.Node == "" {
				continue
			}
			nr := NodeRound{Node: s.Node}
			sp := s
			nr.Report = &sp
			for _, p := range mr.Path {
				if p.Name == "report" && p.End >= s.End {
					nr.Slack = p.End - s.End
					break
				}
			}
			if g := cr.Find("grant", s.Node); g != nil {
				gp := *g
				nr.Grant = &gp
			}
			if rec, ok := byNode[s.Node][cr.ID]; ok {
				nr.Record = rec
			} else {
				nr.Missing = true
				mr.Gaps = append(mr.Gaps, s.Node)
			}
			if s.Err == "" {
				finishes = append(finishes, s.End)
				finIdx = append(finIdx, len(mr.Nodes))
			}
			mr.Nodes = append(mr.Nodes, nr)
		}
		if at := StragglerIn(finishes); at >= 0 {
			n := &mr.Nodes[finIdx[at]]
			n.Straggler = true
			mr.Straggler = n.Node
			st := stats[n.Node]
			if st == nil {
				st = &StragglerStat{Node: n.Node}
				stats[n.Node] = st
			}
			st.Rounds++
			if l := n.Report.Latency(); l > st.Worst {
				st.Worst = l
			}
		}
		if len(mr.Gaps) > 0 {
			tl.GapRounds++
		}
		tl.Rounds = append(tl.Rounds, mr)
	}
	sort.Slice(tl.Rounds, func(i, j int) bool { return tl.Rounds[i].ID < tl.Rounds[j].ID })
	for _, st := range stats {
		tl.Stragglers = append(tl.Stragglers, *st)
	}
	sort.Slice(tl.Stragglers, func(i, j int) bool {
		a, b := tl.Stragglers[i], tl.Stragglers[j]
		if a.Rounds != b.Rounds {
			return a.Rounds > b.Rounds
		}
		if a.Worst != b.Worst {
			return a.Worst > b.Worst
		}
		return a.Node < b.Node
	})
	return tl
}
