package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// layer names the boundary a span was recorded at. The call structure
// of every workload is fixed, so a span's parent is a property of its
// layer: parentOf gives it.
type layer uint8

const (
	lyInterval     layer = iota // daemon.RunIteration (root)
	lyStepBlock                 // the Machine.Steps of one control interval (root)
	lyRound                     // Coordinator.Step / SimTree.Step (root)
	lyBudget                    // SetBudget on the top coordinator (root)
	lyRowsPhase                 // SimTree.StepRows
	lyRootPhase                 // SimTree.StepRoot
	lySvcTick                   // svc.Model.Advance, bracketed by OnTick hooks
	lySvcTelemetry              // daemon.SLOSource.FillServiceSLO
	lyMSRRead                   // msr.Device.Read / ReadBatch
	lyDecide                    // core.Policy.Update
	lyActuate                   // daemon.Actuator.SetFreq / Park
	lyReport                    // cluster.Transport.Report
	lyGrant                     // cluster.Transport.Grant
	lyHTTP                      // http.RoundTripper.RoundTrip on the HTTPNode client
	lyHandler                   // the agent's http.Handler
	nLayers
)

var layerNames = [nLayers]string{
	"daemon.interval", "sim.step_block", "cluster.round", "cluster.set_budget",
	"hierarchy.rows_phase", "hierarchy.root_phase", "svc.tick", "svc.telemetry",
	"msr.read", "core.decide", "daemon.actuate", "cluster.report", "cluster.grant",
	"http.round_trip", "powerapi.agent_handle",
}

// parentOf is the layer whose span encloses a span of layer l. Report
// and grant spans name the round although a budget step or a tree
// phase may be what encloses them; the id and the times settle which.
var parentOf = [nLayers]string{
	lySvcTick: "sim.step_block", lySvcTelemetry: "daemon.interval",
	lyMSRRead: "daemon.interval", lyDecide: "daemon.interval", lyActuate: "daemon.interval",
	lyRowsPhase: "cluster.round", lyRootPhase: "cluster.round",
	lyReport: "cluster.round", lyGrant: "cluster.round",
	lyHTTP: "cluster.report", lyHandler: "http.round_trip",
}

// span is one timed call into a layer. Start and End are nanoseconds
// since the tracer's epoch; Op is the interval or round it belongs to.
type span struct {
	Layer      layer
	Node       int32
	Op         int32
	Start, End int64
}

// maxLoggedSpans caps what the trace file keeps; totals fold every span.
const maxLoggedSpans = 100_000

// tracer collects the spans of one operation at a time in a fixed
// scratch buffer, folds them into per-layer totals when the driver ends
// the operation, and keeps the first maxLoggedSpans for the trace file.
// Wrappers on any goroutine may add spans; only the driver goroutine
// begins and ends operations. A nil *tracer is the untraced run: no
// wrapper is installed, so nothing calls it.
type tracer struct {
	epoch time.Time
	op    atomic.Int32
	buf   []span
	n     atomic.Int32
	lost  int64 // spans that did not fit the scratch buffer

	sum [nLayers]int64 // Σ span durations
	cnt [nLayers]int64

	// Folded over converged rounds only.
	rounds     int64
	roundSelf  int64 // Σ (round − union of report and grant spans)
	fanoutWall int64 // Σ union of report and grant spans
	reportMax  int64 // Σ slowest report span of the round

	log []span
}

func newTracer(scratch int) *tracer {
	return &tracer{epoch: time.Now(), buf: make([]span, scratch)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a span of layer l that began at start and ends now.
func (t *tracer) add(l layer, node int32, start int64) {
	end := t.now()
	i := int(t.n.Add(1)) - 1
	if i < len(t.buf) {
		t.buf[i] = span{Layer: l, Node: node, Op: t.op.Load(), Start: start, End: end}
	}
}

// reset forgets everything folded and logged so far; the wrappers keep
// their tracer across a warm-up.
func (t *tracer) reset() {
	*t = tracer{epoch: t.epoch, buf: t.buf}
}

// begin starts operation id; the previous one must have been ended.
func (t *tracer) begin(id int) {
	t.op.Store(int32(id))
	t.n.Store(0)
}

// end folds the current operation's spans. converged marks a round
// that counts toward the round decomposition.
func (t *tracer) end(converged bool) {
	n := int(t.n.Load())
	if n > len(t.buf) {
		t.lost += int64(n - len(t.buf))
		n = len(t.buf)
	}
	spans := t.buf[:n]
	var round, maxReport int64
	for _, s := range spans {
		d := s.End - s.Start
		t.sum[s.Layer] += d
		t.cnt[s.Layer]++
		switch s.Layer {
		case lyRound:
			round = d
		case lyReport:
			if d > maxReport {
				maxReport = d
			}
		}
	}
	if converged && round > 0 {
		wall := unionNS(spans, func(s span) bool { return s.Layer == lyReport || s.Layer == lyGrant })
		t.rounds++
		t.fanoutWall += wall
		t.roundSelf += round - wall
		t.reportMax += maxReport
	}
	if room := maxLoggedSpans - len(t.log); room > 0 {
		if len(spans) > room {
			spans = spans[:room]
		}
		t.log = append(t.log, spans...)
	}
}

// unionNS is the time covered by at least one of the selected spans:
// concurrent fan-out counts once, first start to last end per overlap.
func unionNS(spans []span, pick func(span) bool) int64 {
	var iv [][2]int64
	for _, s := range spans {
		if pick(s) {
			iv = append(iv, [2]int64{s.Start, s.End})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, hi int64
	for i, x := range iv {
		if i == 0 || x[0] > hi {
			total += x[1] - x[0]
			hi = x[1]
		} else if x[1] > hi {
			total += x[1] - hi
			hi = x[1]
		}
	}
	return total
}

// meanUS is the mean span duration of a layer in microseconds.
func (t *tracer) meanUS(l layer) float64 {
	if t.cnt[l] == 0 {
		return 0
	}
	return float64(t.sum[l]) / float64(t.cnt[l]) / 1e3
}

// perUS spreads a layer's total time over n operations, in microseconds.
func (t *tracer) perUS(l layer, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(t.sum[l]) / float64(n) / 1e3
}

type traceFileSpan struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	ID     int32  `json:"id"`
	Node   int32  `json:"node"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// write dumps the logged spans as JSON.
func (t *tracer) write(path string) error {
	out := struct {
		Spans     []traceFileSpan `json:"spans"`
		Truncated bool            `json:"truncated"`
		Lost      int64           `json:"lost_spans"`
	}{Spans: make([]traceFileSpan, len(t.log)), Truncated: len(t.log) == maxLoggedSpans, Lost: t.lost}
	for i, s := range t.log {
		out.Spans[i] = traceFileSpan{
			Name: layerNames[s.Layer], Parent: parentOf[s.Layer],
			ID: s.Op, Node: s.Node, Start: s.Start, End: s.End,
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
