package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/msr"
	"repro/internal/units"
)

// The wrappers below sit around the values the benchmark itself hands
// to a layer, so every span is recorded from the benchmark's files.
// Each forwards the optional interface the layer probes for
// (msr.BatchReader, core.Explainer); the fidelity tests hold them to it.

// tracedDevice times the daemon's register reads. Writes pass through:
// they are the actuator's, and its wrapper times them.
type tracedDevice struct {
	dev     msr.Device
	t       *tracer
	reads   int64 // registers read, batch sweeps counted per cpu
	batches int64 // ReadBatch calls
}

func (d *tracedDevice) Read(cpu int, reg uint32) (uint64, error) {
	s := d.t.now()
	v, err := d.dev.Read(cpu, reg)
	d.t.add(lyMSRRead, int32(cpu), s)
	d.reads++
	return v, err
}

func (d *tracedDevice) ReadBatch(reg uint32, vals []uint64, ok []bool) error {
	s := d.t.now()
	err := msr.ReadBatch(d.dev, reg, vals, ok)
	d.t.add(lyMSRRead, -1, s)
	d.reads += int64(len(vals))
	d.batches++
	return err
}

func (d *tracedDevice) Write(cpu int, reg uint32, val uint64) error {
	return d.dev.Write(cpu, reg, val)
}

// tracedPolicy times core.Policy.Update and counts the actions it
// returns.
type tracedPolicy struct {
	core.Policy
	t       *tracer
	actions int64
}

func (p *tracedPolicy) Update(s core.Snapshot) []core.Action {
	st := p.t.now()
	a := p.Policy.Update(s)
	p.t.add(lyDecide, -1, st)
	p.actions += int64(len(a))
	return a
}

// LastReasons keeps the wrapped policy a core.Explainer, so the daemon
// still journals and flight-records its reasons.
func (p *tracedPolicy) LastReasons() []core.Reason {
	if ex, ok := p.Policy.(core.Explainer); ok {
		return ex.LastReasons()
	}
	return nil
}

// tracedActuator times every P-state write and park.
type tracedActuator struct {
	act   daemon.Actuator
	t     *tracer
	calls int64
}

func (a *tracedActuator) SetFreq(c int, f units.Hertz) error {
	s := a.t.now()
	err := a.act.SetFreq(c, f)
	a.t.add(lyActuate, int32(c), s)
	a.calls++
	return err
}

func (a *tracedActuator) Park(c int, parked bool) error {
	s := a.t.now()
	err := a.act.Park(c, parked)
	a.t.add(lyActuate, int32(c), s)
	a.calls++
	return err
}

// tracedSLO times the service model's per-interval telemetry fill.
type tracedSLO struct {
	src daemon.SLOSource
	t   *tracer
}

func (s tracedSLO) FillServiceSLO(dst []core.ServiceSLO) []core.ServiceSLO {
	st := s.t.now()
	dst = s.src.FillServiceSLO(dst)
	s.t.add(lySvcTelemetry, -1, st)
	return dst
}

// countedTransport counts the grants a coordinator sends and, in the
// traced run, times reports and grants. Untraced it costs one atomic
// add per grant, which is what lets both runs report the same count.
type countedTransport struct {
	cluster.Transport
	t      *tracer // nil untraced
	node   int32
	grants *atomic.Int64
}

func (x countedTransport) Report(ctx context.Context) (cluster.Report, error) {
	if x.t == nil {
		return x.Transport.Report(ctx)
	}
	s := x.t.now()
	r, err := x.Transport.Report(ctx)
	x.t.add(lyReport, x.node, s)
	return r, err
}

func (x countedTransport) Grant(ctx context.Context, g cluster.Grant) error {
	x.grants.Add(1)
	if x.t == nil {
		return x.Transport.Grant(ctx, g)
	}
	s := x.t.now()
	err := x.Transport.Grant(ctx, g)
	x.t.add(lyGrant, x.node, s)
	return err
}

// maxWireSamples is how many envelopes of each kind the round tripper
// keeps for the codec probes.
const maxWireSamples = 64

// wireStats is what the traced round tripper sees on the wire.
type wireStats struct {
	mu          sync.Mutex
	requests    int64
	statusN     int64
	statusBytes int64
	grantN      int64
	grantBytes  int64
	statuses    [][]byte // captured status replies
	grants      [][]byte // captured grant requests
}

// tracedRoundTripper times the HTTP exchange under an HTTPNode's client
// and measures the envelopes that cross it.
type tracedRoundTripper struct {
	base  http.RoundTripper
	t     *tracer
	node  int32
	stats *wireStats
}

func (r *tracedRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	// Status polls are GETs; the only POST a coordinator sends is a grant.
	var grant []byte
	if req.Method == http.MethodPost && req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			grant, _ = io.ReadAll(body) // a bytes.Reader cannot fail
		}
	}
	s := r.t.now()
	resp, err := r.base.RoundTrip(req)
	r.t.add(lyHTTP, r.node, s)
	if err != nil {
		return resp, err
	}
	st := r.stats
	st.mu.Lock()
	st.requests++
	if grant != nil {
		st.grantN++
		st.grantBytes += int64(len(grant))
		if len(st.grants) < maxWireSamples {
			st.grants = append(st.grants, grant)
		}
	}
	st.mu.Unlock()
	if grant == nil {
		resp.Body = &statusBody{ReadCloser: resp.Body, stats: st}
	}
	return resp, nil
}

// statusBody counts, and for the first few keeps, the bytes of a
// status reply as the client reads them.
type statusBody struct {
	io.ReadCloser
	stats *wireStats
	buf   bytes.Buffer
}

func (b *statusBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.buf.Write(p[:n])
	return n, err
}

func (b *statusBody) Close() error {
	st := b.stats
	st.mu.Lock()
	st.statusN++
	st.statusBytes += int64(b.buf.Len())
	if len(st.statuses) < maxWireSamples {
		st.statuses = append(st.statuses, append([]byte(nil), b.buf.Bytes()...))
	}
	st.mu.Unlock()
	return b.ReadCloser.Close()
}

// tracedHandler times the agent's side of every request.
func tracedHandler(h http.Handler, t *tracer, node int32) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := t.now()
		h.ServeHTTP(w, r)
		t.add(lyHandler, node, s)
	})
}
