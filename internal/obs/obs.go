// Package obs serves the daemon's observability surface over HTTP:
//
//	/metrics            Prometheus text exposition of the metrics registry
//	/debug/vars         expvar-style JSON dump of the same registry
//	/debug/status       JSON: last snapshot plus the decision-journal tail
//	/debug/rounds       JSON: round-trace ring (with WithRounds)
//	/debug/energy       JSON: energy-ledger range query (with WithLedger)
//	/debug/flight       JSON: flight-recorder occupancy (with WithFlight)
//	/debug/flight/dump  POST: stream a flight-recorder dump (with WithFlight)
//	/debug/pprof/...    CPU/heap/block profiles (with WithPprof)
//	/healthz            liveness probe
//
// The paper evaluates its control loop from post-hoc traces; this package
// makes the same loop inspectable while it runs — cmd/powerd serves it
// behind -listen, cmd/turbostat reads it behind -connect, and tests scrape
// it during live virtual runs.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"

	"repro/internal/daemon"
	"repro/internal/flight"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/metrics/decisions"
	"repro/internal/tracing"
)

// AppStatus is one application's state in a status report.
type AppStatus struct {
	Name   string  `json:"name"`
	Core   int     `json:"core"`
	MHz    float64 `json:"mhz"`
	IPS    float64 `json:"ips"`
	Watts  float64 `json:"watts"`
	Parked bool    `json:"parked"`
}

// ServiceStatus is one latency service's tail-latency and SLO state in a
// status report. Latencies are in seconds over the service's sliding
// window; TargetSeconds is 0 when no objective is set.
type ServiceStatus struct {
	Name          string  `json:"name"`
	P50Seconds    float64 `json:"p50_seconds"`
	P90Seconds    float64 `json:"p90_seconds"`
	P99Seconds    float64 `json:"p99_seconds"`
	TargetSeconds float64 `json:"target_seconds,omitempty"`
	Met           bool    `json:"met"`
	Rate          float64 `json:"rate"`
	QueueLen      int     `json:"queue_len"`
	Dropped       uint64  `json:"dropped,omitempty"`
	Timeouts      uint64  `json:"timeouts,omitempty"`
}

// DaemonStatus is the control loop's externally visible state.
type DaemonStatus struct {
	Policy            string          `json:"policy"`
	Iterations        int             `json:"iterations"`
	TimeSeconds       float64         `json:"time_seconds"`
	LimitWatts        float64         `json:"limit_watts"`
	PackagePowerWatts float64         `json:"package_power_watts"`
	Apps              []AppStatus     `json:"apps"`
	Services          []ServiceStatus `json:"services,omitempty"`
	JitterMeanSeconds float64         `json:"jitter_mean_seconds"`
	JitterP50Seconds  float64         `json:"jitter_p50_seconds"`
	JitterP90Seconds  float64         `json:"jitter_p90_seconds"`
	JitterP99Seconds  float64         `json:"jitter_p99_seconds"`
	// Phase breakdown of the latest control iteration (the paper's
	// sample → decide → actuate pipeline), matching the span names a
	// round trace records.
	PhaseSampleSeconds  float64 `json:"phase_sample_seconds"`
	PhaseDecideSeconds  float64 `json:"phase_decide_seconds"`
	PhaseActuateSeconds float64 `json:"phase_actuate_seconds"`
	Error               string  `json:"error,omitempty"`
}

// StatusResponse is the /debug/status payload.
type StatusResponse struct {
	Status    DaemonStatus      `json:"status"`
	Decisions []decisions.Entry `json:"decisions"`
}

// DaemonStatusFunc adapts a daemon into the status callback the server
// needs. The callback snapshots the daemon under a single lock
// acquisition (daemon.StatusView), so a concurrent live reconfiguration
// can never surface as a torn read — a new policy name paired with the
// previous configuration's limit, say.
func DaemonStatusFunc(d *daemon.Daemon) func() DaemonStatus {
	return func() DaemonStatus {
		view := d.StatusView()
		snap := view.Snapshot
		st := DaemonStatus{
			Policy:              view.Policy,
			Iterations:          view.Iterations,
			TimeSeconds:         snap.Time.Seconds(),
			LimitWatts:          float64(view.Limit),
			PackagePowerWatts:   float64(snap.PackagePower),
			Apps:                make([]AppStatus, len(snap.Apps)),
			JitterMeanSeconds:   view.Jitter.Mean,
			JitterP50Seconds:    view.Jitter.P50,
			JitterP90Seconds:    view.Jitter.P90,
			JitterP99Seconds:    view.Jitter.P99,
			PhaseSampleSeconds:  view.Phases.Sample.Seconds(),
			PhaseDecideSeconds:  view.Phases.Decide.Seconds(),
			PhaseActuateSeconds: view.Phases.Actuate.Seconds(),
		}
		for i, a := range snap.Apps {
			st.Apps[i] = AppStatus{
				Name:   a.Spec.Name,
				Core:   a.Spec.Core,
				MHz:    a.Freq.MHzF(),
				IPS:    a.IPS,
				Watts:  float64(a.Power),
				Parked: a.Parked,
			}
		}
		for _, svc := range snap.Services {
			st.Services = append(st.Services, ServiceStatus{
				Name:          svc.Name,
				P50Seconds:    svc.P50,
				P90Seconds:    svc.P90,
				P99Seconds:    svc.P99,
				TargetSeconds: svc.Target,
				Met:           svc.Met(),
				Rate:          svc.Rate,
				QueueLen:      svc.QueueLen,
				Dropped:       svc.Dropped,
				Timeouts:      svc.Timeouts,
			})
		}
		if view.Err != nil {
			st.Error = view.Err.Error()
		}
		return st
	}
}

// Server bundles a metrics registry, a decision journal, and a status
// callback behind an http.Handler. Any of the three may be nil; the
// corresponding endpoint then serves an empty document.
type Server struct {
	reg     *metrics.Registry
	journal *decisions.Journal
	status  func() DaemonStatus
	flight  *flight.Recorder
	tracer  *tracing.Tracer
	ledger  *ledger.Ledger
	mux     *http.ServeMux

	mu   sync.Mutex
	hsrv *http.Server // live only between Serve and Shutdown
}

// DefaultTail is how many journal entries /debug/status returns when the
// request does not say (?n=).
const DefaultTail = 32

// Option configures optional server surfaces.
type Option func(*Server)

// WithFlight exposes the flight recorder: GET /debug/flight reports ring
// occupancy, POST /debug/flight/dump streams a versioned binary dump of the
// current ring contents (the same format the daemon's trigger dumps write,
// decodable by cmd/powerdump).
func WithFlight(rec *flight.Recorder) Option {
	return func(s *Server) { s.flight = rec }
}

// WithRounds exposes the round-trace ring: GET /debug/rounds returns the
// tracer's retained rounds as a JSON trace log — the per-machine half of
// the cross-node merged timeline (`powerdump -view merged` joins one such
// dump per machine by round ID).
func WithRounds(tr *tracing.Tracer) Option {
	return func(s *Server) { s.tracer = tr }
}

// WithLedger exposes the energy ledger: GET /debug/energy answers range
// queries (?from=, ?to=, ?res=raw|1s|1m|auto, ?step=, ?limit=) over the
// per-app energy time series, plus the cumulative summary — attribution
// totals, cost/carbon, and each anomaly detector's firing count. The
// anomalies themselves are the padpd_anomalies_total counters and the
// ledger's KindAnomaly flight events.
func WithLedger(l *ledger.Ledger) Option {
	return func(s *Server) { s.ledger = l }
}

// WithPprof mounts net/http/pprof under /debug/pprof/, so CPU, heap, and
// block profiles can be taken from a live run. Off by default: profiles
// expose internals and cost CPU, so cmd/powerd gates this behind
// -debug-pprof.
func WithPprof() Option {
	return func(s *Server) {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// WithHandler mounts an extra handler on the server's mux — how the
// powerapi control-plane agent rides on the daemon's existing
// observability listener instead of opening a second port. The pattern
// follows http.ServeMux rules (use a trailing slash for a subtree).
func WithHandler(pattern string, h http.Handler) Option {
	return func(s *Server) { s.mux.Handle(pattern, h) }
}

// getOnly rejects everything but GET (and HEAD, which net/http answers
// from GET handlers) with 405 and an Allow header — the read-only
// endpoints must not look writable.
func getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

// New assembles the observability server.
func New(reg *metrics.Registry, journal *decisions.Journal, status func() DaemonStatus, opts ...Option) *Server {
	s := &Server{reg: reg, journal: journal, status: status, mux: http.NewServeMux()}
	s.mux.HandleFunc("/metrics", getOnly(s.handleMetrics))
	s.mux.HandleFunc("/debug/vars", getOnly(s.handleVars))
	s.mux.HandleFunc("/debug/status", getOnly(s.handleStatus))
	s.mux.HandleFunc("/healthz", getOnly(s.handleHealthz))
	for _, o := range opts {
		o(s)
	}
	if s.flight != nil {
		s.mux.HandleFunc("/debug/flight", getOnly(s.handleFlight))
		s.mux.HandleFunc("/debug/flight/dump", s.handleFlightDump)
	}
	if s.tracer != nil {
		s.mux.HandleFunc("/debug/rounds", getOnly(s.handleRounds))
	}
	if s.ledger != nil {
		s.mux.HandleFunc("/debug/energy", getOnly(s.handleEnergy))
	}
	return s
}

// Handler exposes the endpoint mux (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve answers requests on l until the listener closes or Shutdown is
// called. It always returns a non-nil error; after a clean Shutdown that
// error is http.ErrServerClosed.
func (s *Server) Serve(l net.Listener) error {
	hsrv := &http.Server{Handler: s.mux}
	s.mu.Lock()
	s.hsrv = hsrv
	s.mu.Unlock()
	return hsrv.Serve(l)
}

// Shutdown gracefully stops a server started with Serve: the listener
// closes immediately, in-flight requests get until ctx expires to finish.
// A server that never served returns nil.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	hsrv := s.hsrv
	s.mu.Unlock()
	if hsrv == nil {
		return nil
	}
	return hsrv.Shutdown(ctx)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.reg == nil {
		return
	}
	_ = s.reg.WritePrometheus(w)
}

func (s *Server) handleVars(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if s.reg == nil {
		fmt.Fprintln(w, "{}")
		return
	}
	_ = s.reg.WriteJSON(w)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	n := DefaultTail
	if q := r.URL.Query().Get("n"); q != "" {
		if v, err := strconv.Atoi(q); err == nil {
			n = v
		}
	}
	resp := StatusResponse{Decisions: s.journal.Tail(n)}
	if resp.Decisions == nil {
		resp.Decisions = []decisions.Entry{}
	}
	if s.status != nil {
		resp.Status = s.status()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

func (s *Server) handleRounds(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = s.tracer.Log().Write(w)
}

func (s *Server) handleEnergy(w http.ResponseWriter, r *http.Request) {
	q, err := ledger.ParseQuery(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res, err := s.ledger.Range(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(res)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// FlightStats is the /debug/flight payload.
type FlightStats struct {
	TotalEvents    uint64 `json:"total_events"`
	RetainedEvents int    `json:"retained_events"`
	Interval       uint32 `json:"interval"`
}

func (s *Server) handleFlight(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(FlightStats{
		TotalEvents:    s.flight.Total(),
		RetainedEvents: s.flight.Len(),
		Interval:       s.flight.Interval(),
	})
}

func (s *Server) handleFlightDump(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST required (a dump mutates nothing but is expensive)", http.StatusMethodNotAllowed)
		return
	}
	d := s.flight.Dump("http")
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="flight.fr"`)
	w.Header().Set("X-Flight-Events", strconv.Itoa(len(d.Events)))
	_ = d.Encode(w)
}
