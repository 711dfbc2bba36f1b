package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/flight"
	"repro/internal/flight/flighttest"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// liveRun builds a machine plus an instrumented daemon and returns them
// with the observability server mounted on a test HTTP server.
func liveRun(t *testing.T) (*sim.Machine, *daemon.Daemon, *httptest.Server) {
	t.Helper()
	chip := platform.Skylake()
	specs := []core.AppSpec{{Name: "leela", Core: 0, Shares: 90}, {Name: "cactusBSSN", Core: 1, Shares: 10}}
	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.New(node.Spec{Chip: chip, Apps: specs, Policy: pol, Limit: 50, Recorders: &node.Recorders{}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(n.Metrics, n.Journal, DaemonStatusFunc(n.Daemon)).Handler())
	t.Cleanup(srv.Close)
	return n.M, n.Daemon, srv
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// The acceptance test: scrape /metrics and /debug/status while the virtual
// run is in progress, then validate the final exposition.
func TestScrapeDuringLiveRun(t *testing.T) {
	m, d, srv := liveRun(t)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				get(t, srv.URL+"/metrics")
				get(t, srv.URL+"/debug/status")
				get(t, srv.URL+"/debug/vars")
				get(t, srv.URL+"/healthz")
			}
		}
	}()
	for i := 0; i < 30; i++ {
		m.Run(time.Second)
	}
	close(stop)
	wg.Wait()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if d.Iterations() < 25 {
		t.Fatalf("only %d iterations ran", d.Iterations())
	}

	// /metrics: valid Prometheus text with counters, gauges, a histogram.
	out := get(t, srv.URL+"/metrics")
	for _, want := range []string{
		"# TYPE powerd_iterations_total counter",
		"# TYPE powerd_limit_watts gauge",
		"powerd_limit_watts 50",
		"# TYPE powerd_iteration_seconds histogram",
		"powerd_iteration_seconds_count",
		`powerd_iteration_seconds_bucket{le="+Inf"}`,
		"# TYPE telemetry_samples_total counter",
		"# TYPE sim_ticks_total counter",
		"# TYPE rapl_cap_mhz gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}

	// /debug/status: last snapshot plus a bounded decision tail.
	var sr StatusResponse
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/debug/status?n=5")), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Status.Policy != "frequency-shares" {
		t.Errorf("policy = %q", sr.Status.Policy)
	}
	if sr.Status.Iterations != d.Iterations() {
		t.Errorf("status iterations = %d, want %d", sr.Status.Iterations, d.Iterations())
	}
	if sr.Status.LimitWatts != 50 || sr.Status.PackagePowerWatts <= 0 {
		t.Errorf("status power fields: %+v", sr.Status)
	}
	if len(sr.Status.Apps) != 2 || sr.Status.Apps[0].Name != "leela" {
		t.Errorf("status apps: %+v", sr.Status.Apps)
	}
	if len(sr.Decisions) != 5 {
		t.Fatalf("decision tail = %d entries, want 5", len(sr.Decisions))
	}
	last := sr.Decisions[len(sr.Decisions)-1]
	if last.Policy != "frequency-shares" || len(last.Reasons) == 0 {
		t.Errorf("last decision: %+v", last)
	}
	if uint64(d.Iterations()) != last.Seq {
		t.Errorf("last decision seq %d != iterations %d", last.Seq, d.Iterations())
	}

	// /debug/vars: a JSON object naming the iteration counter.
	var vars map[string]any
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/debug/vars")), &vars); err != nil {
		t.Fatal(err)
	}
	if _, ok := vars["powerd_iterations_total"]; !ok {
		t.Errorf("/debug/vars missing powerd_iterations_total: %v", vars)
	}

	if got := get(t, srv.URL+"/healthz"); !strings.Contains(got, "ok") {
		t.Errorf("/healthz = %q", got)
	}
}

// Nil components degrade to empty documents, not panics.
func TestNilComponents(t *testing.T) {
	srv := httptest.NewServer(New(nil, nil, nil).Handler())
	defer srv.Close()
	if out := get(t, srv.URL+"/metrics"); out != "" {
		t.Errorf("/metrics on nil registry = %q", out)
	}
	var sr StatusResponse
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/debug/status")), &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Decisions) != 0 {
		t.Errorf("decisions = %+v", sr.Decisions)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/debug/vars")), &vars); err != nil {
		t.Fatal(err)
	}
}

// pprof must be absent unless explicitly mounted: profiles cost CPU and
// leak internals, so they ride behind powerd's -debug-pprof flag.
func TestPprofGating(t *testing.T) {
	plain := httptest.NewServer(New(nil, nil, nil).Handler())
	defer plain.Close()
	resp, err := http.Get(plain.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/pprof/ without WithPprof: %s, want 404", resp.Status)
	}

	prof := httptest.NewServer(New(nil, nil, nil, WithPprof()).Handler())
	defer prof.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, err := http.Get(prof.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %s, want 200", path, resp.Status)
		}
	}
}

// The flight endpoints report ring occupancy and stream decodable dumps.
func TestFlightEndpoints(t *testing.T) {
	rec := flight.New(0)
	rec.BeginInterval(7)
	for i := 0; i < 5; i++ {
		rec.Record(flight.Event{Kind: flight.KindDecision, Source: flight.SourceDaemon, Core: -1})
	}
	srv := httptest.NewServer(New(nil, nil, nil, WithFlight(rec)).Handler())
	defer srv.Close()

	var fs FlightStats
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/debug/flight")), &fs); err != nil {
		t.Fatal(err)
	}
	if fs.TotalEvents != 5 || fs.RetainedEvents != 5 || fs.Interval != 7 {
		t.Errorf("stats = %+v", fs)
	}

	// Dumps are POST-only.
	resp, err := http.Get(srv.URL + "/debug/flight/dump")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET dump = %s, want 405", resp.Status)
	}

	resp, err = http.Post(srv.URL+"/debug/flight/dump", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST dump = %s", resp.Status)
	}
	if got := resp.Header.Get("X-Flight-Events"); got != "5" {
		t.Errorf("X-Flight-Events = %q, want 5", got)
	}
	d, err := flight.ReadDump(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Events) != 5 || d.Meta.Reason != "http" {
		t.Errorf("decoded dump: %d events, reason %q", len(d.Events), d.Meta.Reason)
	}

	// Absent recorder, absent endpoints.
	none := httptest.NewServer(New(nil, nil, nil).Handler())
	defer none.Close()
	resp, err = http.Post(none.URL+"/debug/flight/dump", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("dump without WithFlight = %s, want 404", resp.Status)
	}
}

// TestDumpDuringRealtimeLoop hammers /metrics and /debug/flight/dump while
// a real-time control loop runs at a 1 ms interval over the simulated
// device. Run under -race (as CI does) this proves the recorder's
// single-writer rings, the dump snapshot path, and the metrics registry
// tolerate concurrent readers without torn state.
func TestDumpDuringRealtimeLoop(t *testing.T) {
	chip := platform.Skylake()
	reg := metrics.NewRegistry()
	rec := flight.New(1 << 10)
	flighttest.DumpOnFailure(t, rec)
	m, err := sim.New(chip, sim.WithMetrics(reg), sim.WithFlightRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	p := workload.MustByName("gcc")
	if err := m.Pin(workload.NewInstance(p), 0); err != nil {
		t.Fatal(err)
	}
	specs := []core.AppSpec{{Name: "gcc", Core: 0, Shares: 100}}
	pol, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := daemon.New(daemon.Config{
		Chip: chip, Policy: pol, Apps: specs, Limit: 50,
		Interval: time.Millisecond, Metrics: reg, Flight: rec,
	}, m.Device(), daemon.MachineActuator{M: m})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(reg, nil, DaemonStatusFunc(d), WithFlight(rec)).Handler())
	defer srv.Close()

	loopDone := make(chan error, 1)
	go func() {
		loopDone <- d.RunRealtime(context.Background(), 200)
	}()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				get(t, srv.URL+"/metrics")
				resp, err := http.Post(srv.URL+"/debug/flight/dump", "", nil)
				if err != nil {
					t.Error(err)
					return
				}
				dump, derr := flight.ReadDump(resp.Body)
				resp.Body.Close()
				if derr != nil {
					t.Errorf("dump mid-loop undecodable: %v", derr)
					return
				}
				// Every dump must be internally consistent: seq-sorted.
				for i := 1; i < len(dump.Events); i++ {
					if dump.Events[i].Seq <= dump.Events[i-1].Seq {
						t.Errorf("dump not seq-sorted at %d", i)
						return
					}
				}
			}
		}()
	}
	if err := <-loopDone; err != nil {
		t.Error(err)
	}
	close(stop)
	wg.Wait()
	if d.Iterations() != 200 {
		t.Errorf("loop ran %d iterations, want 200", d.Iterations())
	}
	if rec.Total() == 0 {
		t.Error("recorder saw no events")
	}
}
