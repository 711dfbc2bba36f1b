package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/node"
	"repro/internal/platform"
	"repro/internal/tracing"
)

// TestStatusCoherentUnderReconfigure scrapes /debug/status while live
// reconfigurations flip the daemon between two (policy, limit) pairs.
// Because the status callback snapshots the daemon under one lock
// acquisition, a scrape must never observe a mixed pair — the new
// policy's name with the old configuration's limit. Run under -race (as
// CI does) this also proves the snapshot path is data-race free.
func TestStatusCoherentUnderReconfigure(t *testing.T) {
	chip := platform.Skylake()
	specs := []core.AppSpec{{Name: "gcc", Core: 0, Shares: 100, HighPriority: true}}
	freq, err := core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	prio, err := core.NewPriority(chip, specs, core.PriorityConfig{Limit: 70})
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.New(node.Spec{Chip: chip, Apps: specs, Policy: freq, Limit: 40, Recorders: &node.Recorders{}})
	if err != nil {
		t.Fatal(err)
	}
	m, d := n.M, n.Daemon
	srv := httptest.NewServer(New(n.Metrics, nil, DaemonStatusFunc(d)).Handler())
	defer srv.Close()

	// The two legal states the daemon ever occupies.
	valid := map[string]float64{
		freq.Name(): 40,
		prio.Name(): 70,
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
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
				var sr StatusResponse
				if err := json.Unmarshal([]byte(get(t, srv.URL+"/debug/status")), &sr); err != nil {
					t.Error(err)
					return
				}
				want, ok := valid[sr.Status.Policy]
				if !ok {
					t.Errorf("unknown policy %q in status", sr.Status.Policy)
					return
				}
				if sr.Status.LimitWatts != want {
					t.Errorf("torn status: policy %q paired with limit %v, want %v",
						sr.Status.Policy, sr.Status.LimitWatts, want)
					return
				}
			}
		}()
	}

	for i := 0; i < 50; i++ {
		m.Run(200 * time.Millisecond)
		rc := daemon.Reconfig{Policy: prio, Limit: 70}
		if i%2 == 1 {
			rc = daemon.Reconfig{Policy: freq, Limit: 40}
		}
		if err := d.Reconfigure(rc); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
}

// /debug/rounds serves the tracer's retained rounds as a JSON trace log
// and stays absent without WithRounds.
func TestRoundsEndpoint(t *testing.T) {
	tr := tracing.New("node-a", 8)
	b := tr.Begin(3)
	s0 := b.Now()
	b.Span("receive", "", s0, b.Now(), nil)
	b.End()

	srv := httptest.NewServer(New(nil, nil, nil, WithRounds(tr)).Handler())
	defer srv.Close()

	log, err := tracing.ReadLog(strings.NewReader(get(t, srv.URL+"/debug/rounds")))
	if err != nil {
		t.Fatal(err)
	}
	if log.Origin != "node-a" || len(log.Rounds) != 1 || log.Rounds[0].ID != 3 {
		t.Fatalf("served log = %+v", log)
	}
	if len(log.Rounds[0].Spans) != 1 || log.Rounds[0].Spans[0].Name != "receive" {
		t.Fatalf("spans = %+v", log.Rounds[0].Spans)
	}

	none := httptest.NewServer(New(nil, nil, nil).Handler())
	defer none.Close()
	resp, err := http.Get(none.URL + "/debug/rounds")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("/debug/rounds without WithRounds = %s, want 404", resp.Status)
	}
}
