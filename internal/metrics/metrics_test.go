package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Requests.")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters are monotonic
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	// Get-or-create: same name yields the same counter.
	if again := r.Counter("requests_total", "Requests."); again.Value() != 3.5 {
		t.Fatalf("re-registration returned a fresh counter")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("temp", "Temperature.")
	g.Set(42)
	g.Add(-2)
	if got := g.Value(); got != 40 {
		t.Fatalf("gauge = %v, want 40", got)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	uppers, cum, sum, _ := h.snapshot()
	if len(uppers) != 3 || len(cum) != 4 {
		t.Fatalf("snapshot shape: %d uppers, %d buckets", len(uppers), len(cum))
	}
	if sum != 55.55 {
		t.Fatalf("sum = %v, want 55.55", sum)
	}
	want := []uint64{1, 2, 3, 4} // cumulative across 0.1, 1, 10, +Inf
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d", i, cum[i], w)
		}
	}
}

func TestVecs(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("actions_total", "Actions.", "kind")
	cv.With("park").Inc()
	cv.With("park").Inc()
	cv.With("wake").Inc()
	if got := cv.With("park").Value(); got != 2 {
		t.Fatalf("park = %v, want 2", got)
	}
	gv := r.GaugeVec("limit_watts", "Limits.", "node")
	gv.With("n0").Set(25)
	if got := gv.With("n0").Value(); got != 25 {
		t.Fatalf("n0 = %v, want 25", got)
	}
	hv := r.HistogramVec("dur_seconds", "Durations.", nil, "phase")
	hv.With("sample").Observe(0.001)
	if got := hv.With("sample").Count(); got != 1 {
		t.Fatalf("sample count = %d, want 1", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "", nil)
	cv := r.CounterVec("cv", "", "l")
	gv := r.GaugeVec("gv", "", "l")
	hv := r.HistogramVec("hv", "", nil, "l")
	c.Inc()
	c.Add(1)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	cv.With("a").Inc()
	gv.With("a").Set(1)
	hv.With("a").Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatalf("nil metrics accumulated state")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual", "")
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("dual", "")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatalf("invalid metric name did not panic")
		}
	}()
	r.Counter("bad-name", "")
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("powerd_iterations_total", "Iterations.").Add(3)
	r.Gauge("powerd_limit_watts", "Limit.").Set(50)
	r.Histogram("powerd_iteration_seconds", "Latency.", []float64{0.01, 0.1}).Observe(0.05)
	r.CounterVec("powerd_actuations_total", "Actuations.", "kind").With("park").Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP powerd_iterations_total Iterations.",
		"# TYPE powerd_iterations_total counter",
		"powerd_iterations_total 3",
		"# TYPE powerd_limit_watts gauge",
		"powerd_limit_watts 50",
		"# TYPE powerd_iteration_seconds histogram",
		`powerd_iteration_seconds_bucket{le="0.01"} 0`,
		`powerd_iteration_seconds_bucket{le="0.1"} 1`,
		`powerd_iteration_seconds_bucket{le="+Inf"} 1`,
		"powerd_iteration_seconds_sum 0.05",
		"powerd_iteration_seconds_count 1",
		`powerd_actuations_total{kind="park"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line must be "name{labels} value" or "name value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(7)
	r.GaugeVec("b", "", "x").With("v1").Set(2)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"a_total"`, "7", `"b"`, `"v1"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON dump missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "")
	h := r.Histogram("h_seconds", "", nil)
	cv := r.CounterVec("v_total", "", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j) * 1e-6)
				cv.With("a").Inc()
			}
		}()
	}
	// Scrape concurrently with the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			_ = r.WritePrometheus(&sb)
			_ = r.WriteJSON(&sb)
		}
	}()
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %v, want 8000", got)
	}
	if got := h.Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
	if got := cv.With("a").Value(); got != 8000 {
		t.Fatalf("vec counter = %v, want 8000", got)
	}
}
