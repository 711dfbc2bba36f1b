package metrics

import (
	"strings"
	"testing"
)

func TestValuesFlattensAllKinds(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(3)
	r.Gauge("g", "").Set(-1.5)
	r.CounterVec("cv_total", "", "kind").With("a").Add(2)
	r.CounterVec("cv_total", "", "kind").With("b").Inc()
	h := r.Histogram("h_seconds", "", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	r.GaugeFunc("up", "", func() float64 { return 7 })

	v := r.Values()
	want := map[string]float64{
		"c_total":            3,
		"g":                  -1.5,
		`cv_total{kind="a"}`: 2,
		`cv_total{kind="b"}`: 1,
		"h_seconds_sum":      0.55,
		"h_seconds_count":    2,
		"up":                 7,
	}
	for k, wv := range want {
		if got, ok := v[k]; !ok || got != wv {
			t.Errorf("Values[%q] = %v (present=%v), want %v", k, got, ok, wv)
		}
	}
	if len(v) != len(want) {
		t.Errorf("Values has %d entries, want %d: %v", len(v), len(want), v)
	}

	var nilReg *Registry
	if nilReg.Values() != nil {
		t.Errorf("nil registry Values should be nil")
	}
}

func TestGaugeFuncExposition(t *testing.T) {
	r := NewRegistry()
	n := 0.0
	r.GaugeFunc("ticks", "live ticks", func() float64 { n++; return n })
	// Re-registration keeps the first callback.
	r.GaugeFunc("ticks", "live ticks", func() float64 { return -99 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "# TYPE ticks gauge\n") || !strings.Contains(out, "ticks 1\n") {
		t.Fatalf("prometheus output missing gauge func series:\n%s", out)
	}
	b.Reset()
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"ticks": 2`) {
		t.Fatalf("json output missing gauge func value:\n%s", b.String())
	}
}

func TestRegisterBuildInfo(t *testing.T) {
	r := NewRegistry()
	RegisterBuildInfo(r, "powerd")
	RegisterBuildInfo(r, "powerd") // idempotent

	v := r.Values()
	var infoSeries string
	for k, val := range v {
		if strings.HasPrefix(k, "padpd_build_info{") {
			if infoSeries != "" {
				t.Fatalf("duplicate build info series: %q and %q", infoSeries, k)
			}
			infoSeries = k
			if val != 1 {
				t.Errorf("%s = %v, want 1", k, val)
			}
		}
	}
	if infoSeries == "" || !strings.Contains(infoSeries, `component="powerd"`) ||
		!strings.Contains(infoSeries, "go_version=") || !strings.Contains(infoSeries, "version=") {
		t.Fatalf("build info series missing or malformed: %q (all: %v)", infoSeries, v)
	}
	if v["padpd_start_time_seconds"] <= 0 {
		t.Errorf("start time = %v", v["padpd_start_time_seconds"])
	}
	if up, ok := v["padpd_uptime_seconds"]; !ok || up < 0 {
		t.Errorf("uptime = %v (present=%v)", up, ok)
	}

	RegisterBuildInfo(nil, "powerd") // must not panic
}

// A labelled child read at scrape time exposes like a set gauge, keeps its
// place among the family's children, and, like GaugeFunc, keeps the first
// registration: an existing child is never replaced.
func TestGaugeVecWithFunc(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("app_joules", "per app", "app")
	v.With("gcc").Set(2)
	v.WithFunc(func() float64 { return 3.5 }, "mcf")
	v.WithFunc(func() float64 { return -1 }, "gcc") // gcc already has a child
	v.WithFunc(func() float64 { return -1 }, "mcf") // and so does mcf now

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP app_joules per app\n# TYPE app_joules gauge\n" +
		"app_joules{app=\"gcc\"} 2\napp_joules{app=\"mcf\"} 3.5\n"
	if b.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
	if got := r.Values()[`app_joules{app="mcf"}`]; got != 3.5 {
		t.Fatalf("Values: mcf = %v, want 3.5", got)
	}

	var nilVec *GaugeVec
	nilVec.WithFunc(func() float64 { return 1 }, "x") // must not panic
}

// Delete takes one series off a labelled family: the others keep their
// order, a later With starts it from zero, and an absent key or a nil vec
// is a no-op.
func TestVecDelete(t *testing.T) {
	r := NewRegistry()
	g := r.GaugeVec("node_limit_watts", "per node", "node")
	c := r.CounterVec("node_failures_total", "per node", "node")
	for i, n := range []string{"c", "b", "a"} {
		g.With(n).Set(float64(i + 1))
		c.With(n).Add(float64(i + 1))
	}
	g.Delete("b")
	c.Delete("b")
	g.Delete("absent")
	c.Delete("absent")

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP node_failures_total per node\n# TYPE node_failures_total counter\n" +
		"node_failures_total{node=\"c\"} 1\nnode_failures_total{node=\"a\"} 3\n" +
		"# HELP node_limit_watts per node\n# TYPE node_limit_watts gauge\n" +
		"node_limit_watts{node=\"c\"} 1\nnode_limit_watts{node=\"a\"} 3\n"
	if b.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
	if g.With("b").Value() != 0 || c.With("b").Value() != 0 {
		t.Errorf("b came back at %v and %v, want fresh zeros", g.With("b").Value(), c.With("b").Value())
	}
	if got := r.Values(); got[`node_limit_watts{node="b"}`] != 0 || len(got) != 6 {
		t.Errorf("Values after b came back: %v", got)
	}

	var nilG *GaugeVec
	var nilC *CounterVec
	nilG.Delete("x") // must not panic
	nilC.Delete("x")
}
