package opconfig

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/svc"
	"repro/internal/units"
)

const goodDoc = `{
	"platform": "skylake",
	"policy": "frequency",
	"limit_watts": 50,
	"interval_ms": 500,
	"apps": [
		{"name": "gcc", "core": 0, "shares": 90},
		{"name": "cam4", "core": 1, "shares": 10, "max_freq_mhz": 1700}
	]
}`

func TestParseGood(t *testing.T) {
	c, err := Parse(strings.NewReader(goodDoc))
	if err != nil {
		t.Fatal(err)
	}
	if c.Interval() != 500*time.Millisecond {
		t.Errorf("Interval = %v", c.Interval())
	}
	if c.Limit() != 50 {
		t.Errorf("Limit = %v", c.Limit())
	}
	ns, err := c.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if ns.Chip.Vendor != "Intel" {
		t.Errorf("chip = %s", ns.Chip.Name)
	}
	if ns.Policy.Name() != "frequency-shares" {
		t.Errorf("policy = %s", ns.Policy.Name())
	}
	if ns.Interval != 500*time.Millisecond || ns.Limit != 50 || ns.Services != nil {
		t.Errorf("spec interval %v, limit %v, services %v", ns.Interval, ns.Limit, ns.Services)
	}
	specs := ns.Apps
	if specs[1].MaxFreq != 1700*units.MHz {
		t.Errorf("MaxFreq = %v", specs[1].MaxFreq)
	}
	if !specs[1].AVX {
		t.Error("cam4 AVX flag lost")
	}
}

func TestParseRejectsBadDocs(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"garbage", "{nope"},
		{"unknown field", `{"platform":"skylake","policy":"frequency","limit_watts":50,"typo":1,"apps":[{"name":"gcc","core":0,"shares":1}]}`},
		{"bad platform", `{"platform":"sparc","policy":"frequency","limit_watts":50,"apps":[{"name":"gcc","core":0,"shares":1}]}`},
		{"bad policy", `{"platform":"skylake","policy":"magic","limit_watts":50,"apps":[{"name":"gcc","core":0,"shares":1}]}`},
		{"zero limit", `{"platform":"skylake","policy":"frequency","limit_watts":0,"apps":[{"name":"gcc","core":0,"shares":1}]}`},
		{"no apps", `{"platform":"skylake","policy":"frequency","limit_watts":50,"apps":[]}`},
		{"unknown app", `{"platform":"skylake","policy":"frequency","limit_watts":50,"apps":[{"name":"doom","core":0,"shares":1}]}`},
		{"missing shares", `{"platform":"skylake","policy":"frequency","limit_watts":50,"apps":[{"name":"gcc","core":0}]}`},
		{"bad priority", `{"platform":"skylake","policy":"priority","limit_watts":50,"apps":[{"name":"gcc","core":0,"priority":"vip"}]}`},
		{"negative cap", `{"platform":"skylake","policy":"frequency","limit_watts":50,"apps":[{"name":"gcc","core":0,"shares":1,"max_freq_mhz":-5}]}`},
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c.doc)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestPriorityPolicyBuild(t *testing.T) {
	doc := `{
		"platform": "ryzen",
		"policy": "priority",
		"limit_watts": 40,
		"apps": [
			{"name": "cactusBSSN", "core": 0, "priority": "hp"},
			{"name": "leela", "core": 1, "priority": "lp"}
		]
	}`
	c, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	ns, err := c.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if ns.Policy.Name() != "priority" {
		t.Errorf("policy = %s", ns.Policy.Name())
	}
	if specs := ns.Apps; !specs[0].HighPriority || specs[1].HighPriority {
		t.Error("priority flags wrong")
	}
}

func TestPrioritySharesPolicyBuild(t *testing.T) {
	doc := `{
		"platform": "skylake",
		"policy": "priority-shares",
		"limit_watts": 45,
		"apps": [
			{"name": "cactusBSSN", "core": 0, "priority": "hp", "shares": 90},
			{"name": "leela", "core": 1, "priority": "lp", "shares": 30}
		]
	}`
	c, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	ns, err := c.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if ns.Policy.Name() != "priority+shares" {
		t.Errorf("policy = %s", ns.Policy.Name())
	}
	// Missing shares is rejected for this policy.
	bad := strings.Replace(doc, `, "shares": 90`, "", 1)
	if _, err := Parse(strings.NewReader(bad)); err == nil {
		t.Error("priority-shares without shares accepted")
	}
}

func TestPerformancePolicyGetsBaselines(t *testing.T) {
	doc := strings.Replace(goodDoc, `"frequency"`, `"performance"`, 1)
	c, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	ns, err := c.Spec()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ns.Apps {
		if s.BaselineIPS <= 0 {
			t.Errorf("%s missing baseline", s.Name)
		}
	}
}

func TestPowerPolicyRejectedOnSkylakeAtBuild(t *testing.T) {
	doc := strings.Replace(goodDoc, `"frequency"`, `"power"`, 1)
	c, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Spec(); err == nil {
		t.Error("power shares on Skylake accepted at build")
	}
}

const sloDoc = `{
	"platform": "skylake",
	"policy": "slo-feedback",
	"limit_watts": 45,
	"apps": [
		{"name": "websearch", "core": 0, "shares": 50},
		{"name": "websearch", "core": 1, "shares": 50},
		{"name": "gcc", "core": 2, "shares": 50}
	],
	"slos": [
		{"service": "websearch", "target_p99_ms": 80}
	]
}`

func TestSLOFeedbackPolicyBuild(t *testing.T) {
	c, err := Parse(strings.NewReader(sloDoc))
	if err != nil {
		t.Fatal(err)
	}
	ns, err := c.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if ns.Policy.Name() != "slo-feedback" {
		t.Errorf("policy = %s", ns.Policy.Name())
	}
	// Service entries keep their service name; batch apps resolve
	// through the workload registry as before.
	if specs := ns.Apps; specs[0].Name != "websearch" || specs[2].Name != "gcc" {
		t.Errorf("spec names = %s, %s", specs[0].Name, specs[2].Name)
	}
	if ts := ns.SLOTargets; len(ts) != 1 || ts[0].Service != "websearch" || ts[0].P99 != 80*time.Millisecond {
		t.Errorf("SLOTargets = %+v", ns.SLOTargets)
	}
}

func TestSLOConfigRejections(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"no slos for slo-feedback", strings.Replace(sloDoc, `"slos": [
		{"service": "websearch", "target_p99_ms": 80}
	]`, `"slos": []`, 1)},
		{"zero target", strings.Replace(sloDoc, `"target_p99_ms": 80`, `"target_p99_ms": 0`, 1)},
		{"empty service", strings.Replace(sloDoc, `"service": "websearch"`, `"service": ""`, 1)},
		{"duplicate slo", strings.Replace(sloDoc, `{"service": "websearch", "target_p99_ms": 80}`,
			`{"service": "websearch", "target_p99_ms": 80}, {"service": "websearch", "target_p99_ms": 90}`, 1)},
		{"service app without slo", strings.Replace(sloDoc, `"service": "websearch"`, `"service": "frontend"`, 1)},
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c.doc)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// SLOs on a non-SLO policy are allowed: they annotate status output.
	doc := strings.Replace(goodDoc, `"apps"`, `"slos": [{"service": "gcc", "target_p99_ms": 10}], "apps"`, 1)
	if _, err := Parse(strings.NewReader(doc)); err != nil {
		t.Errorf("slos on frequency policy rejected: %v", err)
	}
}

func TestBuildServices(t *testing.T) {
	c, err := Parse(strings.NewReader(sloDoc))
	if err != nil {
		t.Fatal(err)
	}
	ns, err := c.Spec()
	if err != nil {
		t.Fatal(err)
	}
	svcs := ns.Services
	if len(svcs) != 1 {
		t.Fatalf("services = %d, want 1", len(svcs))
	}
	s := svcs[0]
	if s.Name != "websearch" {
		t.Errorf("name = %q", s.Name)
	}
	if len(s.Cores) != 2 || s.Cores[0] != 0 || s.Cores[1] != 1 {
		t.Errorf("cores = %v, want [0 1]", s.Cores)
	}
	if s.SLO != 80*time.Millisecond {
		t.Errorf("advisory SLO = %v", s.SLO)
	}
	// No load knob: defaults to the paper's closed-loop 300 users.
	if s.Arrivals != svc.Closed || s.Users != 300 {
		t.Errorf("default load = %v/%d users, want closed/300", s.Arrivals, s.Users)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("default service invalid: %v", err)
	}
}

func TestBuildServicesLoadKnobs(t *testing.T) {
	withKnob := func(knob string) ([]svc.Config, error) {
		doc := strings.Replace(sloDoc, `"target_p99_ms": 80`, `"target_p99_ms": 80, `+knob, 1)
		c, err := Parse(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("%s: %v", knob, err)
		}
		ns, err := c.Spec()
		return ns.Services, err
	}

	svcs, err := withKnob(`"rate_per_sec": 120`)
	if err != nil {
		t.Fatal(err)
	}
	if svcs[0].Arrivals != svc.OpenPoisson || svcs[0].Rate.Base != 120 {
		t.Errorf("rate knob: arrivals %v rate %v", svcs[0].Arrivals, svcs[0].Rate.Base)
	}

	svcs, err = withKnob(`"users": 40`)
	if err != nil {
		t.Fatal(err)
	}
	if svcs[0].Arrivals != svc.Closed || svcs[0].Users != 40 {
		t.Errorf("users knob: arrivals %v users %d", svcs[0].Arrivals, svcs[0].Users)
	}

	path := filepath.Join(t.TempDir(), "arrivals.pt")
	if err := os.WriteFile(path, []byte("padtrace/1\n10ms x3\n50ms\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	svcs, err = withKnob(`"trace": "` + path + `"`)
	if err != nil {
		t.Fatal(err)
	}
	if svcs[0].Arrivals != svc.OpenTrace || len(svcs[0].Trace) != 4 {
		t.Errorf("trace knob: arrivals %v len %d, want trace/4", svcs[0].Arrivals, len(svcs[0].Trace))
	}

	if _, err := withKnob(`"trace": "` + filepath.Join(t.TempDir(), "missing.pt") + `"`); err == nil {
		t.Error("missing trace file accepted")
	}

	// Conflicting and negative load knobs fail validation at parse time.
	for _, knob := range []string{
		`"rate_per_sec": 120, "users": 40`,
		`"rate_per_sec": -1`,
		`"users": -3`,
	} {
		doc := strings.Replace(sloDoc, `"target_p99_ms": 80`, `"target_p99_ms": 80, `+knob, 1)
		if _, err := Parse(strings.NewReader(doc)); err == nil {
			t.Errorf("knob %s accepted", knob)
		}
	}
}

func TestLoadFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "powerd.json")
	if err := os.WriteFile(path, []byte(goodDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestDefaultInterval(t *testing.T) {
	doc := strings.Replace(goodDoc, `"interval_ms": 500,`, "", 1)
	c, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if c.Interval() != time.Second {
		t.Errorf("default interval = %v, want the paper's 1s", c.Interval())
	}
}
