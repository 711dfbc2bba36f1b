// Package opconfig loads operator configuration for the power-delivery
// daemon: which platform, which policy, the power limit, and the managed
// applications with their cores, shares or priorities — the file-based
// equivalent of the paper's "list of programs as input with their priority
// and shares" (Section 5).
package opconfig

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/platform"
	"repro/internal/svc"
	"repro/internal/units"
	"repro/internal/workload"
)

// App is one managed application entry.
type App struct {
	Name string `json:"name"`
	Core int    `json:"core"`

	// Shares is the proportional-share weight (share policies).
	Shares int `json:"shares,omitempty"`

	// Priority is "hp" or "lp" (priority policy).
	Priority string `json:"priority,omitempty"`

	// MaxFreqMHz optionally caps the application at a useful frequency.
	MaxFreqMHz int `json:"max_freq_mhz,omitempty"`
}

// SLO is one per-service p99 latency objective. The service name must
// match a latency service fed to the daemon (and, for the slo-feedback
// policy, the app entries serving it).
type SLO struct {
	Service     string  `json:"service"`
	TargetP99MS float64 `json:"target_p99_ms"`

	// Load model for the materialised service, at most one of:
	// RatePerSec draws open-loop Poisson arrivals at a constant mean
	// rate, Trace replays a padtrace/1 arrival file open-loop, Users
	// runs a closed-loop population. All zero defaults to a closed loop
	// of 300 users (the paper's websearch population).
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	Trace      string  `json:"trace,omitempty"`
	Users      int     `json:"users,omitempty"`
}

// Config is the operator's daemon configuration.
type Config struct {
	Platform   string  `json:"platform"`
	Policy     string  `json:"policy"` // frequency, performance, power, priority, slo-feedback
	LimitWatts float64 `json:"limit_watts"`
	IntervalMS int     `json:"interval_ms,omitempty"`
	Apps       []App   `json:"apps"`

	// SLOs are the p99 objectives the daemon stamps onto service
	// telemetry. Required (non-empty) for the slo-feedback policy;
	// optional otherwise (targets then only annotate status output).
	SLOs []SLO `json:"slos,omitempty"`
}

// Load reads and validates a configuration file.
func Load(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, fmt.Errorf("opconfig: %w", err)
	}
	defer f.Close()
	return Parse(f)
}

// Parse reads and validates a configuration document. Unknown fields are
// rejected so typos fail loudly.
func Parse(r io.Reader) (Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("opconfig: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Validate checks the configuration's coherence without building anything.
func (c Config) Validate() error {
	if _, err := platform.ByName(c.Platform); err != nil {
		return fmt.Errorf("opconfig: %w", err)
	}
	switch c.Policy {
	case "frequency", "performance", "power", "priority", "priority-shares", "slo-feedback":
	default:
		return fmt.Errorf("opconfig: unknown policy %q", c.Policy)
	}
	for i, s := range c.SLOs {
		if s.Service == "" {
			return fmt.Errorf("opconfig: slo %d has no service name", i)
		}
		if s.TargetP99MS <= 0 {
			return fmt.Errorf("opconfig: slo for %q needs a positive target_p99_ms", s.Service)
		}
		for _, prev := range c.SLOs[:i] {
			if prev.Service == s.Service {
				return fmt.Errorf("opconfig: duplicate slo for service %q", s.Service)
			}
		}
		if s.RatePerSec < 0 {
			return fmt.Errorf("opconfig: slo for %q has negative rate_per_sec", s.Service)
		}
		if s.Users < 0 {
			return fmt.Errorf("opconfig: slo for %q has negative users", s.Service)
		}
		load := 0
		if s.RatePerSec > 0 {
			load++
		}
		if s.Trace != "" {
			load++
		}
		if s.Users > 0 {
			load++
		}
		if load > 1 {
			return fmt.Errorf("opconfig: slo for %q sets more than one of rate_per_sec, trace, users", s.Service)
		}
	}
	if c.Policy == "slo-feedback" && len(c.SLOs) == 0 {
		return fmt.Errorf("opconfig: the slo-feedback policy needs at least one slos entry")
	}
	if c.LimitWatts <= 0 {
		return fmt.Errorf("opconfig: limit_watts must be positive")
	}
	if c.IntervalMS < 0 {
		return fmt.Errorf("opconfig: negative interval_ms")
	}
	if len(c.Apps) == 0 {
		return fmt.Errorf("opconfig: no apps")
	}
	for i, a := range c.Apps {
		// An app serving a declared SLO is a latency service, not a batch
		// workload: its name identifies the service, so the workload
		// registry does not need to know it.
		if !c.hasSLO(a.Name) {
			if _, err := workload.ByName(a.Name); err != nil {
				return fmt.Errorf("opconfig: app %d: %w", i, err)
			}
		}
		// Both priority policies need a class; every policy but the
		// plain priority one needs shares.
		if strings.HasPrefix(c.Policy, "priority") && a.Priority != "hp" && a.Priority != "lp" {
			return fmt.Errorf("opconfig: app %q needs priority hp or lp", a.Name)
		}
		if c.Policy != "priority" && a.Shares <= 0 {
			return fmt.Errorf("opconfig: app %q needs positive shares for the %s policy", a.Name, c.Policy)
		}
		if a.MaxFreqMHz < 0 {
			return fmt.Errorf("opconfig: app %q has negative max_freq_mhz", a.Name)
		}
	}
	return nil
}

// Interval returns the control interval (the paper's 1 s by default).
func (c Config) Interval() time.Duration {
	if c.IntervalMS <= 0 {
		return time.Second
	}
	return time.Duration(c.IntervalMS) * time.Millisecond
}

// Limit returns the power limit.
func (c Config) Limit() units.Watts { return units.Watts(c.LimitWatts) }

// hasSLO reports whether a service name carries a declared objective.
func (c Config) hasSLO(service string) bool {
	for _, s := range c.SLOs {
		if s.Service == service {
			return true
		}
	}
	return false
}

// Spec materialises the configuration as a node: the chip, the app specs
// (with analytic standalone baselines for the performance policy), the
// policy, and one latency service per declared SLO with its objective. A
// service serves on the cores of the app entries that name it. Trace files
// are read here so a bad path fails at load time, not mid-run; service
// seeds are positional so a run is reproducible from its config alone.
// Recorders, faults and hooks are the caller's to add.
func (c Config) Spec() (node.Spec, error) {
	chip, err := platform.ByName(c.Platform)
	if err != nil {
		return node.Spec{}, err
	}
	s := node.Spec{Chip: chip, Apps: make([]core.AppSpec, len(c.Apps)), Limit: c.Limit(), Interval: c.Interval()}
	for i, a := range c.Apps {
		s.Apps[i] = core.AppSpec{
			Name:         a.Name,
			Core:         a.Core,
			Shares:       units.Shares(a.Shares),
			HighPriority: a.Priority == "hp",
			MaxFreq:      units.Hertz(a.MaxFreqMHz) * units.MHz,
		}
		if c.hasSLO(a.Name) {
			// Latency-service entries have no workload profile; the SLO
			// feedback loop drives them from measured latency instead of
			// an analytic baseline.
			continue
		}
		p, err := workload.ByName(a.Name)
		if err != nil {
			return node.Spec{}, err
		}
		s.Apps[i].Name = p.Name
		s.Apps[i].AVX = p.AVX
		if c.Policy == "performance" {
			s.Apps[i].BaselineIPS = p.IPS(chip.Freq.Ceiling(1, p.AVX))
		}
	}
	for i, o := range c.SLOs {
		target := time.Duration(o.TargetP99MS * float64(time.Millisecond))
		s.SLOTargets = append(s.SLOTargets, core.SLOTarget{Service: o.Service, P99: target})
		sc := svc.Config{Name: o.Service, Seed: int64(i + 1), SLO: target}
		for _, a := range c.Apps {
			if a.Name == o.Service {
				sc.Cores = append(sc.Cores, a.Core)
			}
		}
		if len(sc.Cores) == 0 {
			return node.Spec{}, fmt.Errorf("opconfig: slo service %q has no app entries to serve on", o.Service)
		}
		switch {
		case o.RatePerSec > 0:
			sc.Arrivals = svc.OpenPoisson
			sc.Rate = svc.ConstantRate(o.RatePerSec)
		case o.Trace != "":
			f, err := os.Open(o.Trace)
			if err != nil {
				return node.Spec{}, fmt.Errorf("opconfig: slo service %q: %w", o.Service, err)
			}
			arrivals, perr := svc.ParseTrace(f)
			f.Close()
			if perr != nil {
				return node.Spec{}, fmt.Errorf("opconfig: slo service %q trace %s: %w", o.Service, o.Trace, perr)
			}
			sc.Arrivals = svc.OpenTrace
			sc.Trace = arrivals
		case o.Users > 0:
			sc.Arrivals = svc.Closed
			sc.Users = o.Users
		default:
			sc.Arrivals = svc.Closed
			sc.Users = 300
		}
		s.Services = append(s.Services, sc)
	}
	if s.Policy, err = PolicyFor(c.Policy, chip, s.Apps, s.Limit, s.SLOTargets...); err != nil {
		return node.Spec{}, err
	}
	return s, nil
}

// PolicyFor builds the named policy over chip and specs — the single
// by-name constructor shared by config loading (and so cmd/powerd), the
// studies in internal/experiments, and the control plane's
// live-reconfigure path. For the performance policy, specs
// missing a standalone baseline get the analytic one when their workload
// profile is known. The optional trailing SLO targets parameterise the
// slo-feedback policy (which requires at least one) and are ignored by the
// others. The specs slice is not mutated.
func PolicyFor(name string, chip platform.Chip, specs []core.AppSpec, limit units.Watts, slos ...core.SLOTarget) (core.Policy, error) {
	specs = append([]core.AppSpec(nil), specs...)
	if name == "performance" {
		for i := range specs {
			if specs[i].BaselineIPS > 0 {
				continue
			}
			if p, err := workload.ByName(specs[i].Name); err == nil {
				specs[i].BaselineIPS = p.IPS(chip.Freq.Ceiling(1, p.AVX))
			}
		}
	}
	switch name {
	case "frequency":
		return core.NewFrequencyShares(chip, specs, core.ShareConfig{})
	case "performance":
		return core.NewPerformanceShares(chip, specs, core.ShareConfig{})
	case "power":
		return core.NewPowerShares(chip, specs, core.ShareConfig{})
	case "priority":
		return core.NewPriority(chip, specs, core.PriorityConfig{Limit: limit})
	case "priority-shares":
		return core.NewPriorityShares(chip, specs, core.PriorityConfig{Limit: limit})
	case "slo-feedback":
		return core.NewSLOFeedback(chip, specs, core.SLOConfig{Targets: slos})
	}
	return nil, fmt.Errorf("opconfig: unknown policy %q", name)
}
