// Package core implements the paper's contribution: differential
// power-delivery policies for applications co-located on one socket under a
// package power limit.
//
// Two policy classes are provided (Section 4): a two-level priority policy
// (high-priority applications run at maximum speed, low-priority
// applications receive residual power and may be starved), and
// proportional-share policies over three different resources — power,
// frequency, and performance (Section 4.2). Every share policy is built
// from the paper's three functions (Section 5.2):
//
//   - an initial distribution function that turns shares into initial
//     per-application resource limits;
//   - a redistribution function that distributes the gap between measured
//     package power and the power limit across non-saturated applications,
//     applying min-funding revocation [Waldspurger] so saturated
//     applications' portions flow to the rest;
//   - a translation function that converts resource limits into quantised
//     per-core frequency requests (clustered to three P-states on Ryzen).
//
// Policies are pure controllers: they consume telemetry snapshots and emit
// per-core actions, and are driven by the daemon package.
package core

import (
	"fmt"
	"time"

	"repro/internal/units"
)

// AppSpec is the operator's description of one managed application.
type AppSpec struct {
	Name         string
	Core         int          // core the application is pinned to
	Shares       units.Shares // proportional-share weight
	HighPriority bool         // priority-policy class
	AVX          bool         // subject to the AVX frequency licence

	// BaselineIPS is the application's standalone instructions per second
	// at maximum frequency, measured offline. Required by the
	// performance-share policy to normalise measured IPS.
	BaselineIPS float64

	// MaxFreq optionally caps the application's frequency below the
	// chip's ceiling — the paper's Section 4.4 modification: "run
	// applications at the highest useful frequency rather than the
	// highest possible frequency". Zero means uncapped. See
	// UsefulFrequency for deriving the cap from measurements.
	MaxFreq units.Hertz
}

// AppState is one application's telemetry within a snapshot.
type AppState struct {
	Spec   AppSpec
	Freq   units.Hertz // measured active frequency over the interval
	IPS    float64     // measured instructions per second
	Power  units.Watts // measured per-core power (0 where unsupported)
	Parked bool        // core currently held in a deep C-state
}

// NormPerf returns measured performance normalised to the standalone
// baseline, the quantity performance shares distribute. Zero baseline
// yields zero.
func (a AppState) NormPerf() float64 {
	if a.Spec.BaselineIPS <= 0 {
		return 0
	}
	return a.IPS / a.Spec.BaselineIPS
}

// Snapshot is one control interval's input to a policy.
type Snapshot struct {
	Time         time.Duration
	Limit        units.Watts
	PackagePower units.Watts
	Apps         []AppState

	// AppSet names the app set whose Specs Apps carries. The daemon draws
	// a fresh nonzero value each time it lays a set down, so snapshots
	// with the same nonzero AppSet carry the same Specs in the same order
	// and a consumer that keeps something per set (the decision journal
	// keeps the apps' names) need not compare them. Zero means unknown:
	// compare the Specs.
	AppSet uint64

	// Services carries per-service tail-latency telemetry when a
	// latency-service model is wired into the daemon (Config.SLO). It
	// is empty on daemons without one; policies that consume it must
	// fall back to share behaviour in that case.
	Services []ServiceSLO
}

// ServiceSLO is one latency service's sliding-window telemetry within a
// snapshot. Latencies are seconds; a zero P99 means the window holds no
// completions yet.
type ServiceSLO struct {
	Name     string
	P50      float64
	P90      float64
	P99      float64
	Target   float64 // p99 objective in seconds; 0 = no SLO configured
	Rate     float64 // completions per second over the window
	QueueLen int     // requests waiting (not in service)
	Dropped  uint64  // cumulative queue-full rejections
	Timeouts uint64  // cumulative queueing-deadline expiries
}

// Met reports whether the window's p99 meets the target. Services with
// no target or no completions yet are trivially met.
func (s ServiceSLO) Met() bool {
	return s.Target <= 0 || s.P99 <= 0 || s.P99 <= s.Target
}

// SLOTarget names one service's p99 objective. It configures both the
// SLO-feedback policy (which services are interactive) and the daemon
// (which stamps the live target into snapshot telemetry, so a
// Reconfigure can move objectives mid-run).
type SLOTarget struct {
	Service string
	P99     time.Duration
}

// Action is one per-core decision emitted by a policy.
type Action struct {
	Core int
	Freq units.Hertz // requested P-state frequency (ignored when parking)
	Park bool        // park the core (deep C-state, application starved)
}

// Policy is a differential power-delivery controller.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Initial returns the initial distribution's actions, applied before
	// the first control interval.
	Initial() []Action
	// Update consumes one telemetry snapshot and returns redistribution
	// actions (already translated to frequencies).
	Update(Snapshot) []Action
}

// validateSpecs performs the checks shared by all policy constructors.
func validateSpecs(specs []AppSpec, needShares bool) error {
	if len(specs) == 0 {
		return fmt.Errorf("core: no applications")
	}
	cores := make(map[int]bool)
	for _, s := range specs {
		if s.Name == "" {
			return fmt.Errorf("core: app on core %d has no name", s.Core)
		}
		if s.Core < 0 {
			return fmt.Errorf("core: app %s has negative core", s.Name)
		}
		if cores[s.Core] {
			return fmt.Errorf("core: core %d assigned twice", s.Core)
		}
		cores[s.Core] = true
		if needShares && s.Shares <= 0 {
			return fmt.Errorf("core: app %s needs positive shares", s.Name)
		}
	}
	return nil
}
