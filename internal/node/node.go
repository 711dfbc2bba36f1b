// Package node assembles one power-managed node: a simulated machine
// running the paper's daemon over "a list of programs as input with their
// priority and shares" (Section 5), under one policy and one limit. The
// machine's batch applications and latency services, the fault injector
// between the daemon and the registers, the recorders and the daemon are
// wired here and nowhere else, so what cmd/powerd runs and what every
// daemon-driven study runs is one definition.
package node

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/fault"
	"repro/internal/flight"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/metrics/decisions"
	"repro/internal/msr"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/svc"
	"repro/internal/units"
	"repro/internal/workload"
)

// Spec describes a node.
type Spec struct {
	Chip platform.Chip

	// Apps are the managed applications, one per core.
	Apps []core.AppSpec

	// Profiles, parallel to Apps, are the workloads pinned on the apps'
	// cores; nil looks each app's profile up by name. A core a service
	// serves on is left to the service model.
	Profiles []workload.Profile

	// Policy runs under the daemon. Nil runs the RAPL baseline instead:
	// no daemon, every app core requesting the chip's maximum frequency
	// under a hardware limit of Limit.
	Policy   core.Policy
	Limit    units.Watts
	Interval time.Duration // control interval; zero is the daemon's 1 s

	// Services are the latency services, each on its own cores, and
	// SLOTargets the p99 objectives the daemon stamps onto them.
	Services   []svc.Config
	SLOTargets []core.SLOTarget

	// Faults, when non-empty, are injected between the daemon and the
	// machine's registers, their random draws seeded by FaultSeed.
	Faults    fault.Schedule
	FaultSeed int64

	// Recorders, when set, turns on what an operator reads: a metrics
	// registry, a decision journal and the energy ledger.
	Recorders *Recorders

	// Flight, when set, records the machine's register traffic, the
	// faults, and the daemon's decisions and actuations.
	Flight *flight.Recorder

	// OnSnapshot observes every control interval (daemon.Config.OnSnapshot).
	OnSnapshot func(core.Snapshot)
}

// Recorders configures the operator-facing recorders.
type Recorders struct {
	Rates    ledger.RateSchedule   // nil is ledger.DefaultRates
	Triggers daemon.FlightTriggers // automatic flight dumps; need Spec.Flight
}

// Node is an assembled node. Fields a spec did not ask for are nil.
type Node struct {
	M        *sim.Machine
	Daemon   *daemon.Daemon // nil for the RAPL baseline
	Services *svc.Model
	Faults   *fault.Injector
	Flight   *flight.Recorder
	Metrics  *metrics.Registry
	Journal  *decisions.Journal
	Ledger   *ledger.Ledger
}

// New assembles a node in a fixed order: pin the batch profiles, attach
// the services, wrap the registers in the fault injector and drive it,
// build the ledger, then build the daemon and attach it to virtual time.
// The injector's window edges go on the machine's calendar before the
// daemon's interval, so fault transitions at a tick precede that tick's
// control iteration.
func New(s Spec) (*Node, error) {
	n := &Node{Flight: s.Flight}
	if s.Recorders != nil {
		n.Metrics = metrics.NewRegistry()
		n.Journal = decisions.NewJournal(0)
	}
	m, err := sim.New(s.Chip, sim.WithMetrics(n.Metrics), sim.WithFlightRecorder(s.Flight))
	if err != nil {
		return nil, err
	}
	n.M = m
	served := make(map[int]bool)
	for _, sc := range s.Services {
		for _, c := range sc.Cores {
			served[c] = true
		}
	}
	for i, a := range s.Apps {
		if served[a.Core] {
			continue
		}
		var p workload.Profile
		if s.Profiles != nil {
			p = s.Profiles[i]
		} else if p, err = workload.ByName(a.Name); err != nil {
			return nil, fmt.Errorf("node: app %d: %w", i, err)
		}
		if err := m.Pin(workload.NewInstance(p), a.Core); err != nil {
			return nil, err
		}
	}
	if len(s.Services) > 0 {
		if n.Services, err = svc.NewModel(s.Services...); err != nil {
			return nil, err
		}
		if err := n.Services.Attach(m); err != nil {
			return nil, err
		}
	}
	dev := msr.Device(m.Device())
	if len(s.Faults) > 0 {
		n.Faults = fault.New(s.Faults, s.FaultSeed)
		n.Faults.Instrument(n.Metrics)
		n.Faults.Flight(s.Flight)
		n.Faults.Drive(m)
		dev = n.Faults.WrapDevice(dev)
	}
	if s.Policy == nil {
		for _, a := range s.Apps {
			if err := m.SetRequest(a.Core, s.Chip.Freq.Max()); err != nil {
				return nil, err
			}
		}
		m.SetPowerLimit(s.Limit)
		return n, nil
	}
	dcfg := daemon.Config{
		Chip: s.Chip, Policy: s.Policy, Apps: s.Apps, Limit: s.Limit, Interval: s.Interval,
		OnSnapshot: s.OnSnapshot, Metrics: n.Metrics, Journal: n.Journal, Flight: s.Flight,
		SLOTargets: s.SLOTargets,
	}
	if n.Services != nil {
		dcfg.SLO = n.Services
	}
	if s.Recorders != nil {
		n.Ledger, err = ledger.New(ledger.Config{
			Chip: s.Chip, Apps: s.Apps, Rates: s.Recorders.Rates, Metrics: n.Metrics, Flight: s.Flight,
		})
		if err != nil {
			return nil, err
		}
		dcfg.Ledger = n.Ledger
		dcfg.Triggers = s.Recorders.Triggers
	}
	if n.Daemon, err = daemon.New(dcfg, dev, daemon.MachineActuator{M: m, Dev: dev}); err != nil {
		return nil, err
	}
	return n, n.Daemon.AttachVirtual(m)
}

// Run advances the machine by d of virtual time and returns the daemon's
// first loop error, if any.
func (n *Node) Run(d time.Duration) error {
	n.M.Run(d)
	if n.Daemon == nil {
		return nil
	}
	return n.Daemon.Err()
}
