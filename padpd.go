// Package padpd (per-application power delivery) is the public API of this
// reproduction of Guliani & Swift, "Per-Application Power Delivery"
// (EuroSys 2019).
//
// It re-exports the building blocks a downstream user needs:
//
//   - platforms: the paper's two evaluation chips (Skylake Xeon-SP 4114 and
//     AMD Ryzen 1700X) as simulator configurations;
//   - workloads: SPEC CPU2017-calibrated analytic profiles, the cpuburn
//     power virus, and the websearch closed-loop latency model;
//   - the machine: a discrete-time multicore simulator with per-core DVFS,
//     turbo, AVX licences, C-states, RAPL, and an MSR-level interface;
//   - the policies: the paper's priority policy and the power / frequency /
//     performance proportional-share policies;
//   - the daemon: the userspace control loop that drives a policy from
//     telemetry, in deterministic virtual time or wall-clock real time;
//   - the experiments: a regenerator for every table and figure of the
//     paper's evaluation, plus quantified studies of the paper's
//     discussion points (stability, useful frequency, game-ability,
//     consolidation) and ablations;
//   - the surrounding mechanism stack: single-core time sharing with
//     throttle compensation and trace record/replay.
//
// # Quickstart
//
//	chip := padpd.Skylake()
//	m, _ := padpd.NewMachine(chip)
//	m.Pin(padpd.NewInstance(padpd.MustProfile("gcc")), 0)
//	m.Pin(padpd.NewInstance(padpd.MustProfile("cam4")), 1)
//	specs := []padpd.AppSpec{
//		{Name: "gcc", Core: 0, Shares: 90},
//		{Name: "cam4", Core: 1, Shares: 10, AVX: true},
//	}
//	pol, _ := padpd.NewFrequencyShares(chip, specs, padpd.ShareConfig{})
//	d, _ := padpd.NewDaemon(padpd.DaemonConfig{
//		Chip: chip, Policy: pol, Apps: specs, Limit: 50,
//	}, m.Device(), padpd.MachineActuator{M: m})
//	d.AttachVirtual(m)
//	m.Run(60 * time.Second)
//
// The same daemon runs in real time over a file-backed MSR tree
// (NewFileMSRDevice, Daemon.RunRealtime). There a read or write can fail;
// the daemon degrades the affected core — last good state to the policy,
// safe P-state floor, readmission after two clean intervals — rather than
// exit. Only a start-up at which nothing can be read or written fails.
//
// See the examples directory for complete programs and DESIGN.md for the
// per-experiment index.
package padpd

import (
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/daemon"
	"repro/internal/experiments"
	"repro/internal/msr"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/svc"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workload"
)

// Physical quantities.
type (
	// Hertz is a frequency in hertz.
	Hertz = units.Hertz
	// Watts is a power draw in watts.
	Watts = units.Watts
	// Joules is an energy amount in joules.
	Joules = units.Joules
	// Shares is a proportional-share weight.
	Shares = units.Shares
)

// Frequency constructors.
const (
	KHz = units.KHz
	MHz = units.MHz
	GHz = units.GHz
)

// Platforms.
type (
	// Chip is a single-socket processor configuration.
	Chip = platform.Chip
	// CState is one core idle state of a chip's C-state table.
	CState = cpu.CState
	// FreqSpec is a chip's frequency domain (P-states, turbo, AVX).
	FreqSpec = cpu.FreqSpec
	// TurboBin is one row of a turbo table.
	TurboBin = cpu.TurboBin
)

var (
	// Skylake returns the paper's Intel platform (Xeon-SP 4114).
	Skylake = platform.Skylake
	// Ryzen returns the paper's AMD platform (Ryzen 1700X).
	Ryzen = platform.Ryzen
	// PlatformByName resolves "skylake" or "ryzen".
	PlatformByName = platform.ByName
)

// Workloads.
type (
	// Profile is an analytic workload model.
	Profile = workload.Profile
	// Instance is one running copy of a profile.
	Instance = workload.Instance
)

var (
	// SPEC2017 returns the paper's 11-benchmark subset.
	SPEC2017 = workload.SPEC2017
	// ProfileByName resolves a profile by benchmark name.
	ProfileByName = workload.ByName
	// MustProfile resolves a profile, panicking on unknown names.
	MustProfile = workload.MustByName
	// NewInstance creates a running copy of a profile.
	NewInstance = workload.NewInstance
	// CPUBurn is the cpuburn power virus profile.
	CPUBurn = workload.CPUBurn
	// ProfileFromTrace rebuilds a replayable profile from recorded
	// telemetry (IPS + core power per interval).
	ProfileFromTrace = workload.ProfileFromTrace
)

// TracePoint is one recorded telemetry interval for ProfileFromTrace.
type TracePoint = workload.TracePoint

// The machine.
type (
	// Machine is one simulated socket.
	Machine = sim.Machine
	// MachineOption configures NewMachine.
	MachineOption = sim.Option
)

var (
	// NewMachine builds a simulated socket for a chip.
	NewMachine = sim.New
	// WithTick sets the simulation tick.
	WithTick = sim.WithTick
)

// MSR access.
type (
	// MSRDevice is register-level access to the socket's MSRs.
	MSRDevice = msr.Device
	// FileMSRDevice is the file-backed MSR tree.
	FileMSRDevice = msr.FileDevice
)

var (
	// NewFileMSRDevice opens (creating if needed) a file-backed MSR tree.
	NewFileMSRDevice = msr.NewFileDevice
	// MirrorMSRs copies a register set between devices (e.g. machine to
	// file tree) for out-of-process readers.
	MirrorMSRs = msr.Mirror
	// EncodePerfCtl and DecodePerfCtl convert between frequencies and
	// PERF_CTL register values.
	EncodePerfCtl = msr.EncodePerfCtl
	DecodePerfCtl = msr.DecodePerfCtl
)

// Architectural register addresses for direct MSR work.
const (
	MSRAperf           = msr.IA32Aperf
	MSRMperf           = msr.IA32Mperf
	MSRPerfCtl         = msr.IA32PerfCtl
	MSRPerfStatus      = msr.IA32PerfStatus
	MSRFixedCtr0       = msr.IA32FixedCtr0
	MSRRAPLPowerUnit   = msr.RAPLPowerUnit
	MSRPkgPowerLimit   = msr.PkgPowerLimit
	MSRPkgEnergyStatus = msr.PkgEnergyStatus
	MSRPP0EnergyStatus = msr.PP0EnergyStatus
)

// Telemetry.
type (
	// Sampler is the turbostat-equivalent telemetry reader.
	Sampler = telemetry.Sampler
	// TelemetrySample is one sampling interval's derived telemetry.
	TelemetrySample = telemetry.Sample
)

var (
	// NewSampler builds a telemetry sampler over an MSR device.
	NewSampler = telemetry.NewSampler
)

// Policies.
type (
	// Policy is a differential power-delivery controller.
	Policy = core.Policy
	// AppSpec describes one managed application.
	AppSpec = core.AppSpec
	// AppState is one application's telemetry within a snapshot.
	AppState = core.AppState
	// Snapshot is one control interval's policy input.
	Snapshot = core.Snapshot
	// Action is one per-core policy decision.
	Action = core.Action
	// ShareConfig tunes the proportional-share loops.
	ShareConfig = core.ShareConfig
	// PriorityConfig tunes the priority policy.
	PriorityConfig = core.PriorityConfig
)

var (
	// NewPriority builds the two-level priority policy.
	NewPriority = core.NewPriority
	// NewPriorityShares builds the priority policy with proportional
	// shares within each class (Section 5.1's composition).
	NewPriorityShares = core.NewPriorityShares
	// NewFrequencyShares builds the frequency-share policy.
	NewFrequencyShares = core.NewFrequencyShares
	// NewPerformanceShares builds the performance-share policy.
	NewPerformanceShares = core.NewPerformanceShares
	// NewPowerShares builds the power-share policy (per-core power chips).
	NewPowerShares = core.NewPowerShares
	// ClusterPStates reduces frequency targets to k simultaneous P-states.
	ClusterPStates = core.ClusterPStates
)

// The daemon.
type (
	// Daemon is the userspace control loop.
	Daemon = daemon.Daemon
	// DaemonConfig assembles a daemon.
	DaemonConfig = daemon.Config
	// Actuator applies policy actions to a machine.
	Actuator = daemon.Actuator
	// MachineActuator actuates a simulated machine.
	MachineActuator = daemon.MachineActuator
	// MSRActuator actuates through a bare MSR device.
	MSRActuator = daemon.MSRActuator
)

var (
	// NewDaemon builds a daemon over an MSR device and actuator.
	NewDaemon = daemon.New
)

// Latency-sensitive workload.
type (
	// ServiceModel is a set of latency services attached to one machine.
	ServiceModel = svc.Model
	// Service is one latency service's queue and latency record.
	Service = svc.Service
)

var (
	// WebsearchConfig returns the paper's closed-loop websearch service:
	// users thinking and submitting requests to a pool of serving cores.
	WebsearchConfig = svc.Websearch
	// NewWebsearch builds a service model from service configurations.
	NewWebsearch = svc.NewModel
)

// Single-core time sharing (the paper's Section 4.3).
type (
	// TimeSharedCore multiplexes applications on one core with CPU shares.
	TimeSharedCore = sched.Core
)

var (
	// NewTimeSharedCore builds a time-shared core at a fixed frequency.
	NewTimeSharedCore = sched.New
)

// Experiments: regenerators for every table and figure of the paper.
var (
	// Figure1 regenerates the RAPL-interference motivation figure.
	Figure1 = experiments.Figure1
	// Figure2 regenerates the Skylake DVFS sweep.
	Figure2 = experiments.Figure2
	// Figure3 regenerates the Ryzen DVFS sweep.
	Figure3 = experiments.Figure3
	// Figure4 regenerates the RAPL × per-core DVFS study.
	Figure4 = experiments.Figure4
	// Figure5 regenerates the unfair-throttling latency figure.
	Figure5 = experiments.Figure5
	// Figure6 regenerates the time-shared power figure.
	Figure6 = experiments.Figure6
	// Figure7 regenerates the Skylake priority experiments.
	Figure7 = experiments.Figure7
	// Figure8 regenerates the Ryzen priority experiments.
	Figure8 = experiments.Figure8
	// Figure9 regenerates the Skylake proportional-share experiments.
	Figure9 = experiments.Figure9
	// Figure10 regenerates the Ryzen proportional-share experiments.
	Figure10 = experiments.Figure10
	// Figure11 regenerates the random-mix experiments.
	Figure11 = experiments.Figure11
	// Figure12 regenerates the latency-sensitive policy comparison.
	Figure12 = experiments.Figure12
	// Figure13 regenerates the latency-experiment frequency series.
	Figure13 = experiments.Figure13
	// Table1 renders the platform feature summary.
	Table1 = experiments.Table1
	// Table2 renders the Skylake priority mixes.
	Table2 = experiments.Table2
	// Table3 renders the random-experiment application sets.
	Table3 = experiments.Table3
	// StabilityStudy quantifies Section 6.2's policy-stability claim.
	StabilityStudy = experiments.StabilityStudy
	// UsefulFreqStudy quantifies the Section 4.4 useful-frequency refinement.
	UsefulFreqStudy = experiments.UsefulFreqStudy
	// GamingStudy quantifies the Section 8 game-ability discussion.
	GamingStudy = experiments.GamingStudy
	// ConsolidationStudy quantifies partial vs all-or-nothing LP starvation.
	ConsolidationStudy = experiments.ConsolidationStudy
	// AblationClustering measures the Ryzen 3-P-state clustering cost.
	AblationClustering = experiments.AblationClustering
	// AblationInterval measures control-interval vs settling time.
	AblationInterval = experiments.AblationInterval
	// SLOStudy compares SLO feedback against the static policies under
	// a diurnal open-loop arrival trace.
	SLOStudy = experiments.SLOStudy
)

// Experiment policy selectors for GamingStudy and friends.
const (
	KindRAPL        = experiments.RAPL
	KindFreqShares  = experiments.FreqShares
	KindPerfShares  = experiments.PerfShares
	KindPowerShares = experiments.PowerShares
	KindPriority    = experiments.PriorityPol
)

// Extension building blocks.
var (
	// UsefulFrequency fits the two-point latency model and returns the
	// highest useful frequency (Section 4.4).
	UsefulFrequency = core.UsefulFrequency
	// RandomRobustness sweeps random synthetic mixes checking share-policy
	// invariants.
	RandomRobustness = experiments.RandomRobustness
)
