package flight

import "repro/internal/core"

// Decision-reason codes map the closed core.Reason vocabulary onto the
// stable uint32 codes carried in KindDecision events. Codes are part of the
// dump format: once assigned they must not be renumbered, only appended.
const (
	codeUnknown uint32 = iota
	codeInitial
	codeWithinDeadband
	codePowerOverLimit
	codePowerUnderLimit
	codeShareRebalance
	codeTranslateOnly
	codeLimitChange
	codeThrottleLP
	codeParkStarvedLP
	codeThrottleHP
	codeRestoreHP
	codeWakeLP
	codeRaiseLP
	codeSaturated
	codeReconfigure
	codeSLOFallback
	codeSLOBoost
	codeSLORelax
	codeSLOMet
	codeSLOSaturated
)

var reasonCodes = map[core.Reason]uint32{
	core.ReasonInitial:         codeInitial,
	core.ReasonWithinDeadband:  codeWithinDeadband,
	core.ReasonPowerOverLimit:  codePowerOverLimit,
	core.ReasonPowerUnderLimit: codePowerUnderLimit,
	core.ReasonShareRebalance:  codeShareRebalance,
	core.ReasonTranslateOnly:   codeTranslateOnly,
	core.ReasonLimitChange:     codeLimitChange,
	core.ReasonThrottleLP:      codeThrottleLP,
	core.ReasonParkStarvedLP:   codeParkStarvedLP,
	core.ReasonThrottleHP:      codeThrottleHP,
	core.ReasonRestoreHP:       codeRestoreHP,
	core.ReasonWakeLP:          codeWakeLP,
	core.ReasonRaiseLP:         codeRaiseLP,
	core.ReasonSaturated:       codeSaturated,
	core.ReasonReconfigure:     codeReconfigure,
	core.ReasonSLOFallback:     codeSLOFallback,
	core.ReasonSLOBoost:        codeSLOBoost,
	core.ReasonSLORelax:        codeSLORelax,
	core.ReasonSLOMet:          codeSLOMet,
	core.ReasonSLOSaturated:    codeSLOSaturated,
}

var reasonNames = func() map[uint32]core.Reason {
	m := make(map[uint32]core.Reason, len(reasonCodes))
	for r, c := range reasonCodes {
		m[c] = r
	}
	return m
}()

// ReasonCode returns the dump code for a policy reason (codeUnknown for a
// reason outside the closed vocabulary).
func ReasonCode(r core.Reason) uint32 { return reasonCodes[r] }

// ReasonFromCode inverts ReasonCode; unknown codes decode as "unknown".
func ReasonFromCode(c uint32) core.Reason {
	if r, ok := reasonNames[c]; ok {
		return r
	}
	return core.Reason("unknown")
}

// Constraint codes carried in Event.Arg of KindConstraint events, matching
// the simulator's binding-constraint classification.
const (
	ConstraintIdle uint32 = iota
	ConstraintRequest
	ConstraintRAPLCap
	ConstraintAVXLicence
	ConstraintTurbo
	ConstraintThermal
)

// constraintNames names each constraint code.
var constraintNames = [...]string{
	ConstraintIdle:       "idle",
	ConstraintRequest:    "request",
	ConstraintRAPLCap:    "rapl-cap",
	ConstraintAVXLicence: "avx-licence",
	ConstraintTurbo:      "turbo",
	ConstraintThermal:    "thermal",
}

// ConstraintFromCode names a constraint code: the label the simulator's
// constraint metric counts it under, or "unknown".
func ConstraintFromCode(c uint32) string {
	if c < uint32(len(constraintNames)) {
		return constraintNames[c]
	}
	return "unknown"
}

// Fault class codes carried in Event.Arg of KindFaultInject/KindFaultClear
// events. They mirror internal/fault's class vocabulary; like reason codes
// they are part of the dump format and may only be appended to.
const (
	FaultEIO uint32 = iota
	FaultStuck
	FaultTorn
	FaultLatency
	FaultThermal
	FaultRAPL
	FaultOffline
)

// FaultName names a fault class code for reports.
func FaultName(c uint32) string {
	switch c {
	case FaultEIO:
		return "eio"
	case FaultStuck:
		return "stuck"
	case FaultTorn:
		return "torn"
	case FaultLatency:
		return "latency"
	case FaultThermal:
		return "thermal"
	case FaultRAPL:
		return "rapl"
	case FaultOffline:
		return "offline"
	}
	return "unknown"
}

// Health codes carried in Event.Arg of KindHealth events: the daemon's
// per-core health state machine degrading a core (policy input frozen at the
// last good sample, actuation forced to the safe floor) or re-admitting it
// after sustained healthy telemetry.
const (
	HealthDegraded uint32 = iota
	HealthReadmitted
)

// HealthName names a health transition code for reports.
func HealthName(c uint32) string {
	switch c {
	case HealthDegraded:
		return "degraded"
	case HealthReadmitted:
		return "readmitted"
	}
	return "unknown"
}

// Lease codes carried in Event.Arg of KindLease events: the node agent's
// lease state machine. Like every Arg vocabulary they are part of the dump
// format and may only be appended to.
const (
	// LeaseGrant: a coordinator granted (or raised/lowered) a budget lease;
	// Value is the granted cap in µW, Aux the TTL in ns.
	LeaseGrant uint32 = iota
	// LeaseRenew: an active lease was renewed before expiry; payload as for
	// LeaseGrant.
	LeaseRenew
	// LeaseExpire: the lease TTL elapsed without renewal (coordinator lost);
	// Value is the expired cap in µW.
	LeaseExpire
	// LeaseFallback: the agent programmed the safe fallback cap; Value is
	// the fallback cap in µW, Aux the cap it replaced in µW.
	LeaseFallback
	// LeaseRefuse: a grant was refused (node draining, or a malformed
	// grant); Value is the refused cap in µW.
	LeaseRefuse
)

// LeaseName names a lease transition code for reports.
func LeaseName(c uint32) string {
	switch c {
	case LeaseGrant:
		return "grant"
	case LeaseRenew:
		return "renew"
	case LeaseExpire:
		return "expire"
	case LeaseFallback:
		return "fallback"
	case LeaseRefuse:
		return "refuse"
	}
	return "unknown"
}

// Reconfigure codes carried in Event.Arg of KindReconfigure events: which
// part of a running daemon's configuration a live reconfiguration touched.
const (
	ReconfigPolicy uint32 = iota
	ReconfigShares
	ReconfigLimit
	ReconfigDrain
	// ReconfigSLO names a replaced set of p99 objectives in a dump that
	// holds one; the daemon fixes its objectives at construction and
	// records none.
	ReconfigSLO
)

// ReconfigName names a reconfiguration code for reports.
func ReconfigName(c uint32) string {
	switch c {
	case ReconfigPolicy:
		return "policy"
	case ReconfigShares:
		return "shares"
	case ReconfigLimit:
		return "limit"
	case ReconfigDrain:
		return "drain"
	case ReconfigSLO:
		return "slo"
	}
	return "unknown"
}

// Energy account sentinels carried in Event.Arg of KindEnergy events.
// Small Arg values are app indices in spec order (flight.Meta.Apps order in
// a dump); the sentinels occupy the top of the uint32 range so they can
// never collide with a real app index. Like every Arg vocabulary they are
// part of the dump format and may only be appended to (downward).
const (
	// EnergyArgUnattributed: socket energy measured by trustworthy
	// counters that no app weight claims (idle/static power).
	EnergyArgUnattributed uint32 = 0xFFFFFFFF
	// EnergyArgExcluded: socket energy withheld from attribution because
	// a counter on that socket was untrustworthy this interval.
	EnergyArgExcluded uint32 = 0xFFFFFFFE
	// EnergyArgTotal: total socket energy integrated (attributed +
	// unattributed + excluded).
	EnergyArgTotal uint32 = 0xFFFFFFFD
	// EnergyArgLimit: the integral of the enforced power limit (the
	// energy budget the cap allowed).
	EnergyArgLimit uint32 = 0xFFFFFFFC
	// EnergyArgOvershoot: the integral of max(0, package power − limit).
	EnergyArgOvershoot uint32 = 0xFFFFFFFB
)

// EnergyArgName names an energy account sentinel (or "app" for an app
// index) for reports.
func EnergyArgName(a uint32) string {
	switch a {
	case EnergyArgUnattributed:
		return "unattributed"
	case EnergyArgExcluded:
		return "excluded"
	case EnergyArgTotal:
		return "total"
	case EnergyArgLimit:
		return "limit"
	case EnergyArgOvershoot:
		return "overshoot"
	}
	return "app"
}

// Anomaly codes carried in Event.Arg of KindAnomaly events: the energy
// ledger's streaming detectors. Append-only, like every Arg vocabulary.
const (
	// AnomalyOvershoot: package power sustained above limit×(1+margin);
	// Value is the overshoot in µW, Aux the consecutive intervals over.
	AnomalyOvershoot uint32 = iota
	// AnomalyOscillation: the enforced cap thrashing direction; Value is
	// the current limit in µW, Aux the direction flips in the window.
	AnomalyOscillation
	// AnomalyShareDrift: an app's energy share drifting from its granted
	// share; Core is the app core, Value the observed energy fraction in
	// ppm, Aux the granted share fraction in ppm.
	AnomalyShareDrift
	// AnomalyStraggler: a socket's telemetry untrustworthy for a
	// sustained run; Core is the socket index, Aux the consecutive
	// untrustworthy intervals.
	AnomalyStraggler
)

// AnomalyName names an anomaly code for reports and metric labels.
func AnomalyName(c uint32) string {
	switch c {
	case AnomalyOvershoot:
		return "overshoot"
	case AnomalyOscillation:
		return "oscillation"
	case AnomalyShareDrift:
		return "share-drift"
	case AnomalyStraggler:
		return "straggler"
	}
	return "unknown"
}

// ActName names an actuation code for reports.
func ActName(a uint32) string {
	switch a {
	case ActSetFreq:
		return "set-freq"
	case ActPark:
		return "park"
	case ActWake:
		return "wake"
	}
	return "unknown"
}
